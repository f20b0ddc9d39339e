// The TSD-index query kernels and driver, written once over a per-vertex
// forest slice.
//
// Every TSD query reads one object per vertex v: the maximum spanning forest
// of v's trussness-weighted ego-network, its edges sorted by weight
// descending (core/tsd_index.h explains why the forest preserves every
// score), plus the slice's score profile. TsdIndex stores the slices
// flattened into mapped-or-owned arrays; DynamicTsdIndex keeps one
// immutable, epoch-protected slice per vertex. Both hand the kernels and
// the driver below a ForestSliceView, so the two indexes share one
// implementation of every query.
//
// Every slice is built by one ForestSliceBuilder: Algorithm 5's per-vertex
// job of ego extraction, ego truss decomposition and maximum spanning
// forest. It has two consumers: the TSD indexes (TsdIndex::Build, and
// DynamicTsdIndex's constructor and updates) append each slice with its
// score profile to a ForestColumns, and GctIndex::Build contracts it into
// supernodes (core/gct_index.h). The score profile is computed once per
// slice, by AppendScoreProfile, when the slice is built (or, for a mapped
// TsdIndex, loaded): `level` holds the slice's distinct weights in
// descending order and `level_score[i]` the exact score at threshold
// level[i], |endpoints| − |edges| of the prefix of edges with weight ≥
// level[i] (by the forest property, its component count). The score at any
// k is that of the smallest level ≥ k, or 0, so the score kernels walk
// O(levels) and need no scratch.
//
//   Score               — the profile entry of the smallest level ≥ k.
//   ScoreWithContexts   — the weight-≥k prefix, materialized into contexts.
//   ScoresForThresholds — one profile walk scores every threshold of a batch.
//
// Every slice also has a score ceiling: its top level and its largest
// level score. The score is 0 above the top level and never exceeds the
// largest level score, so the ceiling bounds the score at every k, and it
// is small enough for both indexes to keep in a flat per-vertex array.
//
// ForestSearchBatch, the one query driver (TopR is a one-query batch),
// sweeps the vertex range once for all requested thresholds in id order.
// It reads each vertex's ceiling from the flat array and touches the slice
// only if some query's collector could still take it. A shared bound order
// measured slower on the live-update workload, and so did one query's scan
// in the order of the paper's s̃core bound (Section 5.2) on
// livejournal-small. The ceiling test needs no order: a skipped vertex
// ranks below r already scored vertices of every query, so it is in no
// answer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "core/types.h"
#include "graph/dynamic_graph.h"
#include "graph/ego_network.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

/// One vertex's forest: parallel arrays of edge endpoints (global ids) and
/// weights, weights sorted descending, plus its score profile (parallel
/// `level`, `level_score`; see the header comment). Every endpoint is <
/// `universe`, which sizes the context kernel's dense scratch map.
struct ForestSliceView {
  VertexId universe = 0;
  std::span<const VertexId> u;
  std::span<const VertexId> v;
  std::span<const std::uint32_t> weight;
  std::span<const std::uint32_t> level;
  std::span<const std::uint32_t> level_score;
};

/// Upper bound on a slice's score at every threshold: at(k) = 0 above the
/// slice's top level, else the largest score of its profile.
struct ScoreCeiling {
  std::uint32_t top_level = 0;  // level[0], or 0 for an empty slice
  std::uint32_t max_score = 0;  // max of level_score, or 0

  std::uint32_t At(std::uint32_t k) const {
    return k > top_level ? 0 : max_score;
  }
};

/// Timing breakdown of index construction (feeds Tables 3 and 4).
/// total_seconds is wall time. The three phase fields add up each worker's
/// phase time over all workers (BuildChunks; GCT's global listing adds its
/// wall time to extraction), so above one thread they are CPU time and can
/// together exceed total_seconds.
struct IndexBuildStats {
  double extraction_seconds = 0;     // ego-network extraction
  double decomposition_seconds = 0;  // ego-network truss decomposition
  double assembly_seconds = 0;       // Kruskal + TSD profile or GCT contraction
  double total_seconds = 0;
};

/// Forest slices of consecutive vertices as columns: the slices' edges
/// (u | v | weight, weights descending per slice) and score profiles
/// (level | level_score), plus each slice's edge and level count, in vertex
/// order.
struct ForestColumns {
  std::vector<VertexId> u;
  std::vector<VertexId> v;
  std::vector<std::uint32_t> weight;
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> level_score;
  std::vector<std::uint32_t> num_edges;   // per slice
  std::vector<std::uint32_t> num_levels;  // per slice

  /// Appends a copy of `slice` as the next slice.
  void Append(const ForestSliceView& slice);
  void Clear();
};

/// A forest in ego-local ids (local i is members[i], ascending): edges
/// a[i] < b[i] of weight[i] in Kruskal order, ties in ego edge order.
struct LocalForest {
  std::span<const VertexId> members;
  std::span<const std::uint32_t> a;
  std::span<const std::uint32_t> b;
  std::span<const std::uint32_t> weight;
};

/// Builds forest slices one vertex at a time over a Graph or a
/// DynamicGraph: extracts v's ego network, decomposes it and takes its
/// maximum spanning forest (Kruskal with a counting sort on the small
/// integer weights, so O(m_v + max weight)). Owns all scratch, so repeated
/// builds allocate only to grow it. Not thread-safe; one per thread.
template <typename Adjacency>
class ForestSliceBuilder {
 public:
  /// With `listing` (of `graph`, outliving the builder), ego networks are
  /// materialized from it (Section 6.2) instead of extracted.
  explicit ForestSliceBuilder(const Adjacency& graph,
                              EgoTrussMethod method = EgoTrussMethod::kBitmap,
                              const GlobalEgoNetworks* listing = nullptr)
      : extractor_(graph), listing_(listing), decomposer_(method) {}

  /// v's forest in local ids, valid until the next call.
  LocalForest Build(VertexId v);

  /// Appends v's slice to `out` in global ids, with its score profile. Its
  /// endpoints are < the graph's current vertex count.
  void Append(VertexId v, ForestColumns* out);

  /// Time spent in each phase (no total); Build's consumers add theirs.
  const IndexBuildStats& stats() const { return stats_; }
  IndexBuildStats& stats() { return stats_; }

 private:
  BasicEgoNetworkExtractor<Adjacency> extractor_;
  const GlobalEgoNetworks* listing_;
  GlobalEgoNetworks::Scratch listing_scratch_;
  EgoTrussDecomposer decomposer_;
  EgoNetwork ego_;
  std::vector<std::uint32_t> trussness_;
  std::vector<std::uint32_t> by_weight_;  // ego edge ids, weight descending
  std::vector<std::uint32_t> bucket_;     // counting-sort cursors per weight
  DisjointSet dsu_;
  std::vector<std::uint32_t> forest_a_;
  std::vector<std::uint32_t> forest_b_;
  std::vector<std::uint32_t> forest_weight_;
  DenseIdMap ids_;
  IndexBuildStats stats_;
};

extern template class ForestSliceBuilder<Graph>;
extern template class ForestSliceBuilder<DynamicGraph>;

/// The index build loop: per worker, a `make_builder()` appends each chunk
/// of [0, n) (chunks in vertex order) to its output, timed into `stats`.
template <typename Chunk, typename MakeBuilder>
std::vector<Chunk> BuildChunks(VertexId n, std::uint32_t num_threads,
                               MakeBuilder&& make_builder,
                               IndexBuildStats* stats) {
  std::vector<Chunk> chunks(
      EffectiveChunks(ParallelConfig{num_threads, 0}, n));
  std::vector<decltype(make_builder())> builders;
  std::generate_n(std::back_inserter(builders), num_threads, make_builder);
  ParallelForChunksIndexed(
      n, static_cast<std::uint32_t>(chunks.size()), num_threads,
      [&](std::uint32_t worker, std::uint32_t c, std::uint64_t begin,
          std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          builders[worker].Append(static_cast<VertexId>(v), &chunks[c]);
        }
      });
  for (const auto& builder : builders) {
    stats->extraction_seconds += builder.stats().extraction_seconds;
    stats->decomposition_seconds += builder.stats().decomposition_seconds;
    stats->assembly_seconds += builder.stats().assembly_seconds;
  }
  return chunks;
}

namespace forest {

/// Appends the score profile of the forest slice (u, v, weight) — weights
/// sorted descending, endpoints < `universe` — to `level` and `level_score`.
/// `ids` is reusable dedup scratch. Appends at most weight.size() levels.
void AppendScoreProfile(VertexId universe, std::span<const VertexId> u,
                        std::span<const VertexId> v,
                        std::span<const std::uint32_t> weight, DenseIdMap& ids,
                        std::vector<std::uint32_t>* level,
                        std::vector<std::uint32_t>* level_score);

/// The slice's score ceiling, read off its score profile.
ScoreCeiling Ceiling(const ForestSliceView& slice);

/// Structural diversity score at threshold k (Algorithm 6), read off the
/// score profile in O(levels).
std::uint32_t Score(const ForestSliceView& slice, std::uint32_t k);

/// Score plus the social contexts: each sorted, ordered by smallest member.
ScoreResult ScoreWithContexts(const ForestSliceView& slice, std::uint32_t k,
                              IndexQueryScratch& scratch);

/// Scores at every threshold of `thresholds` (strictly descending, each ≥ 2)
/// in one walk of the score profile: the qualifying levels only grow as the
/// threshold drops.
void ScoresForThresholds(const ForestSliceView& slice,
                         std::span<const std::uint32_t> thresholds,
                         std::uint32_t* scores);

}  // namespace forest

/// Batch top-r over vertices [0, n): one ScoresForThresholds walk per
/// vertex answers every query, and winners are grouped by vertex for the
/// context phase. `ceiling_of(v)` returns v's ScoreCeiling; a vertex whose
/// ceiling no query's collector can take is skipped without reading its
/// slice. vertices_scored counts the slices read. `slice_of(v)` must stay
/// valid for the whole call (the dynamic index pins an epoch around it).
template <typename SliceOf, typename CeilingOf>
std::vector<TopRResult> ForestSearchBatch(std::span<const BatchQuery> queries,
                                          VertexId n, QuerySession& session,
                                          SliceOf&& slice_of,
                                          CeilingOf&& ceiling_of) {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored = runner.Scan(
        pipeline, n,
        [&](QueryWorkspace&, VertexId v, std::uint32_t* out) {
          forest::ScoresForThresholds(slice_of(v), runner.thresholds(), out);
        },
        [&](VertexId v, std::span<const TopRCollector> collectors) {
          const ScoreCeiling ceiling = ceiling_of(v);
          for (std::size_t q = 0; q < collectors.size(); ++q) {
            if (!collectors[q].CanPrune(ceiling.At(runner.query(q).k), v)) {
              return false;
            }
          }
          return true;
        });
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results, [](QueryWorkspace&, VertexId) {},
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t k) {
          return forest::ScoreWithContexts(slice_of(v), k, ws.index_scratch())
              .contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

}  // namespace tsd
