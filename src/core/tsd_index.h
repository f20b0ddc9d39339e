// TSD-index — the paper's Section 5 contribution.
//
// For every vertex v, the index stores the *maximum spanning forest* of the
// trussness-weighted ego-network WG_v (edge weight = trussness of the edge
// inside G_N(v)). By the max-spanning-forest cut property, two members of
// G_N(v) lie in the same maximal connected k-truss iff the forest connects
// them through edges of weight ≥ k, so the forest preserves the full
// structural diversity information of every ego-network in O(Σ_v n_v) ⊆
// O(m) total space (Observations 2 and 3). Each slice's score profile
// (core/forest_slice.h) keeps that bound: a slice has at most as many
// levels as forest edges.
//
// Queries for any (k, r) run against the index alone:
//   score(v)       — the components of the weight-≥k forest prefix, read
//                    off v's score profile (precomputed per distinct weight).
//   SearchBatch    — one sweep of the vertex range for every query, reading
//                    only the slices whose score ceiling some query could
//                    still take. TopR is its one-query case.
// The paper prunes TopR with the s̃core bound of Section 5.2 instead; the
// per-vertex score ceiling needs no bound pass and no order.
// The kernels and the query driver live in core/forest_slice.h, shared
// with DynamicTsdIndex; this class stores the slices flattened.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mmap_file.h"
#include "common/snapshot.h"
#include "core/forest_slice.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/types.h"
#include "truss/ego_truss.h"

namespace tsd {

class TsdIndex : public DiversitySearcher {
 public:
  struct Options {
    /// Kernel for the per-ego truss decompositions during construction.
    /// The paper's TSD uses per-vertex extraction + hash decomposition;
    /// the GCT improvements live in GctIndex.
    EgoTrussMethod method = EgoTrussMethod::kHash;
    /// Worker threads for construction. Per-vertex forests are independent,
    /// so the build parallelizes embarrassingly; results are bit-identical
    /// to the sequential build. With >1 threads the per-phase timing
    /// breakdown in build_stats() is summed across workers (CPU time, not
    /// wall time).
    std::uint32_t num_threads = 1;
  };

  /// Builds the TSD-index of `graph` (Algorithm 5). O(ρ(m+T)) time.
  static TsdIndex Build(const Graph& graph, const Options& options);
  static TsdIndex Build(const Graph& graph) { return Build(graph, Options()); }

  /// Structural diversity score of v at threshold k, via Algorithm 6, read
  /// off v's score profile. Allocation-free.
  std::uint32_t Score(VertexId v, std::uint32_t k) const;

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const;
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  using DiversitySearcher::SearchBatch;

  /// One sweep over the vertex range scores every requested threshold,
  /// reading only the slices whose score ceiling some query could still
  /// take. The index is immutable, so concurrent sessions may query one
  /// shared instance.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "TSD"; }

  /// Forest edges stored for v: parallel spans of (u, v, weight).
  std::uint32_t NumForestEdges(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// In-memory index size in bytes (Table 3): the forest arrays plus the
  /// score profiles and ceilings.
  std::size_t SizeBytes() const;

  IndexBuildStats build_stats() const { return build_stats_; }

  /// Maximum forest edge weight anywhere (== max ego-network trussness).
  std::uint32_t max_weight() const { return max_weight_; }

  /// Saves a single-object snapshot (common/snapshot.h container) holding
  /// just this index. Load() throws tsd::CheckError on any malformed file —
  /// legacy semantics kept for callers that treat the path as trusted.
  void Save(const std::string& path) const;
  static TsdIndex Load(const std::string& path);

  /// Writes the forest arrays into an open snapshot ("tsdx.*" tags), for
  /// combined files that also carry the graph and/or other indexes. The
  /// score profiles are not written; loading derives them.
  void AppendToSnapshot(SnapshotWriter& writer) const;

  /// Binds an index to the "tsdx.*" sections of a mapped snapshot —
  /// zero-copy, validated; false + `*error` on any inconsistency. The
  /// score profiles are derived in the validation pass (owned memory).
  [[nodiscard]] static bool LoadFromSnapshot(const SnapshotReader& reader,
                                             TsdIndex* out,
                                             std::string* error);

  /// True when the forest arrays are views into a mapped snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

 private:
  friend class DynamicTsdIndex;

  /// v's forest slice as a view into the flat arrays (checks v's range).
  ForestSliceView Slice(VertexId v) const;

  /// The index over the slices of `parts`, concatenated in order (vertex 0
  /// is the first slice of parts[0]): flat arrays, offsets, ceilings and
  /// max weight. Build's chunk merge and DynamicTsdIndex::Freeze.
  static TsdIndex FromColumns(std::vector<ForestColumns> parts);

  /// Fills ceilings_ from the score profiles (FromColumns and
  /// LoadFromSnapshot).
  void DeriveCeilings();

  // Per-vertex forest edges, flattened; each vertex's slice is sorted by
  // weight descending. Endpoints are global vertex ids.
  FlatArray<std::uint64_t> offsets_;  // size n+1
  FlatArray<VertexId> edge_u_;
  FlatArray<VertexId> edge_v_;
  FlatArray<std::uint32_t> weight_;
  // Per-vertex score profiles (core/forest_slice.h), flattened the same
  // way: v's levels are [level_offsets_[v], level_offsets_[v + 1]). Always
  // owned; snapshots do not carry them.
  std::vector<std::uint64_t> level_offsets_;  // size n+1
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> level_score_;
  // Per-vertex score ceilings, derived from the profiles; the batch sweep
  // reads them without touching the slices.
  std::vector<ScoreCeiling> ceilings_;  // size n
  std::uint32_t max_weight_ = 0;
  IndexBuildStats build_stats_;
  // Keeps the snapshot mapping alive while the arrays view into it.
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace tsd
