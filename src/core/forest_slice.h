// The TSD-index query kernels and drivers, written once over a per-vertex
// forest slice.
//
// Every TSD query reads one object per vertex v: the maximum spanning forest
// of v's trussness-weighted ego-network, its edges sorted by weight
// descending (core/tsd_index.h explains why the forest preserves every
// score). TsdIndex stores the slices flattened into mapped-or-owned arrays;
// DynamicTsdIndex keeps one immutable, epoch-protected slice per vertex.
// Both hand the kernels and drivers below a ForestSliceView, so the two
// indexes share one implementation of every query.
//
//   Score               — components of the weight-≥k forest prefix
//                         (|endpoints| − |edges|, by the forest property).
//   ScoreWithContexts   — the same prefix, materialized into contexts.
//   ScoresForThresholds — one sweep scores every threshold of a batch.
//   ScoreUpperBound     — s̃core = ⌊#(weight ≥ k) / (k−1)⌋ (Section 5.2).
//
// ForestTopR is the bound-ordered top-r scan with early termination;
// ForestSearchBatch sweeps every slice once for all requested thresholds
// and always scans the full range: a shared bound order measured slower on
// the live-update workload and no workload gained from it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/score_ranking.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "core/types.h"

namespace tsd {

/// One vertex's forest: parallel arrays of edge endpoints (global ids) and
/// weights, weights sorted descending. Every endpoint is < `universe`, which
/// sizes the kernels' dense scratch maps.
struct ForestSliceView {
  VertexId universe = 0;
  std::span<const VertexId> u;
  std::span<const VertexId> v;
  std::span<const std::uint32_t> weight;
};

namespace forest {

/// Structural diversity score at threshold k (Algorithm 6). Allocation-free
/// in the steady state.
std::uint32_t Score(const ForestSliceView& slice, std::uint32_t k,
                    IndexQueryScratch& scratch);

/// Score plus the social contexts: each sorted, ordered by smallest member.
ScoreResult ScoreWithContexts(const ForestSliceView& slice, std::uint32_t k,
                              IndexQueryScratch& scratch);

/// Scores at every threshold of `thresholds` (strictly descending) in one
/// sweep: the qualified prefix only grows as the threshold drops.
void ScoresForThresholds(const ForestSliceView& slice,
                         std::span<const std::uint32_t> thresholds,
                         IndexQueryScratch& scratch, std::uint32_t* scores);

/// The s̃core upper bound; always ≥ Score(slice, k).
std::uint32_t ScoreUpperBound(const ForestSliceView& slice, std::uint32_t k);

}  // namespace forest

/// Top-r over vertices [0, n): s̃core bounds, bound-ordered scoring with
/// early termination, then context materialization for the winners.
/// `slice_of(v)` returns v's ForestSliceView and must stay valid for the
/// whole call (the dynamic index pins an epoch around it).
template <typename SliceOf>
TopRResult ForestTopR(std::uint32_t r, std::uint32_t k, VertexId n,
                      QuerySession& session, SliceOf&& slice_of) {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  // Index-only pipeline: the kernels read forest slices and never touch an
  // ego-network, so workspaces carry no extractor.
  QueryPipeline& pipeline = session.IndexPipeline();

  std::vector<std::uint32_t> bounds;
  {
    ScopedTimer t(&result.stats.preprocess_seconds);
    pipeline.MapScores(n, &bounds, [&](QueryWorkspace&, VertexId v) {
      return forest::ScoreUpperBound(slice_of(v), k);
    });
  }

  const std::vector<VertexId> order = OrderByBoundDesc(bounds);

  TopRCollector collector(r);
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        order, bounds, &collector, [&](QueryWorkspace& ws, VertexId v) {
          return forest::Score(slice_of(v), k, ws.index_scratch());
        });
  }

  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return forest::ScoreWithContexts(slice_of(v), k, ws.index_scratch())
              .contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

/// Batch top-r over vertices [0, n): one ScoresForThresholds sweep per
/// vertex answers every query, and winners are grouped by vertex for the
/// context phase. Entries are bit-identical to per-query ForestTopR.
template <typename SliceOf>
std::vector<TopRResult> ForestSearchBatch(std::span<const BatchQuery> queries,
                                          VertexId n, QuerySession& session,
                                          SliceOf&& slice_of) {
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
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t* out) {
          forest::ScoresForThresholds(slice_of(v), runner.thresholds(),
                                      ws.index_scratch(), out);
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
