#include "core/online_search.h"

#include "common/timer.h"
#include "core/batch_query.h"
#include "core/scoring.h"

namespace tsd {

ScoreResult OnlineSearcher::ScoreVertex(VertexId v, std::uint32_t k,
                                        bool want_contexts,
                                        QuerySession& session) const {
  // Single-vertex path on workspace 0 of the session's cached pipeline, so
  // repeated calls (tsdtool score) reuse all scratch.
  QueryWorkspace& ws = Pipeline(session).workspace(0);
  EgoNetwork& ego = ws.DecomposeEgo(v);
  return ScoreFromEgoTrussness(ego, ws.trussness(), k, want_contexts);
}

std::vector<TopRResult> OnlineSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = Pipeline(session);

  // One ego decomposition per vertex scores it at every requested k.
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored =
        runner.RunEgoScan(pipeline, graph_.num_vertices());
  }

  // Winners grouped by vertex: a vertex ranking in several queries is
  // decomposed once and its contexts derived per k.
  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results,
        [](QueryWorkspace& ws, VertexId v) { ws.DecomposeEgo(v); },
        [](QueryWorkspace& ws, VertexId /*v*/, std::uint32_t k) {
          return ScoreFromEgoTrussness(ws.ego(), ws.trussness(), k,
                                       /*want_contexts=*/true)
              .contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

}  // namespace tsd
