#include "core/baselines.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "core/query_pipeline.h"
#include "core/score_ranking.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "graph/ego_network.h"

namespace tsd {
namespace {

/// Shared bound-ordered top-r loop for the two ego-decomposition baselines,
/// run on the common QueryPipeline. `score_fn(ego, want_contexts)` evaluates
/// the model on one extracted ego-network.
template <typename ScoreFn>
TopRResult DegreeBoundedTopR(QueryPipeline& pipeline, const Graph& graph,
                             std::uint32_t r, std::uint32_t divisor,
                             ScoreFn&& score_fn) {
  WallTimer total;
  TopRResult result;
  const VertexId n = graph.num_vertices();

  // Degree bound: each context needs at least `divisor` members.
  std::vector<std::uint32_t> bounds;
  pipeline.MapScores(n, &bounds, [&](QueryWorkspace&, VertexId v) {
    return graph.degree(v) / divisor;
  });

  const std::vector<VertexId> order = OrderByBoundDesc(bounds);

  TopRCollector collector(r);
  TopRCollector* const collectors[] = {&collector};
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrderedMulti(
        order, bounds, collectors,
        [&](QueryWorkspace& ws, VertexId v, std::uint32_t* score) {
          *score = score_fn(ws.ExtractEgo(v), /*want_contexts=*/false).score;
        });
  }
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return score_fn(ws.ExtractEgo(v), /*want_contexts=*/true).contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

}  // namespace

std::vector<TopRResult> CompDivSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  // Neither baseline needs a truss decomposer; the workspaces only serve
  // ego extraction scratch.
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  std::vector<TopRResult> results;
  results.reserve(queries.size());
  for (const auto [k, r] : queries) {
    TSD_CHECK(r >= 1);
    TSD_CHECK(k >= 1);
    results.push_back(DegreeBoundedTopR(
        pipeline, graph_, r, k, [k](EgoNetwork& ego, bool want_contexts) {
          return ScoreComponents(ego, k, want_contexts);
        }));
  }
  return results;
}

std::vector<TopRResult> CoreDivSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  std::vector<TopRResult> results;
  results.reserve(queries.size());
  for (const auto [k, r] : queries) {
    TSD_CHECK(r >= 1);
    TSD_CHECK(k >= 1);
    // A k-core has at least k+1 vertices.
    results.push_back(DegreeBoundedTopR(
        pipeline, graph_, r, k + 1, [k](EgoNetwork& ego, bool want_contexts) {
          return ScoreKCores(ego, k, want_contexts);
        }));
  }
  return results;
}

std::vector<VertexId> RandomSelect(const Graph& graph, std::uint32_t r,
                                   std::uint64_t seed) {
  TSD_CHECK(r <= graph.num_vertices());
  Rng rng(seed);
  std::unordered_set<VertexId> chosen;
  std::vector<VertexId> out;
  out.reserve(r);
  while (out.size() < r) {
    const auto v = static_cast<VertexId>(rng.Uniform(graph.num_vertices()));
    if (chosen.insert(v).second) out.push_back(v);
  }
  return out;
}

}  // namespace tsd
