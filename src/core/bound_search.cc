#include "core/bound_search.h"

#include <algorithm>

#include "common/timer.h"
#include "core/batch_query.h"
#include "core/score_ranking.h"
#include "core/scoring.h"
#include "truss/k_truss.h"

namespace tsd {
namespace {

/// Re-arms the session pipeline to the full graph on every exit path. The
/// pipeline is rebound to a stack-local sparsified graph for the scan; if
/// an exception unwinds past the query, the session's cache must not keep
/// workspaces pointing at the destroyed subgraph (the cache is shared
/// across searchers on the same (graph, method) key, so a later query
/// through another searcher would dereference it).
class PipelineRearm {
 public:
  PipelineRearm(QueryPipeline& pipeline, const Graph& graph)
      : pipeline_(pipeline), graph_(graph) {}
  ~PipelineRearm() { pipeline_.Rebind(graph_); }
  PipelineRearm(const PipelineRearm&) = delete;
  PipelineRearm& operator=(const PipelineRearm&) = delete;

 private:
  QueryPipeline& pipeline_;
  const Graph& graph_;
};

}  // namespace

std::uint32_t BoundSearcher::UpperBound(std::uint32_t degree,
                                        std::uint64_t m_v, std::uint32_t k) {
  TSD_CHECK(k >= 2);
  const std::uint64_t min_context_edges =
      static_cast<std::uint64_t>(k) * (k - 1) / 2;
  const std::uint64_t by_vertices = degree / k;
  const std::uint64_t by_edges = m_v / min_context_edges;
  // The minimum is bounded by degree/k, so it always fits 32 bits; taking
  // it in 64 bits first is what keeps a >2^32 ego edge count from wrapping.
  return static_cast<std::uint32_t>(std::min(by_vertices, by_edges));
}

std::vector<TopRResult> BoundSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.PipelineFor(graph_, method_);
  PipelineRearm rearm(pipeline, graph_);

  // The smallest requested k gives the loosest sparsification, which is
  // valid for every batched threshold at once (the truss keeps the
  // vertex-id space, so every vertex of the graph stays a candidate).
  const std::uint32_t k_min = runner.thresholds().back();
  KTruss reduced;
  std::vector<std::uint32_t> bounds;
  std::vector<VertexId> order;
  // The shared bound order prunes most of the per-candidate ego
  // decompositions: the Lemma 2 bound min(d/k, m_v/C(k,2)) is
  // non-increasing in k, so evaluating it at the smallest requested k
  // upper-bounds every query's score and the ordered scan can stop once
  // every collector prunes. A sequential scan always takes it (it prunes
  // per vertex; the paper's Example 3 scores one vertex). A parallel scan
  // prunes only between rounds, and with large r nearly every candidate
  // gets scored anyway, so there the round barriers, the bound pass and
  // the ordering pay off only while every query's r is small. Entries are
  // bit-identical either way.
  const bool ordered = pipeline.num_threads() == 1 ||
                       runner.total_r() * 64 <= graph_.num_vertices();
  {
    ScopedTimer t(&stats.preprocess_seconds);
    reduced =
        KTrussPeel(graph_, k_min + 1, ToParallelConfig(session.options()));
    stats.edges_pruned = reduced.stats.edges_pruned;
    pipeline.Rebind(reduced.truss);
    if (ordered) {
      pipeline.MapScores(reduced.truss.num_vertices(), &bounds,
                         [&](QueryWorkspace&, VertexId v) {
                           return UpperBound(reduced.truss.degree(v),
                                             reduced.TrianglesAt(v), k_min);
                         });
      order = OrderByBoundDesc(bounds);
    }
  }

  // Exact multi-k scores from one ego decomposition per visited candidate:
  // either the shared bound-ordered scan (small batches) or the full
  // reduced range.
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored =
        ordered ? runner.ScanOrdered(
                      pipeline, order, bounds,
                      [&runner](QueryWorkspace& ws, VertexId v,
                                std::uint32_t* out) {
                        EgoNetwork& ego = ws.DecomposeEgo(v);
                        ws.multi_scorer().Compute(ego, ws.trussness(),
                                                  runner.thresholds(), out);
                      })
                : runner.RunEgoScan(pipeline, reduced.truss.num_vertices());
  }

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
