#include "core/bound_search.h"

#include <algorithm>

#include "common/timer.h"
#include "core/batch_query.h"
#include "core/score_ranking.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "truss/k_truss.h"
#include "truss/parallel_truss.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

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
  const std::uint64_t min_context_edges =
      static_cast<std::uint64_t>(k) * (k - 1) / 2;
  const std::uint64_t by_vertices = degree / k;
  const std::uint64_t by_edges = m_v / min_context_edges;
  // The minimum is bounded by degree/k, so it always fits 32 bits; taking
  // it in 64 bits first is what keeps a >2^32 ego edge count from wrapping.
  return static_cast<std::uint32_t>(std::min(by_vertices, by_edges));
}

std::vector<std::uint32_t> BoundSearcher::UpperBounds(
    const Graph& graph, const std::vector<std::uint64_t>& ego_edge_counts,
    std::uint32_t k) {
  TSD_CHECK(k >= 2);
  std::vector<std::uint32_t> bounds(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    bounds[v] = UpperBound(graph.degree(v), ego_edge_counts[v], k);
  }
  return bounds;
}

TopRResult BoundSearcher::TopR(std::uint32_t r, std::uint32_t k,
                               QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  // The session's pipeline is cached against the full graph and rebound to
  // the per-query sparsified subgraph below, so workspace scratch survives
  // across queries.
  QueryPipeline& pipeline = session.PipelineFor(graph_, method_);
  PipelineRearm rearm(pipeline, graph_);

  // --- Preprocessing: sparsification + bounds (lines 1–4 of Algorithm 4).
  Graph reduced;
  std::vector<std::uint32_t> bounds;
  {
    ScopedTimer t(&result.stats.preprocess_seconds);
    // The global decomposition and m_v counts run on the same thread knobs
    // as the scan phases (the preprocess was the last serial fraction), and
    // under the session's truss plan. Only edges with τ_G(e) ≥ k+1 are
    // consumed here, so the plan may prune below that floor (CoreThenTruss
    // drops core-bounded edges before any triangle counting).
    const ParallelConfig config = ToParallelConfig(session.options());
    const TrussDecomposition truss(
        graph_, config, TrussPlan::FromAlgorithm(config.truss_plan, k + 1));
    result.stats.edges_pruned = truss.plan_stats().edges_pruned;
    // Property 1: only edges with τ_G(e) ≥ k+1 can contribute.
    reduced = KTrussSubgraph(graph_, truss.edge_trussness(), k + 1);
    pipeline.Rebind(reduced);
    const std::vector<std::uint64_t> ego_edges =
        TrianglesPerVertex(reduced, config);
    pipeline.MapScores(reduced.num_vertices(), &bounds,
                       [&](QueryWorkspace&, VertexId v) {
                         return UpperBound(reduced.degree(v), ego_edges[v], k);
                       });
  }

  // Candidates in non-increasing bound order (ties by ascending id for
  // determinism).
  const std::vector<VertexId> order = OrderByBoundDesc(bounds);

  TopRCollector collector(r);
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        order, bounds, &collector, [k](QueryWorkspace& ws, VertexId v) {
          EgoNetwork& ego = ws.DecomposeEgo(v);
          return ScoreFromEgoTrussness(ego, ws.trussness(), k,
                                       /*want_contexts=*/false)
              .score;
        });
  }

  // Materialize the winners' contexts on the reduced graph (identical to
  // the original graph's contexts by Property 1).
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [k](QueryWorkspace& ws, VertexId v) {
          EgoNetwork& ego = ws.DecomposeEgo(v);
          return ScoreFromEgoTrussness(ego, ws.trussness(), k,
                                       /*want_contexts=*/true)
              .contexts;
        });
  }

  // `rearm` rebinds the workspaces to the full graph on return (the
  // reduced graph dies here) — and on any exception unwind above.
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
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
  // valid for every batched threshold at once (KTrussSubgraph preserves the
  // vertex-id space, so the candidate range matches the per-query scans).
  const std::uint32_t k_min = runner.thresholds().back();
  Graph reduced;
  std::vector<std::uint32_t> bounds;
  std::vector<VertexId> order;
  // When every query's r is small, one shared bound order prunes most of
  // the per-candidate ego decompositions: the Lemma 2 bound min(d/k,
  // m_v/C(k,2)) is non-increasing in k, so evaluating it at the smallest
  // requested k upper-bounds every query's score and the ordered scan can
  // stop once every collector prunes. With large r nearly every candidate
  // gets scored anyway, so the m_v counting pass and the bound ordering
  // would not pay for themselves. Entries are bit-identical either way.
  const bool ordered = runner.total_r() * 64 <= graph_.num_vertices();
  {
    ScopedTimer t(&stats.preprocess_seconds);
    const ParallelConfig config = ToParallelConfig(session.options());
    const TrussDecomposition truss(
        graph_, config,
        TrussPlan::FromAlgorithm(config.truss_plan, k_min + 1));
    stats.edges_pruned = truss.plan_stats().edges_pruned;
    reduced = KTrussSubgraph(graph_, truss.edge_trussness(), k_min + 1);
    pipeline.Rebind(reduced);
    if (ordered) {
      const std::vector<std::uint64_t> ego_edges =
          TrianglesPerVertex(reduced, config);
      pipeline.MapScores(
          reduced.num_vertices(), &bounds, [&](QueryWorkspace&, VertexId v) {
            return UpperBound(reduced.degree(v), ego_edges[v], k_min);
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
                : runner.RunEgoScan(pipeline, reduced.num_vertices());
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
