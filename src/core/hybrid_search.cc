#include "core/hybrid_search.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/query_pipeline.h"
#include "core/scoring.h"

namespace tsd {

HybridSearcher::HybridSearcher(const Graph& graph, const GctIndex& index,
                               std::uint32_t num_threads)
    : graph_(graph) {
  TSD_CHECK(num_threads >= 1);
  const VertexId n = index.num_vertices();
  top_tau_.resize(n);
  for (VertexId v = 0; v < n; ++v) top_tau_[v] = index.TopTrussness(v);

  // rankings_[k - 2] for every k in [2, max_k]. Each threshold is an
  // independent scoring pass, so workers split the thresholds and the
  // rankings are bit-identical at any thread count.
  const std::uint32_t max_k = std::max(2U, index.max_trussness());
  const std::uint32_t num_k = max_k - 1;
  rankings_.resize(num_k);
  ParallelForChunks(
      num_k, EffectiveChunks(ParallelConfig{num_threads, 0}, num_k),
      num_threads, [&](std::uint32_t, std::uint64_t begin, std::uint64_t end) {
        std::vector<std::uint32_t> scores(n);
        for (std::uint64_t i = begin; i < end; ++i) {
          const auto k = static_cast<std::uint32_t>(i + 2);
          for (VertexId v = 0; v < n; ++v) scores[v] = index.Score(v, k);
          rankings_[i] = RankPositiveScores(scores);
        }
      });
}

ScoreRanking HybridSearcher::Answers(std::uint32_t r, std::uint32_t k) const {
  const ScoreRanking none;
  return RankedAnswers(k - 2 < rankings_.size() ? rankings_[k - 2] : none, r,
                       graph_.num_vertices(),
                       [this, k](VertexId v) { return top_tau_[v] >= k; });
}

TopRResult HybridSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  const ScoreRanking answers = Answers(r, k);

  // The dominant cost: online social-context computation (Algorithm 2) for
  // each answer vertex — the paper's motivation for GCT. Winners are
  // independent, so this phase parallelizes across them.
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);
  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        answers, &result.entries, [k](QueryWorkspace& ws, VertexId v) {
          EgoNetwork& ego = ws.DecomposeEgo(v);
          return ScoreFromEgoTrussness(ego, ws.trussness(), k,
                                       /*want_contexts=*/true)
              .contexts;
        });
    result.stats.vertices_scored = answers.size();
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> HybridSearcher::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline =
      session.PipelineFor(graph_, EgoTrussMethod::kHash);

  // No scan at all: feed each query's precomputed answers to its collector
  // (they are already the unique top-r under the total order), then let the
  // grouped context phase decompose each distinct winner once.
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const auto& [v, score] : Answers(queries[q].r, queries[q].k)) {
      runner.collector(q).Offer(v, score);
      ++stats.vertices_scored;
    }
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

std::size_t HybridSearcher::SizeBytes() const {
  std::size_t bytes = top_tau_.size() * sizeof(top_tau_[0]);
  for (const ScoreRanking& ranking : rankings_) {
    bytes += ranking.size() * sizeof(ranking[0]);
  }
  return bytes;
}

}  // namespace tsd
