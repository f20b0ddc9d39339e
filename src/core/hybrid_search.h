// Hybrid search — the Exp-4 competitor.
//
// Hybrid precomputes the complete structural-diversity ranking for every
// possible k (so any top-r query can read its answer vertices directly) but
// stores no ego-network structure: the winners' social contexts are
// recomputed online with Algorithm 2. Competitive with GCT at r = 1; loses
// for larger r because the per-winner online context computation dominates.
//
// Construction builds every k's ranking eagerly with the same kernel the
// GCT-index uses to build its rankings lazily (core/score_ranking.h); the
// thresholds are independent, so the build parallelizes over them with
// deterministic (bit-identical) rankings.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gct_index.h"
#include "core/query_session.h"
#include "core/score_ranking.h"
#include "core/types.h"
#include "graph/graph.h"

namespace tsd {

/// Immutable after construction (the all-k rankings are precomputed in the
/// constructor); all query scratch lives in the session.
class HybridSearcher : public DiversitySearcher {
 public:
  /// Precomputes rankings for all k in [2, max ego trussness] from a
  /// (temporary or shared) GCT index, using `num_threads` workers
  /// (rankings are bit-identical at any count).
  HybridSearcher(const Graph& graph, const GctIndex& index,
                 std::uint32_t num_threads = 1);

  using DiversitySearcher::SearchBatch;

  /// Answers come straight from the precomputed rankings; the context
  /// phase — the dominant cost, an online Algorithm 2 per winner —
  /// ego-decomposes each distinct winner once, in parallel across winners.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "Hybrid"; }

  /// Bytes used by the precomputed rankings and top-trussness array.
  std::size_t SizeBytes() const;

 private:
  /// The (vertex, score) answers of one query, zero-score padded in id
  /// order to min(r, |V|) entries (the library-wide total order).
  ScoreRanking Answers(std::uint32_t r, std::uint32_t k) const;

  const Graph& graph_;
  // rankings_[k - 2]: all vertices with positive score at threshold k,
  // sorted by (score desc, id asc), with their scores.
  std::vector<ScoreRanking> rankings_;
  // top_tau_[v]: v's largest supernode trussness, so v has a positive
  // score at k exactly when top_tau_[v] >= k.
  std::vector<std::uint32_t> top_tau_;
};

}  // namespace tsd
