// Bound-pruned top-r search — Algorithm 4 of the paper ("bound").
//
// Two pruning techniques on top of the online search:
//  1. Graph sparsification (Property 1): an edge can appear in a k-truss of
//     some ego-network only if its *global* trussness is at least k+1, so
//     all edges with τ_G(e) ≤ k are deleted up front, along with the
//     vertices this isolates.
//  2. Upper bound score̅(v) = min(⌊d(v)/k⌋, ⌊2·m_v/(k(k-1))⌋) (Lemma 2):
//     candidates are visited in non-increasing bound order; once the answer
//     set is full and the next bound is below the r-th best score, the
//     search terminates early.
//
// Preprocessing computes no trussness. Property 1 needs only membership in
// the (k+1)-truss, so KTrussPeel (truss/k_truss.h) peels that one truss
// directly: bulk support recounts while many edges fall below k−1, then a
// frontier-parallel peel at that single threshold. The peel leaves every
// surviving edge's exact support in the truss, and m_v — the ego edge
// count of Lemma 2, i.e. v's triangles in the truss — is Σ_{e∋v} sup(e) / 2,
// so no second triangle count runs. The peel runs on the session's thread
// knobs and is identical at any thread count (the (k+1)-truss is unique).
// The session's truss plan (--plan) does not affect this searcher.
//
// The bound-computation, exact-verification, and context phases all run on
// the shared QueryPipeline; with num_threads > 1 the early termination
// happens at round granularity (rankings unchanged, see query_pipeline.h),
// and a batch whose r values are large scans the reduced range unordered.
#pragma once

#include <cstdint>

#include "core/query_session.h"
#include "core/types.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Immutable after construction; the per-query sparsified subgraph and the
/// pipeline workspaces it rebinds live entirely in the session / call frame.
class BoundSearcher : public DiversitySearcher {
 public:
  explicit BoundSearcher(const Graph& graph,
                         EgoTrussMethod method = EgoTrussMethod::kHash)
      : graph_(graph), method_(method) {}

  using DiversitySearcher::SearchBatch;

  /// One (k+1)-truss peel at the smallest requested k serves every query
  /// (Property 1 holds per k on that subgraph since its edge set contains
  /// every edge with τ_G(e) ≥ k+1 for all batched k), then one ego
  /// decomposition per visited vertex scores all thresholds. Sequential
  /// sessions and small batches visit candidates in Lemma 2 bound order
  /// and stop early (Algorithm 4); parallel sessions with large batches
  /// scan the whole reduced range. Entries are the same either way.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "bound"; }

  /// The Lemma 2 upper bound of one vertex with degree `degree` and `m_v`
  /// ego edges. `m_v` is 64-bit (a dense hub's ego edge count overflows 32
  /// bits) and the division happens before any narrowing, so the bound
  /// never wraps. Requires k ≥ 2 (checked).
  static std::uint32_t UpperBound(std::uint32_t degree, std::uint64_t m_v,
                                  std::uint32_t k);

 private:
  const Graph& graph_;
  const EgoTrussMethod method_;
};

}  // namespace tsd
