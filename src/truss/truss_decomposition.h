// Global truss decomposition (Algorithm 1 of the paper; Wang–Cheng).
//
// Computes the trussness τ_G(e) of every edge: the largest k such that e
// belongs to the k-truss of G. The k-truss of G for any k is then the set of
// edges with trussness ≥ k. Also derives vertex trussness (the max over
// incident edges), used by graph sparsification and GCT supernode
// initialization.
//
// Construction accepts a ParallelConfig and routes through the TrussPlan
// subsystem (truss/truss_plan.h): config.truss_plan picks the kernel (Bsp,
// CoreThenTruss, or the statistics-driven auto-tuner) and
// config.num_threads its parallelism. Trussness is unique, so every plan is
// bit-identical to the sequential decomposition at any thread count. A
// caller that only consumes trussness ≥ t may pass an explicit plan with
// min_trussness = t; the derived state (vertex trussness, histogram) then
// reflects the degraded sub-threshold values — see the min_trussness
// contract in truss_plan.h. No library searcher passes such a floor any
// more (a caller that needs one k-truss runs KTrussPeel, truss/k_truss.h).
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "truss/truss_plan.h"

namespace tsd {

class TrussDecomposition {
 public:
  /// Runs support computation + peeling on construction. O(ρ·m) time.
  explicit TrussDecomposition(const Graph& graph)
      : TrussDecomposition(graph, ParallelConfig{}) {}

  /// Same decomposition on `config.num_threads` workers (bit-identical),
  /// under the kernel selected by config.truss_plan with the full-exactness
  /// floor min_trussness = 2.
  TrussDecomposition(const Graph& graph, const ParallelConfig& config)
      : TrussDecomposition(graph, config,
                           TrussPlan::FromAlgorithm(config.truss_plan)) {}

  /// Explicit-plan constructor; the only way to run with a consumption
  /// floor above 2.
  TrussDecomposition(const Graph& graph, const ParallelConfig& config,
                     const TrussPlan& plan);

  /// Trussness of edge e (≥ 2 for every edge).
  std::uint32_t trussness(EdgeId e) const { return edge_trussness_[e]; }

  const std::vector<std::uint32_t>& edge_trussness() const {
    return edge_trussness_;
  }

  /// Vertex trussness: max trussness over incident edges (0 if isolated).
  std::uint32_t vertex_trussness(VertexId v) const {
    return vertex_trussness_[v];
  }

  /// Maximum edge trussness τ*_G (0 on an edgeless graph).
  std::uint32_t max_trussness() const { return max_trussness_; }

  /// histogram[k] = number of edges with trussness exactly k (Figure 3).
  std::vector<std::uint64_t> TrussnessHistogram() const;

  /// How the plan executed: resolved algorithm, bitmap-kernel use, edges
  /// pruned by the core prefilter, and the auto-tuner's input statistics.
  const TrussPlanStats& plan_stats() const { return plan_stats_; }

 private:
  std::vector<std::uint32_t> edge_trussness_;
  std::vector<std::uint32_t> vertex_trussness_;
  std::uint32_t max_trussness_ = 0;
  TrussPlanStats plan_stats_;
};

}  // namespace tsd
