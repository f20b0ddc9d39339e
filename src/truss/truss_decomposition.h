// Global truss decomposition (Algorithm 1 of the paper; Wang–Cheng).
//
// Computes the trussness τ_G(e) of every edge: the largest k such that e
// belongs to the k-truss of G. The k-truss of G for any k is then the set of
// edges with trussness ≥ k. Also derives vertex trussness (the max over
// incident edges), used by graph sparsification and GCT supernode
// initialization.
//
// One path: the support stage (truss/support.h), then the frontier-parallel
// peel of truss/parallel_truss.h on config.num_threads workers. Trussness
// is unique, so the result is bit-identical to the sequential decomposition
// at any thread count. A caller that needs only one k-truss runs KTrussPeel
// (truss/k_truss.h) instead.
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

  /// Same decomposition on `config.num_threads` workers (bit-identical).
  TrussDecomposition(const Graph& graph, const ParallelConfig& config);

  /// Compatibility shim: delete in the next benchmark PR (ROADMAP item 1).
  /// Ignores the plan and its floor.
  TrussDecomposition(const Graph& graph, const ParallelConfig& config,
                     const TrussPlan& /*plan*/)
      : TrussDecomposition(graph, config) {}

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

  /// Whether supports were counted with the bitmap kernel (truss/support.h)
  /// rather than the marking triangle kernel.
  bool bitmap_kernel() const { return bitmap_kernel_; }

  /// Compatibility shim: delete in the next benchmark PR (ROADMAP item 1).
  TrussPlanStats plan_stats() const { return {}; }

 private:
  std::vector<std::uint32_t> edge_trussness_;
  std::vector<std::uint32_t> vertex_trussness_;
  std::uint32_t max_trussness_ = 0;
  bool bitmap_kernel_ = false;
};

}  // namespace tsd
