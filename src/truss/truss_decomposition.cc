#include "truss/truss_decomposition.h"

#include <algorithm>

#include "truss/parallel_truss.h"
#include "truss/support.h"

namespace tsd {

TrussDecomposition::TrussDecomposition(const Graph& graph,
                                       const ParallelConfig& config) {
  edge_trussness_ = TrussnessFromSupport(
      graph, internal::PeelSupport(graph, config, &bitmap_kernel_), config);

  vertex_trussness_.assign(graph.num_vertices(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    vertex_trussness_[edge.u] =
        std::max(vertex_trussness_[edge.u], edge_trussness_[e]);
    vertex_trussness_[edge.v] =
        std::max(vertex_trussness_[edge.v], edge_trussness_[e]);
    max_trussness_ = std::max(max_trussness_, edge_trussness_[e]);
  }
}

std::vector<std::uint64_t> TrussDecomposition::TrussnessHistogram() const {
  std::vector<std::uint64_t> histogram(max_trussness_ + 1, 0);
  for (std::uint32_t t : edge_trussness_) ++histogram[t];
  return histogram;
}

}  // namespace tsd
