// k-core decomposition (Batagelj–Zaveršnik bin-sort peeling).
//
// Substrate for the Core-Div baseline [20] (core/scoring.cc): the core
// number of a vertex is the largest k such that it belongs to a subgraph of
// minimum degree k.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace tsd {

/// Core numbers of a CSR graph over ids [0, num_vertices) (used on local
/// ego-networks). O(n + m).
std::vector<std::uint32_t> CoreNumbersCsr(std::size_t num_vertices,
                                          std::span<const std::uint32_t> offsets,
                                          std::span<const VertexId> adj);

}  // namespace tsd
