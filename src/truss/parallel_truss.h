// Parallel truss decomposition (frontier-parallel support peeling).
//
// The global preprocess (support computation + support peeling) was the last
// sequential stage of the library once queries and index builds went
// parallel. The triangle-counting half lives in graph/triangle.h (it depends
// only on graph/ + common/); this header owns the peeling half, following
// the standard parallel k-truss recipe (Burkhardt, "Bounds and algorithms
// for graph trusses"; the level-synchronous peelers shipped in Katana-style
// graph engines):
//
//  * Trussness is solved frontier-by-frontier: every edge whose support has
//    reached the current peeling level is removed in one parallel sub-round,
//    and the supports of the surviving triangle partners are decremented
//    (clamped at the level) via atomic accumulators. Edge trussness is the
//    unique fixed point of Wang–Cheng peeling, so the result is
//    bit-identical to PeelSupportToTrussness at any thread count — which is
//    what tests/parallel_truss_test.cc asserts.
//
// With config.num_threads == 1 TrussnessFromSupport routes to the sequential
// bucket-queue peel, so the single-thread path stays byte-for-byte the
// audited one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "graph/triangle.h"

namespace tsd {

/// Solves edge trussness from initial supports by frontier-parallel peeling.
/// `support` is consumed as scratch. The result is bit-identical to
/// PeelSupportToTrussness(view-of-graph, support) — trussness is unique —
/// for every graph and thread count.
std::vector<std::uint32_t> TrussnessFromSupport(const Graph& graph,
                                                std::vector<std::uint32_t> support,
                                                const ParallelConfig& config);

}  // namespace tsd
