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

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
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

namespace internal {

/// Edge lifecycle inside a frontier peel.
enum EdgeState : std::uint8_t {
  kAlive = 0,     // still in the graph
  kFrontier = 1,  // being removed in the current sub-round
  kRemoved = 2,   // already peeled
};

/// The triangle walk of one frontier sub-round, shared by the trussness
/// peel above and the single-threshold k-truss peel (truss/k_truss.h).
/// Scatter() walks every frontier edge's surviving triangles and records
/// one lost triangle on each alive edge of it; Drain() hands each alive
/// edge its total loss. Atomic adds commute, so the totals are the same
/// for every worker interleaving.
class FrontierScatter {
 public:
  FrontierScatter(EdgeId num_edges, std::uint32_t num_threads);

  /// `frontier` lists the edges whose state is kFrontier; `state` is
  /// read-only for the whole call. A triangle with several frontier edges
  /// is settled by the smallest edge id among them, mirroring the single
  /// pop that peels it in the sequential bucket-queue discipline, so every
  /// destroyed triangle is counted exactly once per surviving edge.
  void Scatter(const Graph& graph, std::span<const EdgeId> frontier,
               std::span<const std::uint8_t> state,
               const ParallelConfig& config);

  /// Calls fn(e, lost) once for every alive edge that lost lost > 0
  /// triangles in the last Scatter, and clears the losses.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (std::vector<EdgeId>& touched : touched_) {
      // An edge touched twice is drained on its first entry: that zeroes
      // its loss, so the duplicate reads 0 and is skipped.
      for (const EdgeId e : touched) {
        const std::uint32_t lost = lost_[e].load(std::memory_order_relaxed);
        if (lost == 0) continue;
        lost_[e].store(0, std::memory_order_relaxed);
        fn(e, lost);
      }
      touched.clear();
    }
  }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> lost_;
  std::vector<std::vector<EdgeId>> touched_;  // per worker
};

}  // namespace internal
}  // namespace tsd
