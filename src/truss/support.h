// The support stage of the global truss peels: edge supports (triangles
// per edge) counted by the marking triangle kernel of graph/triangle.h, or
// by a bitmap kernel (per-vertex adjacency bitmaps + AND-popcount, reusing
// common/bitmap.h) when the graph is dense enough. The choice follows the
// input's size and density, not a user knob. The ego decomposer
// (ego_truss.h) shares the budget and the density rule, with its own floor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {
namespace internal {

/// Scratch budget for the bitmap kernels: n adjacency bitmaps of n bits.
/// Shared with the ego decomposer's default (ego_truss.h).
inline constexpr std::size_t kBitmapBudgetBytes = std::size_t{64} << 20;

/// Density floors for the bitmap kernels, as m ≥ n² >> shift. The ego
/// decomposer's empirical split (m ≥ l²/1024) also credits the bitmap
/// *peeling* phase, which it runs; the global kernel only computes support
/// via AND-popcount — a per-edge cost of ~n/32 words against the marking
/// walk's forward-list lengths — so it demands a much denser graph before
/// the bitmaps win. On G(n, p) at 1 thread the two cross near n²/28.
inline constexpr unsigned kEgoBitmapDensityShift = 10;     // m ≥ l²/1024
inline constexpr unsigned kGlobalBitmapDensityShift = 5;   // m ≥ n²/32

/// True when n adjacency bitmaps of n bits fit the budget and the graph is
/// dense enough (m ≥ n² >> density_shift) that AND-popcount support beats
/// intersecting adjacency lists. One predicate shared by the ego
/// decomposer's kAuto rule and PeelSupport, with their respective density
/// floors above.
inline bool BitmapSupportEligible(std::uint64_t n, std::uint64_t m,
                                  std::size_t budget_bytes,
                                  unsigned density_shift) {
  if (n < 3 || m == 0) return false;
  const bool fits = n * n / 8 <= budget_bytes;
  const bool dense_enough = m >= (n * n) >> density_shift;
  return fits && dense_enough;
}

/// Edge supports via per-vertex adjacency bitmaps + AND-popcount. Equals
/// ComputeSupport(graph) bit-for-bit; only sensible when
/// BitmapSupportEligible holds.
std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config);

/// The support stage every global peel starts from: SupportViaBitmaps
/// when BitmapSupportEligible holds at the global density floor, the
/// marking triangle kernel (ComputeSupport) otherwise. Sets `*bitmap_kernel`
/// to the kernel that ran.
std::vector<std::uint32_t> PeelSupport(const Graph& graph,
                                       const ParallelConfig& config,
                                       bool* bitmap_kernel);

}  // namespace internal
}  // namespace tsd
