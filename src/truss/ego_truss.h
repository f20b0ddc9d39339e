// Truss decomposition of ego-networks.
//
// Two interchangeable kernels:
//  * kHash   — classic adjacency-intersection support computation followed
//              by bucket peeling (what the query-time searchers use, and the
//              paper's TSD column of Table 4).
//  * kBitmap — the Section 6.2 optimization: per-vertex adjacency bitmaps;
//              support is AND-popcount; the peeling updates bitmaps as edges
//              are removed. Falls back to kHash automatically when the
//              bitmap footprint (|N(v)|² bits) would exceed a memory budget.
//              Every index build uses it: TsdIndex, GctIndex, and the
//              DynamicTsdIndex constructor and updates.
//
// Both return the per-edge trussness of the ego-network, parallel to
// EgoNetwork::edges, and are verified equivalent by property tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/bucket_queue.h"
#include "graph/ego_network.h"
#include "truss/support.h"

namespace tsd {

/// Largest bitmap matrix (bytes) an EgoTrussDecomposer keeps for reuse.
inline constexpr std::size_t kRetainedBitmapBytes = std::size_t{1} << 20;

enum class EgoTrussMethod {
  kHash,
  kBitmap,
  kAuto,  // bitmap when it fits the budget, hash otherwise
};

/// Stateful decomposer with reusable scratch buffers; create one per thread
/// and feed it ego-networks one at a time.
class EgoTrussDecomposer {
 public:
  /// `bitmap_budget_bytes` caps the transient bitmap matrix; above it,
  /// kAuto and kBitmap fall back to the hash kernel. The default budget and
  /// the kAuto density rule are shared with the global support stage
  /// (truss/support.h), so ego-level and global-level kernel selection stay
  /// in agreement.
  explicit EgoTrussDecomposer(
      EgoTrussMethod method = EgoTrussMethod::kAuto,
      std::size_t bitmap_budget_bytes = internal::kBitmapBudgetBytes);

  /// Computes the trussness of every ego edge. Builds the ego CSR if absent.
  std::vector<std::uint32_t> Compute(EgoNetwork& ego);

  /// Same, writing into the caller's buffer (resized to the edge count).
  /// Together with the internal support/queue scratch this makes repeated
  /// decompositions allocation-free in steady state — the QueryPipeline's
  /// per-vertex hot path.
  void ComputeInto(EgoNetwork& ego, std::vector<std::uint32_t>* trussness);

  EgoTrussMethod method() const { return method_; }

  /// Heap bytes the bitmap rows hold between calls: at most
  /// kRetainedBitmapBytes, because a call whose matrix is larger frees the
  /// rows when it ends. So a long-lived decomposer (the dynamic index's)
  /// does not keep a hub's matrix.
  std::size_t retained_bitmap_bytes() const;

 private:
  void ComputeHashInto(EgoNetwork& ego, std::vector<std::uint32_t>* trussness);
  void ComputeBitmapInto(EgoNetwork& ego,
                         std::vector<std::uint32_t>* trussness);

  EgoTrussMethod method_;
  std::size_t bitmap_budget_bytes_;
  std::vector<Bitmap> bitmaps_;          // reused across calls
  std::vector<std::uint32_t> support_;   // reused across calls
  BucketQueue queue_;                    // reused across calls
};

/// One-shot convenience wrapper.
std::vector<std::uint32_t> ComputeEgoTrussness(
    EgoNetwork& ego, EgoTrussMethod method = EgoTrussMethod::kAuto);

}  // namespace tsd
