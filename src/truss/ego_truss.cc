#include "truss/ego_truss.h"

#include <algorithm>

#include "common/check.h"
#include "truss/peeling.h"

namespace tsd {

EgoTrussDecomposer::EgoTrussDecomposer(EgoTrussMethod method,
                                       std::size_t bitmap_budget_bytes)
    : method_(method), bitmap_budget_bytes_(bitmap_budget_bytes) {}

std::vector<std::uint32_t> EgoTrussDecomposer::Compute(EgoNetwork& ego) {
  std::vector<std::uint32_t> trussness;
  ComputeInto(ego, &trussness);
  return trussness;
}

void EgoTrussDecomposer::ComputeInto(EgoNetwork& ego,
                                     std::vector<std::uint32_t>* trussness) {
  if (ego.offsets.empty()) ego.BuildCsr();
  const std::uint64_t l = ego.num_members();
  const bool bitmap_fits = l * l / 8 <= bitmap_budget_bytes_;
  switch (method_) {
    case EgoTrussMethod::kHash:
      return ComputeHashInto(ego, trussness);
    case EgoTrussMethod::kBitmap:
      return bitmap_fits ? ComputeBitmapInto(ego, trussness)
                         : ComputeHashInto(ego, trussness);
    case EgoTrussMethod::kAuto:
      // Same density rule as the global support stage's bitmap kernel
      // (truss/support.h): the bitmap kernel pays O(l²/64) for zeroing and
      // per-edge AND scans, so it only beats merge intersection on
      // sufficiently dense ego-networks.
      return internal::BitmapSupportEligible(l, ego.num_edges(),
                                             bitmap_budget_bytes_,
                                             internal::kEgoBitmapDensityShift)
                 ? ComputeBitmapInto(ego, trussness)
                 : ComputeHashInto(ego, trussness);
  }
  TSD_CHECK(false);
  __builtin_unreachable();
}

void EgoTrussDecomposer::ComputeHashInto(
    EgoNetwork& ego, std::vector<std::uint32_t>* trussness) {
  const std::uint32_t m = ego.num_edges();
  // Support via sorted-adjacency intersection per edge.
  support_.assign(m, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, w] = ego.edges[e];
    const auto nu = ego.LocalNeighbors(u);
    const auto nw = ego.LocalNeighbors(w);
    std::uint32_t count = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < nu.size() && j < nw.size()) {
      if (nu[i] < nw[j]) {
        ++i;
      } else if (nu[i] > nw[j]) {
        ++j;
      } else {
        ++count;
        ++i;
        ++j;
      }
    }
    support_[e] = count;
  }

  CsrView<std::uint32_t> view;
  view.num_vertices = ego.num_members();
  view.offsets = ego.offsets;
  view.adj = ego.adj;
  view.adj_edge_ids = ego.adj_edge_ids;
  view.edges = ego.edges;
  PeelSupportToTrussnessInto(view, support_, queue_, trussness);
}

void EgoTrussDecomposer::ComputeBitmapInto(
    EgoNetwork& ego, std::vector<std::uint32_t>* trussness) {
  const std::uint32_t l = ego.num_members();
  const std::uint32_t m = ego.num_edges();
  trussness->assign(m, 2);
  if (m == 0) return;

  // Adjacency bitmaps (Algorithm 7, lines 7–11).
  if (bitmaps_.size() < l) bitmaps_.resize(l);
  for (std::uint32_t i = 0; i < l; ++i) bitmaps_[i].Resize(l);
  for (const Edge& e : ego.edges) {
    bitmaps_[e.u].Set(e.v);
    bitmaps_[e.v].Set(e.u);
  }

  // Support via AND-popcount (Algorithm 7, lines 12–13).
  support_.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    support_[e] = static_cast<std::uint32_t>(
        bitmaps_[ego.edges[e].u].AndPopcount(bitmaps_[ego.edges[e].v]));
  }

  // Bitmap-based peeling (Algorithm 7, line 14): on removal of (x, y) the
  // live common neighbors are exactly the set bits of Bits_x AND Bits_y.
  queue_.Init(support_);
  std::uint32_t level = 0;
  auto local_edge_id = [&](std::uint32_t a, std::uint32_t b) -> EdgeId {
    const auto begin = ego.adj.begin() + ego.offsets[a];
    const auto end = ego.adj.begin() + ego.offsets[a + 1];
    const auto it = std::lower_bound(begin, end, b);
    TSD_DCHECK(it != end && *it == b);
    return ego.adj_edge_ids[static_cast<std::size_t>(it - ego.adj.begin())];
  };
  while (!queue_.Empty()) {
    const EdgeId e = queue_.PopMin();
    level = std::max(level, queue_.Key(e));
    (*trussness)[e] = level + 2;
    const auto [x, y] = ego.edges[e];
    bitmaps_[x].ForEachCommonBit(bitmaps_[y], [&](std::size_t z) {
      queue_.DecreaseKeyClamped(
          local_edge_id(x, static_cast<std::uint32_t>(z)), level);
      queue_.DecreaseKeyClamped(
          local_edge_id(y, static_cast<std::uint32_t>(z)), level);
    });
    bitmaps_[x].Clear(y);
    bitmaps_[y].Clear(x);
  }
  // Rows are only ever grown, to the largest matrix since the last free, so
  // freeing every matrix above the cap keeps the rows within it.
  const std::uint64_t matrix_bytes =
      std::uint64_t{l} * ((l + 63) / 64) * sizeof(std::uint64_t);
  if (matrix_bytes > kRetainedBitmapBytes) bitmaps_ = {};
}

std::size_t EgoTrussDecomposer::retained_bitmap_bytes() const {
  std::size_t bytes = 0;
  for (const Bitmap& row : bitmaps_) bytes += row.MemoryBytes();
  return bytes;
}

std::vector<std::uint32_t> ComputeEgoTrussness(EgoNetwork& ego,
                                               EgoTrussMethod method) {
  EgoTrussDecomposer decomposer(method);
  return decomposer.Compute(ego);
}

}  // namespace tsd
