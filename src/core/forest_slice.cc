#include "core/forest_slice.h"

#include <algorithm>

namespace tsd::forest {

std::uint32_t Score(const ForestSliceView& slice, std::uint32_t k,
                    IndexQueryScratch& scratch) {
  TSD_CHECK(k >= 2);
  // Count qualified edges and distinct endpoints; the forest property gives
  // score = |endpoints| - |edges|.
  scratch.ids.Begin(slice.universe);
  std::uint32_t edges = 0;
  for (std::size_t i = 0; i < slice.weight.size() && slice.weight[i] >= k;
       ++i) {
    ++edges;
    scratch.ids.Insert(slice.u[i]);
    scratch.ids.Insert(slice.v[i]);
  }
  return scratch.ids.size() - edges;
}

ScoreResult ScoreWithContexts(const ForestSliceView& slice, std::uint32_t k,
                              IndexQueryScratch& scratch) {
  TSD_CHECK(k >= 2);
  // Map touched global endpoints to dense local ids.
  scratch.ids.Begin(slice.universe);
  std::size_t qualified = 0;
  for (; qualified < slice.weight.size() && slice.weight[qualified] >= k;
       ++qualified) {
    scratch.ids.Insert(slice.u[qualified]);
    scratch.ids.Insert(slice.v[qualified]);
  }
  const std::vector<VertexId>& global = scratch.ids.keys();

  scratch.dsu.Reset(global.size());
  for (std::size_t i = 0; i < qualified; ++i) {
    scratch.dsu.Union(scratch.ids.Insert(slice.u[i]),
                      scratch.ids.Insert(slice.v[i]));
  }

  // Roots map to context slots through a dense root→slot vector in
  // first-occurrence order; members sorted per context and contexts ordered
  // by smallest member.
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  scratch.slots.assign(global.size(), kNoSlot);
  ScoreResult result;
  for (std::uint32_t i = 0; i < global.size(); ++i) {
    const std::uint32_t root = scratch.dsu.Find(i);
    if (scratch.slots[root] == kNoSlot) {
      scratch.slots[root] = static_cast<std::uint32_t>(result.contexts.size());
      result.contexts.emplace_back();
    }
    result.contexts[scratch.slots[root]].push_back(global[i]);
  }
  result.score = static_cast<std::uint32_t>(result.contexts.size());
  for (SocialContext& context : result.contexts) {
    std::sort(context.begin(), context.end());
  }
  std::sort(result.contexts.begin(), result.contexts.end(),
            [](const SocialContext& a, const SocialContext& b) {
              return a.front() < b.front();
            });
  return result;
}

void ScoresForThresholds(const ForestSliceView& slice,
                         std::span<const std::uint32_t> thresholds,
                         IndexQueryScratch& scratch, std::uint32_t* scores) {
  scratch.ids.Begin(slice.universe);
  std::size_t i = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    for (; i < slice.weight.size() && slice.weight[i] >= k; ++i) {
      scratch.ids.Insert(slice.u[i]);
      scratch.ids.Insert(slice.v[i]);
    }
    // i edges qualify at k.
    scores[t] = scratch.ids.size() - static_cast<std::uint32_t>(i);
  }
}

std::uint32_t ScoreUpperBound(const ForestSliceView& slice, std::uint32_t k) {
  TSD_DCHECK(k >= 2);
  const auto qualified = static_cast<std::uint32_t>(
      std::partition_point(slice.weight.begin(), slice.weight.end(),
                           [k](std::uint32_t w) { return w >= k; }) -
      slice.weight.begin());
  // A maximal connected k-truss contributes at least k-1 forest edges.
  return qualified / (k - 1);
}

}  // namespace tsd::forest
