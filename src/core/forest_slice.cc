#include "core/forest_slice.h"

#include <algorithm>

namespace tsd::forest {

void AppendScoreProfile(VertexId universe, std::span<const VertexId> u,
                        std::span<const VertexId> v,
                        std::span<const std::uint32_t> weight, DenseIdMap& ids,
                        std::vector<std::uint32_t>* level,
                        std::vector<std::uint32_t>* level_score) {
  // Count distinct endpoints level by level; the forest property gives
  // score = |endpoints| - |edges| for every weight-≥k prefix.
  ids.Begin(universe);
  for (std::size_t i = 0; i < weight.size();) {
    const std::uint32_t w = weight[i];
    TSD_DCHECK(i == 0 || weight[i - 1] > w);
    for (; i < weight.size() && weight[i] == w; ++i) {
      ids.Insert(u[i]);
      ids.Insert(v[i]);
    }
    level->push_back(w);
    level_score->push_back(ids.size() - static_cast<std::uint32_t>(i));
  }
}

ScoreCeiling Ceiling(const ForestSliceView& slice) {
  if (slice.level.empty()) return {};
  return {slice.level.front(), *std::max_element(slice.level_score.begin(),
                                                 slice.level_score.end())};
}

std::uint32_t Score(const ForestSliceView& slice, std::uint32_t k) {
  TSD_CHECK(k >= 2);
  std::uint32_t score = 0;
  for (std::size_t i = 0; i < slice.level.size() && slice.level[i] >= k;
       ++i) {
    score = slice.level_score[i];
  }
  return score;
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
                         std::uint32_t* scores) {
  std::size_t i = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    while (i < slice.level.size() && slice.level[i] >= k) ++i;
    // Levels [0, i) qualify at k.
    scores[t] = i == 0 ? 0 : slice.level_score[i - 1];
  }
}

}  // namespace tsd::forest
