#include "core/score_ranking.h"

#include <algorithm>
#include <numeric>

namespace tsd {
namespace {

/// Stable sort of `items` by `key(item)` descending: items with equal keys
/// keep their relative order. A counting sort in O(size + max key); keys
/// far larger than the item count fall back to std::stable_sort, so the
/// count array never outgrows the input.
template <typename T, typename KeyFn>
void StableSortByKeyDesc(std::vector<T>* items, KeyFn&& key) {
  if (items->size() < 2) return;
  std::uint32_t max_key = 0;
  for (const T& item : *items) max_key = std::max(max_key, key(item));
  if (max_key > items->size()) {
    std::stable_sort(items->begin(), items->end(),
                     [&](const T& a, const T& b) { return key(a) > key(b); });
    return;
  }
  // next[key] starts as the first output slot of that key: keys descend,
  // so the largest key's items come first.
  std::vector<std::size_t> next(std::size_t{max_key} + 1, 0);
  for (const T& item : *items) ++next[key(item)];
  std::size_t cursor = 0;
  for (std::size_t key_value = next.size(); key_value-- > 0;) {
    const std::size_t count = next[key_value];
    next[key_value] = cursor;
    cursor += count;
  }
  std::vector<T> sorted(items->size());
  for (const T& item : *items) sorted[next[key(item)]++] = item;
  items->swap(sorted);
}

}  // namespace

std::vector<VertexId> OrderByBoundDesc(std::span<const std::uint32_t> bounds) {
  std::vector<VertexId> order(bounds.size());
  std::iota(order.begin(), order.end(), VertexId{0});
  StableSortByKeyDesc(&order, [bounds](VertexId v) { return bounds[v]; });
  return order;
}

ScoreRanking RankPositiveScores(std::span<const std::uint32_t> scores) {
  ScoreRanking ranking;
  for (VertexId v = 0; v < scores.size(); ++v) {
    if (scores[v] > 0) ranking.emplace_back(v, scores[v]);
  }
  // Collected in ascending id order, so the stable sort breaks score ties
  // by ascending id.
  StableSortByKeyDesc(&ranking, [](const std::pair<VertexId, std::uint32_t>&
                                       entry) { return entry.second; });
  return ranking;
}

}  // namespace tsd
