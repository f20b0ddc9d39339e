#include "core/forest_slice.h"

#include <algorithm>

namespace tsd {

void ForestColumns::Append(const ForestSliceView& slice) {
  u.insert(u.end(), slice.u.begin(), slice.u.end());
  v.insert(v.end(), slice.v.begin(), slice.v.end());
  weight.insert(weight.end(), slice.weight.begin(), slice.weight.end());
  level.insert(level.end(), slice.level.begin(), slice.level.end());
  level_score.insert(level_score.end(), slice.level_score.begin(),
                     slice.level_score.end());
  num_edges.push_back(static_cast<std::uint32_t>(slice.weight.size()));
  num_levels.push_back(static_cast<std::uint32_t>(slice.level.size()));
}

void ForestColumns::Clear() {
  for (std::vector<std::uint32_t>* column :
       {&u, &v, &weight, &level, &level_score, &num_edges, &num_levels}) {
    column->clear();
  }
}

template <typename Adjacency>
LocalForest ForestSliceBuilder<Adjacency>::Build(VertexId v) {
  WallTimer lap;
  if (listing_ != nullptr) {
    listing_->MaterializeInto(v, &ego_, &listing_scratch_);
  } else {
    extractor_.ExtractInto(v, &ego_);
  }
  stats_.extraction_seconds += lap.Lap();
  decomposer_.ComputeInto(ego_, &trussness_);
  stats_.decomposition_seconds += lap.Lap();
  // Kruskal over the ego edges by weight descending: a stable counting sort
  // keeps ties in edge-id order, so the forest is deterministic.
  const std::uint32_t max_weight =
      trussness_.empty() ? 0
                         : *std::max_element(trussness_.begin(),
                                             trussness_.end());
  bucket_.assign(std::size_t{max_weight} + 1, 0);
  for (std::uint32_t w : trussness_) ++bucket_[w];
  std::uint32_t cursor = 0;
  for (std::uint32_t w = max_weight + 1; w-- > 0;) {
    const std::uint32_t count = bucket_[w];
    bucket_[w] = cursor;
    cursor += count;
  }
  by_weight_.resize(trussness_.size());
  for (EdgeId e = 0; e < trussness_.size(); ++e) {
    by_weight_[bucket_[trussness_[e]]++] = e;
  }
  forest_a_.clear();
  forest_b_.clear();
  forest_weight_.clear();
  dsu_.Reset(ego_.num_members());
  for (EdgeId e : by_weight_) {
    const auto [a, b] = ego_.edges[e];
    if (dsu_.Union(a, b)) {
      forest_a_.push_back(a);
      forest_b_.push_back(b);
      forest_weight_.push_back(trussness_[e]);
    }
  }
  stats_.assembly_seconds += lap.Lap();
  return {ego_.members, forest_a_, forest_b_, forest_weight_};
}

template <typename Adjacency>
void ForestSliceBuilder<Adjacency>::Append(VertexId v, ForestColumns* out) {
  const LocalForest forest = Build(v);
  ScopedTimer t(&stats_.assembly_seconds);
  for (std::size_t i = 0; i < forest.weight.size(); ++i) {
    out->u.push_back(forest.members[forest.a[i]]);
    out->v.push_back(forest.members[forest.b[i]]);
  }
  out->weight.insert(out->weight.end(), forest.weight.begin(),
                     forest.weight.end());
  // The profile counts distinct endpoints, so local ids give the same one.
  const std::size_t first_level = out->level.size();
  forest::AppendScoreProfile(
      static_cast<VertexId>(forest.members.size()), forest.a, forest.b,
      forest.weight, ids_, &out->level, &out->level_score);
  out->num_edges.push_back(static_cast<std::uint32_t>(forest.weight.size()));
  out->num_levels.push_back(
      static_cast<std::uint32_t>(out->level.size() - first_level));
}

template class ForestSliceBuilder<Graph>;
template class ForestSliceBuilder<DynamicGraph>;

namespace forest {

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

}  // namespace forest
}  // namespace tsd
