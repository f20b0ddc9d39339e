// Score orders shared by the searchers: the bound order every pruned scan
// visits, and the per-threshold positive-score rankings that the GCT and
// Hybrid searchers answer top-r queries from.
//
// Both orders are the library-wide total order (value desc, id asc). Bounds
// and scores are small integers (at most a vertex degree), so one stable
// counting sort produces either order in O(n + max value) instead of the
// O(n log n) of a comparison sort.
//
// A ranking at threshold k depends only on (index, k). RankingMemo keeps
// one per k for an immutable index, built on the first query at that k and
// then read lock-free by every session.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/types.h"

namespace tsd {

/// Vertex ids ordered by `bounds[v]` descending, ties by ascending id: the
/// visiting order of every bound-pruned scan (Algorithm 4). A stable
/// counting sort, O(n + max bound).
std::vector<VertexId> OrderByBoundDesc(std::span<const std::uint32_t> bounds);

/// The vertices with positive score at one threshold, with their scores,
/// in (score desc, id asc) order.
using ScoreRanking = std::vector<std::pair<VertexId, std::uint32_t>>;

/// Ranks the positive entries of a dense per-vertex score array.
ScoreRanking RankPositiveScores(std::span<const std::uint32_t> scores);

/// The top-r answers at one threshold among `num_vertices` vertices: the
/// first min(r, |ranking|) entries of `ranking`, then — if r is larger —
/// zero-score vertices in ascending id order until min(r, num_vertices)
/// answers. `has_score(v)` must be true exactly for the vertices in
/// `ranking`; the padding skips them. This is the order TopRCollector
/// produces over all vertices.
template <typename HasScoreFn>
ScoreRanking RankedAnswers(const ScoreRanking& ranking, std::uint32_t r,
                           VertexId num_vertices, HasScoreFn&& has_score) {
  const std::size_t want = std::min<std::size_t>(r, num_vertices);
  ScoreRanking answers(ranking.begin(),
                       ranking.begin() + std::min(want, ranking.size()));
  for (VertexId v = 0; v < num_vertices && answers.size() < want; ++v) {
    if (!has_score(v)) answers.emplace_back(v, 0);
  }
  return answers;
}

/// Per-threshold rankings of one immutable index, for thresholds k in
/// [2, max_k], each built on first use. A published ranking is immutable
/// and read without a lock; a cold k is built once, under the memo's
/// mutex, by whichever caller reaches it first. Thread-safe.
class RankingMemo {
 public:
  explicit RankingMemo(std::uint32_t max_k)
      : max_k_(max_k),
        published_(std::make_unique<std::atomic<const ScoreRanking*>[]>(
            std::size_t{max_k} + 1)),
        owned_(std::size_t{max_k} + 1) {}

  RankingMemo(const RankingMemo&) = delete;
  RankingMemo& operator=(const RankingMemo&) = delete;

  /// The ranking at k ∈ [2, max_k]. `build()` returns it as a
  /// ScoreRanking and runs at most once per k, under the memo's lock.
  template <typename BuildFn>
  const ScoreRanking& Get(std::uint32_t k, BuildFn&& build) {
    TSD_CHECK(k >= 2 && k <= max_k_);
    if (const ScoreRanking* ranking =
            published_[k].load(std::memory_order_acquire)) {
      return *ranking;
    }
    MutexLock lock(mu_);
    if (const ScoreRanking* ranking =
            published_[k].load(std::memory_order_relaxed)) {
      return *ranking;  // another caller built it while we waited
    }
    owned_[k] = std::make_unique<const ScoreRanking>(build());
    entries_ += owned_[k]->size();
    published_[k].store(owned_[k].get(), std::memory_order_release);
    return *owned_[k];
  }

  /// Entries held by every ranking built so far.
  std::uint64_t num_entries() const {
    MutexLock lock(mu_);
    return entries_;
  }

 private:
  const std::uint32_t max_k_;
  // published_[k] is null until ranking k is built, then points at
  // owned_[k]; the release store pairs with Get's acquire load.
  std::unique_ptr<std::atomic<const ScoreRanking*>[]> published_;
  mutable Mutex mu_;
  std::vector<std::unique_ptr<const ScoreRanking>> owned_ TSD_GUARDED_BY(mu_);
  std::uint64_t entries_ TSD_GUARDED_BY(mu_) = 0;
};

}  // namespace tsd
