// Bounded collector maintaining the current top-r (score, vertex) answers
// under the library-wide total order (score desc, id asc). Used by every
// searcher's candidate loop, including the Algorithm 4 early-termination
// check: once the collector is full, a candidate whose score *upper bound*
// is below WorstScore() can never enter, and if candidates arrive in
// non-increasing bound order the search can stop.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "common/check.h"
#include "core/types.h"

namespace tsd {

class TopRCollector {
 public:
  explicit TopRCollector(std::uint32_t r) : r_(r) { TSD_CHECK(r >= 1); }

  /// Offers a candidate; returns true if it entered the top-r. Offering a
  /// pair the collector already holds changes nothing, so collectors that
  /// share entries can be merged.
  bool Offer(VertexId vertex, std::uint32_t score) {
    if (entries_.size() < r_) {
      if (!entries_.insert({score, vertex}).second) return false;
      UpdateWorstKey();
      return true;
    }
    const auto worst = *entries_.begin();
    if (!RanksBefore(score, vertex, worst.first, worst.second) ||
        entries_.contains({score, vertex})) {
      return false;
    }
    // The new pair takes over the worst entry's node.
    auto node = entries_.extract(entries_.begin());
    node.value() = {score, vertex};
    entries_.insert(std::move(node));
    UpdateWorstKey();
    return true;
  }

  bool Full() const { return entries_.size() >= r_; }

  /// The r this collector was built for.
  std::uint32_t capacity() const { return r_; }

  /// Score of the current r-th ranked answer (only valid when Full()).
  std::uint32_t WorstScore() const {
    TSD_DCHECK(Full());
    return entries_.begin()->first;
  }

  /// Vertex id of the current r-th ranked answer (only valid when Full()).
  VertexId WorstId() const {
    TSD_DCHECK(Full());
    return entries_.begin()->second;
  }

  /// True when no candidate at or after (`bound`, `candidate`) in the
  /// (bound desc, id asc) visiting order can still displace the current
  /// worst answer: either its bound is strictly below the r-th best score,
  /// or it ties the r-th best score but every remaining candidate at this
  /// bound has a larger id than the current worst (an equal-score candidate
  /// only wins the tie with a smaller id).
  bool CanPrune(std::uint32_t bound, VertexId candidate) const {
    return RankKey(bound, candidate) < worst_key_;
  }

  /// Ranked (best-first) snapshot.
  std::vector<std::pair<VertexId, std::uint32_t>> Ranked() const {
    std::vector<std::pair<VertexId, std::uint32_t>> out;
    out.reserve(entries_.size());
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      out.emplace_back(it->second, it->first);
    }
    return out;
  }

  /// Ranked (best-first) entries, emptying the collector: the move-out
  /// variant for merges and end-of-search extraction, where the collector's
  /// own copy is dead after the call.
  std::vector<std::pair<VertexId, std::uint32_t>> TakeRanked() {
    std::vector<std::pair<VertexId, std::uint32_t>> out = Ranked();
    entries_.clear();
    worst_key_ = 0;
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  // Ordered worst-first: ascending score, then descending id, so that
  // *begin() is the entry that leaves first.
  struct WorstFirst {
    bool operator()(const std::pair<std::uint32_t, VertexId>& a,
                    const std::pair<std::uint32_t, VertexId>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    }
  };

  // (score, vertex) as one integer that is larger the earlier the pair
  // ranks: the score above the complemented id.
  static std::uint64_t RankKey(std::uint32_t score, VertexId vertex) {
    return std::uint64_t{score} << 32 | static_cast<std::uint32_t>(~vertex);
  }

  void UpdateWorstKey() {
    if (Full()) {
      worst_key_ = RankKey(entries_.begin()->first, entries_.begin()->second);
    }
  }

  std::uint32_t r_;
  std::set<std::pair<std::uint32_t, VertexId>, WorstFirst> entries_;
  // RankKey of the r-th answer once full, else 0 (below every RankKey), so
  // CanPrune is one comparison.
  std::uint64_t worst_key_ = 0;
};

}  // namespace tsd
