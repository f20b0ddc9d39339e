// Reusable scratch structures for allocation-free index queries and multi-k
// batch scoring.
//
// Index score kernels used to allocate an unordered_map per call (TSD edge
// endpoint dedup, GCT context grouping). Every structure here is built once
// per worker — inside QueryWorkspace — grows to its high-water mark, and is
// reused query to query, so repeated queries perform no steady-state heap
// allocation (capacity_bytes() is exposed for the tests that lock this
// down).
//
// MultiKEgoScorer is the batch-query kernel: one decomposed ego-network
// determines score(v) for *every* threshold k simultaneously (the trussness
// array is k-independent), so a single descending-trussness sweep yields
// the component counts for any requested set of thresholds — one ego
// decomposition per vertex instead of one per (vertex, k).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "graph/ego_network.h"

namespace tsd {

/// Epoch-stamped dense map from vertex id to a small dense id in insertion
/// order. Begin() is O(1) after the first call for a given universe size;
/// the backing arrays are grown once and reused forever.
class DenseIdMap {
 public:
  /// Starts a new mapping over ids in [0, universe). Grows the stamp arrays
  /// if needed (only on the first call, or when the universe grows).
  void Begin(std::size_t universe) {
    if (epoch_of_.size() < universe) {
      epoch_of_.resize(universe, 0);
      id_of_.resize(universe);
    }
    if (++epoch_ == 0) {  // epoch wrap: invalidate all stale stamps
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0U);
      epoch_ = 1;
    }
    keys_.clear();
  }

  /// Dense id of `key`, inserting it at the next slot if unseen.
  std::uint32_t Insert(std::uint32_t key) {
    TSD_DCHECK(key < epoch_of_.size());
    if (epoch_of_[key] != epoch_) {
      epoch_of_[key] = epoch_;
      id_of_[key] = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
    }
    return id_of_[key];
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(keys_.size());
  }

  /// Inserted keys, in insertion (= dense id) order.
  const std::vector<std::uint32_t>& keys() const { return keys_; }

  std::size_t capacity_bytes() const {
    return (epoch_of_.capacity() + id_of_.capacity() + keys_.capacity()) *
           sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> epoch_of_;
  std::vector<std::uint32_t> id_of_;
  std::vector<std::uint32_t> keys_;
  std::uint32_t epoch_ = 0;
};

/// Scratch for the TSD / GCT score and context kernels. One instance per
/// worker (owned by QueryWorkspace); all members grow to the query
/// high-water mark and are reused.
struct IndexQueryScratch {
  DenseIdMap ids;                    // global→local id map
  DisjointSet dsu;                   // context connectivity
  std::vector<std::uint32_t> slots;  // root → context slot

  std::size_t capacity_bytes() const {
    return ids.capacity_bytes() + dsu.size() * 2 * sizeof(std::uint32_t) +
           slots.capacity() * sizeof(std::uint32_t);
  }
};

/// Computes score(v) at many thresholds from one decomposed ego-network.
///
/// A single pass over the ego edges in descending trussness order maintains
/// the union-find of the ≥k prefix: when the sweep threshold drops from k to
/// k', exactly the edges with trussness in [k', k) join, and
/// score = |touched vertices| − |successful unions| at every step (each
/// component is a tree under the union count). The result at each threshold
/// equals ScoreFromEgoTrussness(ego, trussness, k, false).score exactly —
/// the count is order-independent — which is what keeps batch queries
/// bit-identical to per-query search.
class MultiKEgoScorer {
 public:
  /// Fills scores[i] with score(ego) at thresholds[i]. `thresholds` must be
  /// sorted strictly descending, every value ≥ 2.
  void Compute(const EgoNetwork& ego,
               const std::vector<std::uint32_t>& trussness,
               std::span<const std::uint32_t> thresholds,
               std::uint32_t* scores);

  std::size_t capacity_bytes() const {
    return dsu_.size() * 2 * sizeof(std::uint32_t) +
           (bucket_.capacity() + sorted_edges_.capacity()) *
               sizeof(std::uint32_t) +
           touched_.capacity();
  }

 private:
  DisjointSet dsu_;
  std::vector<std::uint32_t> bucket_;
  std::vector<std::uint32_t> sorted_edges_;
  std::vector<char> touched_;
};

}  // namespace tsd
