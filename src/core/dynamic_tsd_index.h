// Incrementally maintained TSD-index over a dynamic graph, with
// epoch-versioned forests so queries run concurrently with updates.
//
// The paper's Section 5.3 remarks that the TSD-index "can support efficient
// updates in dynamic graphs"; this class realizes that extension. The key
// locality property: inserting or deleting edge {u, v} changes only the
// ego-networks of
//     A(u, v) = {u, v} ∪ (N(u) ∩ N(v))
// — u's and v's ego-networks gain/lose the member on the other end (plus
// its incident ego edges), and each common neighbor w gains/loses the ego
// edge (u, v). The maintainer rebuilds exactly those |A| per-vertex forests
// (each an O(ρ_v · m_v) local job) and leaves the rest of the index
// untouched. Every slice, at construction and after an update, comes from
// the ForestSliceBuilder that TsdIndex::Build runs (core/forest_slice.h),
// with the same bitmap ego kernel, over the DynamicGraph instead of a CSR
// Graph. Property tests verify
// equality with a from-scratch rebuild after every update.
//
// Concurrency contract (the epoch design; common/epoch.h):
//  * Queries are const, lock-free, and safe *concurrently with updates*.
//    Each per-vertex forest is an immutable ForestSlice published through an
//    atomic pointer; every public query entry point pins an epoch once (one
//    EpochGuard per query or batch), loads the current ForestView, and reads
//    only immutable data from there. Updates replace slices by atomic swap
//    and retire the old versions to the epoch manager, which frees them only
//    after every pinned reader has moved on — readers never block, never
//    lock, and never observe freed memory.
//  * Updates (InsertEdge / RemoveEdge / AddVertex) are serialized by the
//    caller — one updater thread, or a mutex around the update path (the
//    serving layer's LiveUpdateApplier does the latter). They no longer
//    exclude queries.
//  * A query that overlaps an update sees each affected vertex either
//    before or after its rebuild (per-slice atomicity, not whole-update
//    atomicity). The batch sweep first reads v's score ceiling from a flat
//    atomic array and skips v when no query can take it. RebuildVertex
//    stores the new ceiling (release) after it publishes the new slice, so
//    a reader that loads the new ceiling (acquire) then loads the new slice
//    or a later one. A reader that loads the old ceiling and skips v acts
//    as if it had read the old slice, which the old ceiling bounds. Either
//    way v is seen before or after its rebuild, as above. Once an update
//    returns and the updater quiesces, every
//    subsequent query is bit-identical to a from-scratch rebuild of the
//    current graph — the differential property the live-update harness
//    asserts after every epoch.
//  * graph(), rebuild_count(), Freeze() and epoch_stats() are
//    updater-quiescent accessors: call them from the updater, or while no
//    update is in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/epoch.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/forest_slice.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/dynamic_graph.h"

namespace tsd {

class DynamicTsdIndex : public DiversitySearcher {
 public:
  /// Builds the initial index from `initial`, one vertex at a time on this
  /// thread, with the slice builder of TsdIndex::Build (so it equals
  /// TsdIndex::Build on the same graph).
  explicit DynamicTsdIndex(const Graph& initial);

  /// No readers or updaters may be in flight at destruction.
  ~DynamicTsdIndex() override;

  DynamicTsdIndex(const DynamicTsdIndex&) = delete;
  DynamicTsdIndex& operator=(const DynamicTsdIndex&) = delete;

  /// Inserts {u, v} and repairs the affected ego-network forests.
  /// Returns false (and changes nothing) if the edge already exists, if
  /// u == v, or if either endpoint is out of range — out-of-range ids are a
  /// rejected update, not a crash, symmetric with RemoveEdge (ids arrive
  /// from untrusted "+u v" protocol lines).
  bool InsertEdge(VertexId u, VertexId v);

  /// Removes {u, v} and repairs the affected ego-network forests. Returns
  /// false (and changes nothing) if the edge is absent or either endpoint
  /// is out of range.
  bool RemoveEdge(VertexId u, VertexId v);

  /// Appends an isolated vertex.
  VertexId AddVertex();

  /// Per-vertex kernels of core/forest_slice.h over v's current slice, each
  /// under its own epoch pin. Score is allocation-free; the scratch
  /// overload of ScoreWithContexts is allocation-free in the steady state,
  /// the convenience overload allocates a throwaway scratch per call.
  std::uint32_t Score(VertexId v, std::uint32_t k) const;

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const;
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  using DiversitySearcher::SearchBatch;

  /// Pins one epoch and runs the driver of core/forest_slice.h (the one
  /// TsdIndex runs) over the pinned view.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "TSD-dynamic"; }

  /// Updater-quiescent accessor (see the header comment).
  const DynamicGraph& graph() const TSD_NO_THREAD_SAFETY_ANALYSIS {
    // Read without the updater capability by design: callers promise
    // quiescence, which the capability system cannot express.
    return graph_;
  }

  /// Number of per-vertex forest rebuilds performed so far (updates only;
  /// excludes initial construction). One rebuild per affected vertex.
  std::uint64_t rebuild_count() const {
    return rebuild_count_.load(std::memory_order_relaxed);
  }

  /// Epoch-reclamation counters for the stats tables.
  EpochStats epoch_stats() const { return epochs_.stats(); }

  /// Snapshot as an immutable TsdIndex (bit-identical query results).
  TsdIndex Freeze() const;

 private:
  /// One vertex's maximum-spanning-forest and its score profile, immutable
  /// once published. The u, v, weight, level and level_score arrays share
  /// one allocation, so a slice costs the same number of allocations as a
  /// single vector.
  /// `universe` is the vertex-count at build time: endpoint ids are all
  /// < universe, and query kernels size their dense scratch maps from it —
  /// NOT from the view's vertex count, because a reader holding an older
  /// view can legitimately observe a newer slice whose endpoints exceed the
  /// old view's range (slices and the view are published independently).
  struct ForestSlice {
    VertexId universe = 0;
    std::uint32_t num_edges = 0;
    // u[0..m) | v[0..m) | weight[0..m) | level[0..l) | level_score[0..l),
    // with m = num_edges and l = (packed.size() - 3m) / 2.
    std::vector<std::uint32_t> packed;

    ForestSliceView view() const {
      const std::size_t m = num_edges;
      const std::size_t l = (packed.size() - 3 * m) / 2;
      const std::span<const std::uint32_t> all(packed);
      return {universe,
              all.first(m),
              all.subspan(m, m),
              all.subspan(2 * m, m),
              all.subspan(3 * m, l),
              all.subspan(3 * m + l, l)};
    }
  };

  /// Atomic pointer array from vertex id to its current slice, plus the
  /// parallel array of the slices' packed score ceilings. Grown (as a
  /// whole) only by AddVertex; individual slots are swapped by updates.
  struct SliceTable {
    explicit SliceTable(std::size_t cap)
        : capacity(cap),
          slots(std::make_unique<std::atomic<const ForestSlice*>[]>(cap)),
          ceilings(std::make_unique<std::atomic<std::uint64_t>[]>(cap)) {}
    std::size_t capacity;
    std::unique_ptr<std::atomic<const ForestSlice*>[]> slots;
    // top_level << 32 | max_score, published after the slot (see the
    // header comment).
    std::unique_ptr<std::atomic<std::uint64_t>[]> ceilings;
  };

  /// The queryable state, published through one atomic pointer: a vertex
  /// count and the table holding that many live slices.
  struct ForestView {
    VertexId num_vertices = 0;
    SliceTable* table = nullptr;
  };

  /// The current view. Callers must hold an epoch pin for as long as they
  /// use the result (or be the serialized updater).
  const ForestView& CurrentView() const {
    return *view_.load(std::memory_order_acquire);
  }

  static ForestSliceView SliceOf(const ForestView& view, VertexId v) {
    TSD_CHECK(v < view.num_vertices);
    return view.table->slots[v].load(std::memory_order_acquire)->view();
  }

  static std::uint64_t PackCeiling(const ScoreCeiling& ceiling) {
    return std::uint64_t{ceiling.top_level} << 32 | ceiling.max_score;
  }

  static ScoreCeiling CeilingOf(const ForestView& view, VertexId v) {
    TSD_DCHECK(v < view.num_vertices);
    const std::uint64_t packed =
        view.table->ceilings[v].load(std::memory_order_acquire);
    return {static_cast<std::uint32_t>(packed >> 32),
            static_cast<std::uint32_t>(packed)};
  }

  // Update internals (serialized-updater side).
  void RebuildVertex(VertexId v) TSD_REQUIRES(updater_role_);

  /// The serialized-updater capability (see the header contract): public
  /// update entry points claim it on behalf of their externally serialized
  /// caller, mirroring EpochManager::AssertWriter.
  ThreadRole updater_role_;

  DynamicGraph graph_ TSD_GUARDED_BY(updater_role_);

  /// Reclamation authority over retired slices/tables/views. Mutable: the
  /// const query paths pin and unpin reader epochs.
  mutable EpochManager epochs_;
  std::atomic<ForestView*> view_{nullptr};
  std::atomic<std::uint64_t> rebuild_count_{0};

  // Maintenance scratch, reused across every RebuildVertex call: the slice
  // builder over graph_, and the columns it fills before they are packed.
  ForestSliceBuilder<DynamicGraph> builder_ TSD_GUARDED_BY(updater_role_);
  ForestColumns columns_ TSD_GUARDED_BY(updater_role_);
};

}  // namespace tsd
