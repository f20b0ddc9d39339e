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
// untouched. Property tests verify equality with a from-scratch rebuild
// after every update.
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
//    atomicity). Once an update returns and the updater quiesces, every
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
#include "common/disjoint_set.h"
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
#include "truss/ego_truss.h"

namespace tsd {

class DynamicTsdIndex : public DiversitySearcher {
 public:
  /// Builds the initial index from `initial` (equivalent to
  /// TsdIndex::Build on the same graph).
  explicit DynamicTsdIndex(const Graph& initial,
                           EgoTrussMethod method = EgoTrussMethod::kHash);

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
  /// under its own epoch pin. The scratch overloads are allocation-free in
  /// the steady state; the convenience overloads allocate a throwaway
  /// scratch per call.
  std::uint32_t Score(VertexId v, std::uint32_t k,
                      IndexQueryScratch& scratch) const;
  std::uint32_t Score(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return Score(v, k, scratch);
  }

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const;
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  std::uint32_t ScoreUpperBound(VertexId v, std::uint32_t k) const;

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  /// TopR and SearchBatch pin one epoch and run the drivers of
  /// core/forest_slice.h (the same ones TsdIndex runs) over the pinned view.
  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;
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
  /// One vertex's maximum-spanning-forest, immutable once published. The
  /// u, v and weight arrays share one allocation, so a slice costs the
  /// same number of allocations as a single vector.
  /// `universe` is the vertex-count at build time: endpoint ids are all
  /// < universe, and query kernels size their dense scratch maps from it —
  /// NOT from the view's vertex count, because a reader holding an older
  /// view can legitimately observe a newer slice whose endpoints exceed the
  /// old view's range (slices and the view are published independently).
  struct ForestSlice {
    VertexId universe = 0;
    std::vector<std::uint32_t> packed;  // u[0..m) | v[0..m) | weight[0..m)

    ForestSliceView view() const {
      const std::size_t m = packed.size() / 3;
      const std::span<const std::uint32_t> all(packed);
      return {universe, all.first(m), all.subspan(m, m), all.subspan(2 * m)};
    }
  };

  /// Atomic pointer array from vertex id to its current slice. Grown (as a
  /// whole) only by AddVertex; individual slots are swapped by updates.
  struct SliceTable {
    explicit SliceTable(std::size_t cap)
        : capacity(cap),
          slots(std::make_unique<std::atomic<const ForestSlice*>[]>(cap)) {}
    std::size_t capacity;
    std::unique_ptr<std::atomic<const ForestSlice*>[]> slots;
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

  // Update internals (serialized-updater side).
  void RebuildVertex(VertexId v) TSD_REQUIRES(updater_role_);
  void ExtractEgo(VertexId center, EgoNetwork* out) const
      TSD_REQUIRES(updater_role_);

  /// The serialized-updater capability (see the header contract): public
  /// update entry points claim it on behalf of their externally serialized
  /// caller, mirroring EpochManager::AssertWriter.
  ThreadRole updater_role_;

  DynamicGraph graph_ TSD_GUARDED_BY(updater_role_);
  const EgoTrussMethod method_;

  /// Reclamation authority over retired slices/tables/views. Mutable: the
  /// const query paths pin and unpin reader epochs.
  mutable EpochManager epochs_;
  std::atomic<ForestView*> view_{nullptr};
  std::atomic<std::uint64_t> rebuild_count_{0};

  // Maintenance scratch, reused across every RebuildVertex call so the
  // update path performs no per-vertex ego/decomposer construction.
  EgoNetwork maint_ego_ TSD_GUARDED_BY(updater_role_);
  EgoTrussDecomposer maint_decomposer_ TSD_GUARDED_BY(updater_role_);
  std::vector<std::uint32_t> maint_trussness_ TSD_GUARDED_BY(updater_role_);
  DisjointSet maint_dsu_ TSD_GUARDED_BY(updater_role_);
  // Forest edges as (u, v, weight) triples, before packing into a slice.
  std::vector<std::uint32_t> maint_forest_ TSD_GUARDED_BY(updater_role_);
};

}  // namespace tsd
