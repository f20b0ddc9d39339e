#include "core/dynamic_tsd_index.h"

#include <algorithm>

#include "common/check.h"

namespace tsd {

DynamicTsdIndex::DynamicTsdIndex(const Graph& initial)
    : graph_(initial), builder_(graph_) {
  // Construction is single-threaded: this thread is trivially the
  // serialized updater, and no reader can hold a pin yet.
  updater_role_.Assert();
  const VertexId n = graph_.num_vertices();
  auto* table = new SliceTable(std::max<std::size_t>(n, 1));
  view_.store(new ForestView{n, table}, std::memory_order_release);
  for (VertexId v = 0; v < n; ++v) {
    RebuildVertex(v);
  }
  rebuild_count_.store(0, std::memory_order_relaxed);  // construction does
                                                       // not count
}

DynamicTsdIndex::~DynamicTsdIndex() {
  // Owner contract: no readers or updaters in flight. The epoch manager's
  // destructor frees whatever is still in limbo; only the live view and its
  // slices are freed here.
  ForestView* view = view_.load(std::memory_order_relaxed);
  for (VertexId v = 0; v < view->num_vertices; ++v) {
    delete view->table->slots[v].load(std::memory_order_relaxed);
  }
  delete view->table;
  delete view;
}

void DynamicTsdIndex::RebuildVertex(VertexId v) {
  rebuild_count_.fetch_add(1, std::memory_order_relaxed);
  columns_.Clear();
  builder_.Append(v, &columns_);

  // Pack the columns into the slice's one allocation, sized exactly.
  auto* slice = new ForestSlice;
  slice->universe = graph_.num_vertices();
  slice->num_edges = columns_.num_edges.front();
  slice->packed.reserve(3 * columns_.weight.size() + 2 * columns_.level.size());
  for (const std::vector<std::uint32_t>* column :
       {&columns_.u, &columns_.v, &columns_.weight, &columns_.level,
        &columns_.level_score}) {
    slice->packed.insert(slice->packed.end(), column->begin(), column->end());
  }

  // Publish the fresh slice; the displaced one stays readable until its
  // grace period passes. Serialized with all other writer-side calls by the
  // updater contract this function already requires.
  epochs_.AssertWriter();
  ForestView* view = view_.load(std::memory_order_relaxed);
  const ForestSlice* old = view->table->slots[v].load(std::memory_order_relaxed);
  view->table->slots[v].store(slice, std::memory_order_release);
  view->table->ceilings[v].store(PackCeiling(forest::Ceiling(slice->view())),
                                 std::memory_order_release);
  if (old != nullptr) epochs_.Retire(old);
}

bool DynamicTsdIndex::InsertEdge(VertexId u, VertexId v) {
  // Serialized-updater contract (class comment): the caller serializes all
  // update entry points, so this thread is the updater for this call.
  updater_role_.Assert();
  epochs_.AssertWriter();
  if (u == v || u >= graph_.num_vertices() || v >= graph_.num_vertices()) {
    return false;  // rejected, symmetric with RemoveEdge — never a crash
  }
  if (!graph_.InsertEdge(u, v)) return false;
  // Affected ego-networks: u, v, and every common neighbor (whose ego just
  // gained the edge (u, v)). Common neighbors are unchanged by the insert
  // itself, so computing them after the insert is equivalent.
  for (VertexId w : graph_.CommonNeighbors(u, v)) RebuildVertex(w);
  RebuildVertex(u);
  RebuildVertex(v);
  epochs_.TryAdvance();  // opportunistic; a pinned reader just defers frees
  return true;
}

bool DynamicTsdIndex::RemoveEdge(VertexId u, VertexId v) {
  // Serialized-updater contract (class comment).
  updater_role_.Assert();
  epochs_.AssertWriter();
  if (u >= graph_.num_vertices() || v >= graph_.num_vertices() ||
      !graph_.HasEdge(u, v)) {
    return false;
  }
  const std::vector<VertexId> affected = graph_.CommonNeighbors(u, v);
  graph_.RemoveEdge(u, v);
  for (VertexId w : affected) RebuildVertex(w);
  RebuildVertex(u);
  RebuildVertex(v);
  epochs_.TryAdvance();
  return true;
}

VertexId DynamicTsdIndex::AddVertex() {
  // Serialized-updater contract (class comment).
  updater_role_.Assert();
  epochs_.AssertWriter();
  const VertexId v = graph_.AddVertex();
  const VertexId n = graph_.num_vertices();
  ForestView* old_view = view_.load(std::memory_order_relaxed);

  auto* slice = new ForestSlice;  // isolated vertex: empty forest
  slice->universe = n;

  SliceTable* table = old_view->table;
  if (table->capacity < n) {
    // Grow by copying the slice pointers and ceilings into a bigger table.
    // Readers on the old view keep using the old table (same slices), so
    // only the table shell and the view are retired — never the shared
    // slices.
    auto* grown = new SliceTable(std::max<std::size_t>(n, table->capacity * 2));
    for (VertexId i = 0; i < old_view->num_vertices; ++i) {
      grown->slots[i].store(table->slots[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      grown->ceilings[i].store(
          table->ceilings[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    table = grown;
  }
  table->slots[n - 1].store(slice, std::memory_order_relaxed);
  table->ceilings[n - 1].store(PackCeiling({}), std::memory_order_relaxed);
  view_.store(new ForestView{n, table}, std::memory_order_release);
  if (table != old_view->table) epochs_.Retire(old_view->table);
  epochs_.Retire(old_view);
  epochs_.TryAdvance();
  return v;
}

std::uint32_t DynamicTsdIndex::Score(VertexId v, std::uint32_t k) const {
  EpochGuard guard(epochs_);
  return forest::Score(SliceOf(CurrentView(), v), k);
}

ScoreResult DynamicTsdIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                               IndexQueryScratch& scratch) const {
  EpochGuard guard(epochs_);
  return forest::ScoreWithContexts(SliceOf(CurrentView(), v), k, scratch);
}

// One pin brackets a whole batch; the pipeline workers the driver forks run
// inside it (fork/join is the happens-before bracket), so every
// kernel call reads through this one pinned view.
std::vector<TopRResult> DynamicTsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();
  return ForestSearchBatch(
      queries, view.num_vertices, session,
      [&view](VertexId v) { return SliceOf(view, v); },
      [&view](VertexId v) { return CeilingOf(view, v); });
}

TsdIndex DynamicTsdIndex::Freeze() const {
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();
  std::vector<ForestColumns> columns(1);
  for (VertexId v = 0; v < view.num_vertices; ++v) {
    columns.front().Append(SliceOf(view, v));
  }
  return TsdIndex::FromColumns(std::move(columns));
}

}  // namespace tsd
