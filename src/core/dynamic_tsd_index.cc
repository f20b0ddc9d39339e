#include "core/dynamic_tsd_index.h"

#include <algorithm>

#include "common/check.h"
#include "core/max_spanning_forest.h"

namespace tsd {

DynamicTsdIndex::DynamicTsdIndex(const Graph& initial, EgoTrussMethod method)
    : graph_(initial), method_(method), maint_decomposer_(method) {
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

void DynamicTsdIndex::ExtractEgo(VertexId center, EgoNetwork* out) const {
  out->center = center;
  const auto nbrs = graph_.neighbors(center);
  out->members.assign(nbrs.begin(), nbrs.end());
  out->edges.clear();
  out->offsets.clear();
  out->adj.clear();
  out->adj_edge_ids.clear();
  // Members are few; a per-call sorted lookup is fine for maintenance work.
  for (std::uint32_t i = 0; i < out->members.size(); ++i) {
    const VertexId u = out->members[i];
    for (VertexId w : graph_.neighbors(u)) {
      if (w <= u) continue;
      const std::uint32_t j = out->ToLocal(w);
      if (j != kInvalidVertex) out->edges.push_back(Edge{i, j});
    }
  }
  std::sort(out->edges.begin(), out->edges.end());
}

void DynamicTsdIndex::RebuildVertex(VertexId v) {
  rebuild_count_.fetch_add(1, std::memory_order_relaxed);
  ExtractEgo(v, &maint_ego_);
  maint_decomposer_.ComputeInto(maint_ego_, &maint_trussness_);

  maint_u_.clear();
  maint_v_.clear();
  maint_weight_.clear();
  internal::MaximumSpanningForest(
      maint_ego_, maint_trussness_, maint_dsu_,
      [&](VertexId gu, VertexId gv, std::uint32_t w) {
        maint_u_.push_back(gu);
        maint_v_.push_back(gv);
        maint_weight_.push_back(w);
      });
  const VertexId universe = graph_.num_vertices();
  maint_level_.clear();
  maint_level_score_.clear();
  forest::AppendScoreProfile(universe, maint_u_, maint_v_, maint_weight_,
                             maint_ids_, &maint_level_, &maint_level_score_);

  // Pack the columns into the slice's one allocation, sized exactly.
  auto* slice = new ForestSlice;
  slice->universe = universe;
  slice->num_edges = static_cast<std::uint32_t>(maint_weight_.size());
  slice->packed.reserve(3 * maint_weight_.size() + 2 * maint_level_.size());
  for (const std::vector<std::uint32_t>* column :
       {&maint_u_, &maint_v_, &maint_weight_, &maint_level_,
        &maint_level_score_}) {
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
  TsdIndex index;
  const VertexId n = view.num_vertices;
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;
  std::vector<std::uint64_t> level_offsets(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> level_score;
  for (VertexId v = 0; v < n; ++v) {
    const ForestSliceView slice = SliceOf(view, v);
    edge_u.insert(edge_u.end(), slice.u.begin(), slice.u.end());
    edge_v.insert(edge_v.end(), slice.v.begin(), slice.v.end());
    weight.insert(weight.end(), slice.weight.begin(), slice.weight.end());
    level.insert(level.end(), slice.level.begin(), slice.level.end());
    level_score.insert(level_score.end(), slice.level_score.begin(),
                       slice.level_score.end());
    level_offsets[v + 1] = level.size();
    // Weights are sorted descending, so the first is the slice's maximum.
    if (!slice.weight.empty()) {
      index.max_weight_ = std::max(index.max_weight_, slice.weight.front());
    }
    offsets[v + 1] = edge_u.size();
  }
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(edge_u);
  index.edge_v_ = std::move(edge_v);
  index.weight_ = std::move(weight);
  index.level_offsets_ = std::move(level_offsets);
  index.level_ = std::move(level);
  index.level_score_ = std::move(level_score);
  index.DeriveCeilings();
  return index;
}

}  // namespace tsd
