#include "core/dynamic_tsd_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/max_spanning_forest.h"
#include "core/query_pipeline.h"
#include "core/score_ranking.h"
#include "core/top_r_collector.h"

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

  auto* slice = new ForestSlice;
  slice->universe = graph_.num_vertices();
  internal::MaximumSpanningForest(
      maint_ego_, maint_trussness_, maint_dsu_,
      [&](VertexId gu, VertexId gv, std::uint32_t w) {
        slice->edges.push_back(ForestEdge{gu, gv, w});
      });

  // Publish the fresh slice; the displaced one stays readable until its
  // grace period passes. Serialized with all other writer-side calls by the
  // updater contract this function already requires.
  epochs_.AssertWriter();
  ForestView* view = view_.load(std::memory_order_relaxed);
  const ForestSlice* old = view->table->slots[v].load(std::memory_order_relaxed);
  view->table->slots[v].store(slice, std::memory_order_release);
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
    // Grow by copying the slice pointers into a bigger table. Readers on
    // the old view keep using the old table (same slices), so only the
    // table shell and the view are retired — never the shared slices.
    auto* grown = new SliceTable(std::max<std::size_t>(n, table->capacity * 2));
    for (VertexId i = 0; i < old_view->num_vertices; ++i) {
      grown->slots[i].store(table->slots[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    table = grown;
  }
  table->slots[n - 1].store(slice, std::memory_order_relaxed);
  view_.store(new ForestView{n, table}, std::memory_order_release);
  if (table != old_view->table) epochs_.Retire(old_view->table);
  epochs_.Retire(old_view);
  epochs_.TryAdvance();
  return v;
}

std::uint32_t DynamicTsdIndex::ScoreIn(const ForestView& view, VertexId v,
                                       std::uint32_t k,
                                       IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < view.num_vertices);
  const ForestSlice& slice = SliceOf(view, v);
  // The forest property gives score = |endpoints| - |edges| over the
  // weight-≥k prefix. Dense scratch sized by the slice's own universe (see
  // the ForestSlice comment — the view's count can be stale relative to a
  // freshly swapped slice).
  scratch.ids.Begin(slice.universe);
  std::uint32_t edges = 0;
  for (const ForestEdge& e : slice.edges) {
    if (e.weight < k) break;  // sorted descending
    ++edges;
    scratch.ids.Insert(e.u);
    scratch.ids.Insert(e.v);
  }
  return scratch.ids.size() - edges;
}

ScoreResult DynamicTsdIndex::ScoreWithContextsIn(
    const ForestView& view, VertexId v, std::uint32_t k,
    IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < view.num_vertices);
  const ForestSlice& slice = SliceOf(view, v);

  // Map touched global endpoints to dense local ids (same kernel as
  // TsdIndex::ScoreWithContexts, over the maintained slice).
  scratch.ids.Begin(slice.universe);
  std::size_t qualified = 0;
  for (const ForestEdge& e : slice.edges) {
    if (e.weight < k) break;
    scratch.ids.Insert(e.u);
    scratch.ids.Insert(e.v);
    ++qualified;
  }
  const std::vector<VertexId>& global = scratch.ids.keys();

  scratch.dsu.Reset(global.size());
  for (std::size_t i = 0; i < qualified; ++i) {
    scratch.dsu.Union(scratch.ids.Insert(slice.edges[i].u),
                      scratch.ids.Insert(slice.edges[i].v));
  }

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

std::uint32_t DynamicTsdIndex::ScoreUpperBoundIn(const ForestView& view,
                                                 VertexId v,
                                                 std::uint32_t k) const {
  TSD_DCHECK(k >= 2);
  TSD_DCHECK(v < view.num_vertices);
  const ForestSlice& slice = SliceOf(view, v);
  const auto it = std::partition_point(
      slice.edges.begin(), slice.edges.end(),
      [k](const ForestEdge& e) { return e.weight >= k; });
  return static_cast<std::uint32_t>(it - slice.edges.begin()) / (k - 1);
}

void DynamicTsdIndex::ScoresForThresholdsIn(
    const ForestView& view, VertexId v,
    std::span<const std::uint32_t> thresholds, IndexQueryScratch& scratch,
    std::uint32_t* scores) const {
  TSD_DCHECK(v < view.num_vertices);
  const ForestSlice& slice = SliceOf(view, v);
  // Weights are sorted descending, so the qualified prefix only grows as
  // the threshold drops: one sweep serves every k (same discipline as
  // TsdIndex::ScoresForThresholds, over the maintained forest slice).
  scratch.ids.Begin(slice.universe);
  std::size_t i = 0;
  std::uint32_t qualified = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    while (i < slice.edges.size() && slice.edges[i].weight >= k) {
      ++qualified;
      scratch.ids.Insert(slice.edges[i].u);
      scratch.ids.Insert(slice.edges[i].v);
      ++i;
    }
    scores[t] = scratch.ids.size() - qualified;
  }
}

std::uint32_t DynamicTsdIndex::Score(VertexId v, std::uint32_t k,
                                     IndexQueryScratch& scratch) const {
  EpochGuard guard(epochs_);
  return ScoreIn(CurrentView(), v, k, scratch);
}

ScoreResult DynamicTsdIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                               IndexQueryScratch& scratch) const {
  EpochGuard guard(epochs_);
  return ScoreWithContextsIn(CurrentView(), v, k, scratch);
}

std::uint32_t DynamicTsdIndex::ScoreUpperBound(VertexId v,
                                               std::uint32_t k) const {
  EpochGuard guard(epochs_);
  return ScoreUpperBoundIn(CurrentView(), v, k);
}

void DynamicTsdIndex::ScoresForThresholds(
    VertexId v, std::span<const std::uint32_t> thresholds,
    IndexQueryScratch& scratch, std::uint32_t* scores) const {
  EpochGuard guard(epochs_);
  ScoresForThresholdsIn(CurrentView(), v, thresholds, scratch, scores);
}

TopRResult DynamicTsdIndex::TopR(std::uint32_t r, std::uint32_t k,
                                 QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;

  // One pin brackets the whole query; the pipeline workers it forks run
  // inside it (fork/join is the happens-before bracket), so every kernel
  // call below reads through this one pinned view.
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();
  const VertexId n = view.num_vertices;

  // Index-only pipeline, like the frozen TsdIndex.
  QueryPipeline& pipeline = session.IndexPipeline();
  std::vector<std::uint32_t> bounds;
  pipeline.MapScores(n, &bounds, [&](QueryWorkspace&, VertexId v) {
    return ScoreUpperBoundIn(view, v, k);
  });
  const std::vector<VertexId> order = OrderByBoundDesc(bounds);

  TopRCollector collector(r);
  result.stats.vertices_scored =
      pipeline.ScoreOrdered(order, bounds, &collector,
                            [&](QueryWorkspace& ws, VertexId v) {
                              return ScoreIn(view, v, k, ws.index_scratch());
                            });
  pipeline.MaterializeEntries(
      collector.Ranked(), &result.entries, [&](QueryWorkspace& ws, VertexId v) {
        return ScoreWithContextsIn(view, v, k, ws.index_scratch()).contexts;
      });
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> DynamicTsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  // One pin brackets the whole batch (cf. TopR above).
  EpochGuard guard(epochs_);
  const ForestView& view = CurrentView();

  // One forest-slice sweep per vertex answers every threshold (the TSD
  // multi-k discipline over the dynamic forest slices); with exact multi-k
  // scores this cheap, the bound ordering would not pay, so the batch path
  // scans the full range.
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored = runner.Scan(
        pipeline, view.num_vertices,
        [this, &runner, &view](QueryWorkspace& ws, VertexId v,
                               std::uint32_t* out) {
          ScoresForThresholdsIn(view, v, runner.thresholds(),
                                ws.index_scratch(), out);
        });
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results, [](QueryWorkspace&, VertexId) {},
        [this, &view](QueryWorkspace& ws, VertexId v, std::uint32_t k) {
          return ScoreWithContextsIn(view, v, k, ws.index_scratch()).contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
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
  for (VertexId v = 0; v < n; ++v) {
    for (const ForestEdge& e : SliceOf(view, v).edges) {
      edge_u.push_back(e.u);
      edge_v.push_back(e.v);
      weight.push_back(e.weight);
      index.max_weight_ = std::max(index.max_weight_, e.weight);
    }
    offsets[v + 1] = edge_u.size();
  }
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(edge_u);
  index.edge_v_ = std::move(edge_v);
  index.weight_ = std::move(weight);
  return index;
}

}  // namespace tsd
