#include "core/tsd_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/max_spanning_forest.h"
#include "core/query_pipeline.h"
#include "core/score_ranking.h"
#include "core/top_r_collector.h"

namespace tsd {
namespace {

// Snapshot section tags for the TSD forest ("tsdx.*" group).
constexpr std::uint64_t kTsdMetaTag = SnapshotTag("tsdx.met");
constexpr std::uint64_t kTsdOffsetsTag = SnapshotTag("tsdx.off");
constexpr std::uint64_t kTsdEdgeUTag = SnapshotTag("tsdx.edu");
constexpr std::uint64_t kTsdEdgeVTag = SnapshotTag("tsdx.edv");
constexpr std::uint64_t kTsdWeightTag = SnapshotTag("tsdx.wgt");

// Schema version for the "tsdx.*" section group (common/snapshot.h policy).
constexpr std::uint64_t kTsdSchemaVersion = 1;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "TSD snapshot: " + message;
  return false;
}

/// Per-chunk build output: forest edge arrays plus per-vertex counts, so
/// chunks concatenate in order into the final flat index.
struct TsdChunk {
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;
  std::vector<std::uint32_t> per_vertex_count;
  std::uint32_t max_weight = 0;
  double extraction_seconds = 0;
  double decomposition_seconds = 0;
  double assembly_seconds = 0;
};

}  // namespace

TsdIndex TsdIndex::Build(const Graph& graph, const Options& options) {
  TSD_CHECK(options.num_threads >= 1);
  WallTimer total;
  TsdIndex index;
  const VertexId n = graph.num_vertices();
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> edge_u;
  std::vector<VertexId> edge_v;
  std::vector<std::uint32_t> weight;

  const std::uint32_t num_chunks =
      EffectiveChunks(ParallelConfig{options.num_threads, 0}, n);
  std::vector<TsdChunk> chunks(num_chunks);

  ParallelForChunks(
      n, num_chunks, options.num_threads,
      [&](std::uint32_t c, std::uint64_t begin, std::uint64_t end) {
        TsdChunk& chunk = chunks[c];
        chunk.per_vertex_count.reserve(end - begin);
        EgoNetworkExtractor extractor(graph);
        EgoTrussDecomposer decomposer(options.method);
        EgoNetwork ego;
        DisjointSet dsu;
        for (std::uint64_t v = begin; v < end; ++v) {
          {
            ScopedTimer t(&chunk.extraction_seconds);
            extractor.ExtractInto(static_cast<VertexId>(v), &ego);
          }
          std::vector<std::uint32_t> trussness;
          {
            ScopedTimer t(&chunk.decomposition_seconds);
            trussness = decomposer.Compute(ego);
          }
          ScopedTimer t(&chunk.assembly_seconds);
          const std::size_t before = chunk.edge_u.size();
          internal::MaximumSpanningForest(
              ego, trussness, dsu,
              [&](VertexId gu, VertexId gv, std::uint32_t w) {
                chunk.edge_u.push_back(gu);
                chunk.edge_v.push_back(gv);
                chunk.weight.push_back(w);
                chunk.max_weight = std::max(chunk.max_weight, w);
              });
          chunk.per_vertex_count.push_back(
              static_cast<std::uint32_t>(chunk.edge_u.size() - before));
        }
      });

  // Merge chunks in order (chunk c covers a contiguous ascending vertex
  // range, so concatenation preserves the per-vertex layout).
  VertexId v = 0;
  for (TsdChunk& chunk : chunks) {
    for (std::uint32_t count : chunk.per_vertex_count) {
      offsets[v + 1] = offsets[v] + count;
      ++v;
    }
    edge_u.insert(edge_u.end(), chunk.edge_u.begin(), chunk.edge_u.end());
    edge_v.insert(edge_v.end(), chunk.edge_v.begin(), chunk.edge_v.end());
    weight.insert(weight.end(), chunk.weight.begin(), chunk.weight.end());
    index.max_weight_ = std::max(index.max_weight_, chunk.max_weight);
    index.build_stats_.extraction_seconds += chunk.extraction_seconds;
    index.build_stats_.decomposition_seconds += chunk.decomposition_seconds;
    index.build_stats_.assembly_seconds += chunk.assembly_seconds;
  }
  TSD_CHECK(v == n);
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(edge_u);
  index.edge_v_ = std::move(edge_v);
  index.weight_ = std::move(weight);
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

std::uint32_t TsdIndex::Score(VertexId v, std::uint32_t k,
                              IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < num_vertices());
  const std::uint64_t begin = offsets_[v];
  const std::uint64_t end = offsets_[v + 1];

  // Count qualified edges and distinct endpoints; the forest property gives
  // score = |endpoints| - |edges|.
  scratch.ids.Begin(num_vertices());
  std::uint32_t edges = 0;
  for (std::uint64_t i = begin; i < end && weight_[i] >= k; ++i) {
    ++edges;
    scratch.ids.Insert(edge_u_[i]);
    scratch.ids.Insert(edge_v_[i]);
  }
  return scratch.ids.size() - edges;
}

ScoreResult TsdIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                        IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < num_vertices());
  const std::uint64_t begin = offsets_[v];
  const std::uint64_t end = offsets_[v + 1];

  // Map touched global endpoints to dense local ids.
  scratch.ids.Begin(num_vertices());
  std::uint64_t qualified_end = begin;
  for (std::uint64_t i = begin; i < end && weight_[i] >= k; ++i) {
    scratch.ids.Insert(edge_u_[i]);
    scratch.ids.Insert(edge_v_[i]);
    qualified_end = i + 1;
  }
  const std::vector<VertexId>& global = scratch.ids.keys();

  scratch.dsu.Reset(global.size());
  for (std::uint64_t i = begin; i < qualified_end; ++i) {
    scratch.dsu.Union(scratch.ids.Insert(edge_u_[i]),
                      scratch.ids.Insert(edge_v_[i]));
  }

  // Roots map to context slots through a dense root→slot vector in
  // first-occurrence order; members sorted per context and contexts ordered
  // by smallest member, exactly as before.
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

void TsdIndex::ScoresForThresholds(VertexId v,
                                   std::span<const std::uint32_t> thresholds,
                                   IndexQueryScratch& scratch,
                                   std::uint32_t* scores) const {
  TSD_DCHECK(v < num_vertices());
  const std::uint64_t end = offsets_[v + 1];
  // Weights are sorted descending, so the qualified prefix only grows as
  // the threshold drops: one sweep serves every k.
  scratch.ids.Begin(num_vertices());
  std::uint64_t i = offsets_[v];
  std::uint32_t edges = 0;
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const std::uint32_t k = thresholds[t];
    TSD_DCHECK(t == 0 || thresholds[t - 1] > k);
    while (i < end && weight_[i] >= k) {
      ++edges;
      scratch.ids.Insert(edge_u_[i]);
      scratch.ids.Insert(edge_v_[i]);
      ++i;
    }
    scores[t] = scratch.ids.size() - edges;
  }
}

std::uint32_t TsdIndex::ScoreUpperBound(VertexId v, std::uint32_t k) const {
  TSD_DCHECK(k >= 2);
  TSD_DCHECK(v < num_vertices());
  const std::uint64_t begin = offsets_[v];
  const std::uint64_t end = offsets_[v + 1];
  // Weights are sorted descending: binary search the first weight < k.
  // std::lower_bound with greater-equal predicate over the reversed notion:
  auto first = weight_.begin() + begin;
  auto last = weight_.begin() + end;
  const auto it = std::partition_point(
      first, last, [k](std::uint32_t w) { return w >= k; });
  const auto qualified = static_cast<std::uint32_t>(it - first);
  // A maximal connected k-truss contributes at least k-1 forest edges.
  return qualified / (k - 1);
}

TopRResult TsdIndex::TopR(std::uint32_t r, std::uint32_t k,
                          QuerySession& session) const {
  TSD_CHECK(r >= 1);
  TSD_CHECK(k >= 2);
  WallTimer total;
  TopRResult result;
  const VertexId n = num_vertices();

  // Index-only pipeline: the kernels below read the forest arrays and never
  // touch an ego-network, so workspaces carry no extractor.
  QueryPipeline& pipeline = session.IndexPipeline();

  std::vector<std::uint32_t> bounds;
  {
    ScopedTimer t(&result.stats.preprocess_seconds);
    pipeline.MapScores(n, &bounds, [&](QueryWorkspace&, VertexId v) {
      return ScoreUpperBound(v, k);
    });
  }

  const std::vector<VertexId> order = OrderByBoundDesc(bounds);

  TopRCollector collector(r);
  {
    ScopedTimer t(&result.stats.score_seconds);
    result.stats.vertices_scored = pipeline.ScoreOrdered(
        order, bounds, &collector, [&](QueryWorkspace& ws, VertexId v) {
          return Score(v, k, ws.index_scratch());
        });
  }

  {
    ScopedTimer t(&result.stats.context_seconds);
    pipeline.MaterializeEntries(
        collector.Ranked(), &result.entries,
        [&](QueryWorkspace& ws, VertexId v) {
          return ScoreWithContexts(v, k, ws.index_scratch()).contexts;
        });
  }
  result.stats.threads_used = pipeline.num_threads();
  result.stats.total_seconds = total.Seconds();
  return result;
}

std::vector<TopRResult> TsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  // One forest-slice sweep per vertex answers every threshold. When every
  // query's r is small, most of those sweeps are wasted on vertices that
  // can never rank, and a single bound order serves the whole batch: the
  // s̃core bound qualified(k)/(k-1) is non-increasing in k, so the bound at
  // the smallest requested k dominates every query's score and the shared
  // ordered scan can stop as soon as every collector can prune. With large
  // r the scan visits nearly everything anyway and the bound pass and
  // ordering would not pay for themselves, so the batch falls back to the
  // full range; entries are bit-identical either way.
  const VertexId n = num_vertices();
  const bool ordered = runner.total_r() * 64 <= n;
  auto score_fn = [this, &runner](QueryWorkspace& ws, VertexId v,
                                  std::uint32_t* out) {
    ScoresForThresholds(v, runner.thresholds(), ws.index_scratch(), out);
  };
  std::vector<std::uint32_t> bounds;
  std::vector<VertexId> order;
  if (ordered) {
    ScopedTimer t(&stats.preprocess_seconds);
    const std::uint32_t k_min = runner.thresholds().back();
    pipeline.MapScores(n, &bounds, [&](QueryWorkspace&, VertexId v) {
      return ScoreUpperBound(v, k_min);
    });
    order = OrderByBoundDesc(bounds);
  }
  {
    ScopedTimer t(&stats.score_seconds);
    stats.vertices_scored =
        ordered ? runner.ScanOrdered(pipeline, order, bounds, score_fn)
                : runner.Scan(pipeline, n, score_fn);
  }

  {
    ScopedTimer t(&stats.context_seconds);
    runner.MaterializeGrouped(
        pipeline, &results, [](QueryWorkspace&, VertexId) {},
        [this](QueryWorkspace& ws, VertexId v, std::uint32_t k) {
          return ScoreWithContexts(v, k, ws.index_scratch()).contexts;
        });
  }

  stats.threads_used = pipeline.num_threads();
  stats.total_seconds = total.Seconds();
  FillBatchStats(&results, stats);
  return results;
}

std::size_t TsdIndex::SizeBytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         edge_u_.size() * sizeof(VertexId) +
         edge_v_.size() * sizeof(VertexId) +
         weight_.size() * sizeof(std::uint32_t);
}

void TsdIndex::Save(const std::string& path) const {
  SnapshotWriter writer(path);
  AppendToSnapshot(writer);
  writer.Finish();
}

TsdIndex TsdIndex::Load(const std::string& path) {
  SnapshotReader reader;
  std::string error;
  TSD_CHECK_MSG(SnapshotReader::Open(path, &reader, &error), error);
  TsdIndex index;
  TSD_CHECK_MSG(LoadFromSnapshot(reader, &index, &error), error);
  return index;
}

void TsdIndex::AppendToSnapshot(SnapshotWriter& writer) const {
  const std::uint64_t meta[] = {kTsdSchemaVersion, num_vertices(),
                                max_weight_};
  writer.AddScalars(kTsdMetaTag, meta);
  writer.AddArray(kTsdOffsetsTag, offsets_.span());
  writer.AddArray(kTsdEdgeUTag, edge_u_.span());
  writer.AddArray(kTsdEdgeVTag, edge_v_.span());
  writer.AddArray(kTsdWeightTag, weight_.span());
}

bool TsdIndex::LoadFromSnapshot(const SnapshotReader& reader, TsdIndex* out,
                                std::string* error) {
  *out = TsdIndex();

  std::uint64_t meta[3] = {};
  if (!reader.ReadScalars(kTsdMetaTag, meta, error)) return false;
  if (meta[0] != kTsdSchemaVersion) {
    return Fail(error, "unsupported TSD schema version " +
                           std::to_string(meta[0]) + " (this build reads " +
                           std::to_string(kTsdSchemaVersion) + ")");
  }
  if (meta[1] > kInvalidVertex) return Fail(error, "vertex count overflow");
  const auto n = static_cast<VertexId>(meta[1]);
  const auto max_weight = static_cast<std::uint32_t>(meta[2]);

  std::span<const std::uint64_t> offsets;
  std::span<const VertexId> edge_u;
  std::span<const VertexId> edge_v;
  std::span<const std::uint32_t> weight;
  if (!reader.Read(kTsdOffsetsTag, &offsets, error) ||
      !reader.Read(kTsdEdgeUTag, &edge_u, error) ||
      !reader.Read(kTsdEdgeVTag, &edge_v, error) ||
      !reader.Read(kTsdWeightTag, &weight, error)) {
    return false;
  }

  if (offsets.size() != std::size_t{n} + 1) {
    return Fail(error, "offsets size mismatch");
  }
  const std::size_t total = weight.size();
  if (edge_u.size() != total || edge_v.size() != total) {
    return Fail(error, "forest arrays size mismatch");
  }
  if (offsets[0] != 0 || offsets[n] != total) {
    return Fail(error, "offsets do not span the forest arrays");
  }
  std::uint32_t seen_max_weight = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (edge_u[i] >= n || edge_v[i] >= n) {
        return Fail(error, "forest endpoint out of range");
      }
      // Per-slice weight order is what Score's early exit and
      // ScoreUpperBound's partition_point rely on.
      if (i > offsets[v] && weight[i - 1] < weight[i]) {
        return Fail(error, "forest slice not sorted by weight descending");
      }
      seen_max_weight = std::max(seen_max_weight, weight[i]);
    }
  }
  if (seen_max_weight != max_weight) {
    return Fail(error, "max weight mismatch");
  }

  out->offsets_.BindView(offsets);
  out->edge_u_.BindView(edge_u);
  out->edge_v_.BindView(edge_v);
  out->weight_.BindView(weight);
  out->max_weight_ = max_weight;
  out->mapping_ = reader.mapping();
  return true;
}

}  // namespace tsd
