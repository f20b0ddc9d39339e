#include "core/tsd_index.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"

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

}  // namespace

TsdIndex TsdIndex::Build(const Graph& graph, const Options& options) {
  TSD_CHECK(options.num_threads >= 1);
  WallTimer total;
  IndexBuildStats stats;
  TsdIndex index = FromColumns(BuildChunks<ForestColumns>(
      graph.num_vertices(), options.num_threads,
      [&] { return ForestSliceBuilder<Graph>(graph, options.method); },
      &stats));
  TSD_CHECK(index.num_vertices() == graph.num_vertices());
  index.build_stats_ = stats;
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

TsdIndex TsdIndex::FromColumns(std::vector<ForestColumns> parts) {
  TSD_CHECK(!parts.empty());
  // Append every later part to the first, column by column.
  ForestColumns& all = parts.front();
  for (std::vector<std::uint32_t> ForestColumns::*column :
       {&ForestColumns::u, &ForestColumns::v, &ForestColumns::weight,
        &ForestColumns::level, &ForestColumns::level_score,
        &ForestColumns::num_edges, &ForestColumns::num_levels}) {
    std::size_t size = 0;
    for (const ForestColumns& part : parts) size += (part.*column).size();
    (all.*column).reserve(size);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      (all.*column).insert((all.*column).end(), (parts[i].*column).begin(),
                           (parts[i].*column).end());
    }
  }
  const std::size_t n = all.num_edges.size();
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<std::uint64_t> level_offsets(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + all.num_edges[v];
    level_offsets[v + 1] = level_offsets[v] + all.num_levels[v];
  }
  TsdIndex index;
  index.offsets_ = std::move(offsets);
  index.edge_u_ = std::move(all.u);
  index.edge_v_ = std::move(all.v);
  index.weight_ = std::move(all.weight);
  index.level_offsets_ = std::move(level_offsets);
  index.level_ = std::move(all.level);
  index.level_score_ = std::move(all.level_score);
  index.DeriveCeilings();
  // A slice's top level is its largest weight.
  for (const ScoreCeiling& ceiling : index.ceilings_) {
    index.max_weight_ = std::max(index.max_weight_, ceiling.top_level);
  }
  return index;
}

void TsdIndex::DeriveCeilings() {
  ceilings_.resize(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    ceilings_[v] = forest::Ceiling(Slice(v));
  }
}

ForestSliceView TsdIndex::Slice(VertexId v) const {
  TSD_CHECK(v < num_vertices());
  const std::uint64_t begin = offsets_[v];
  const std::uint64_t count = offsets_[v + 1] - begin;
  const std::uint64_t level_begin = level_offsets_[v];
  const std::uint64_t levels = level_offsets_[v + 1] - level_begin;
  return {num_vertices(),
          edge_u_.span().subspan(begin, count),
          edge_v_.span().subspan(begin, count),
          weight_.span().subspan(begin, count),
          std::span(level_).subspan(level_begin, levels),
          std::span(level_score_).subspan(level_begin, levels)};
}

std::uint32_t TsdIndex::Score(VertexId v, std::uint32_t k) const {
  return forest::Score(Slice(v), k);
}

ScoreResult TsdIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                        IndexQueryScratch& scratch) const {
  return forest::ScoreWithContexts(Slice(v), k, scratch);
}

std::vector<TopRResult> TsdIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  return ForestSearchBatch(
      queries, num_vertices(), session,
      [this](VertexId v) { return Slice(v); },
      [this](VertexId v) { return ceilings_[v]; });
}

std::size_t TsdIndex::SizeBytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         edge_u_.size() * sizeof(VertexId) +
         edge_v_.size() * sizeof(VertexId) +
         weight_.size() * sizeof(std::uint32_t) +
         level_offsets_.size() * sizeof(std::uint64_t) +
         level_.size() * sizeof(std::uint32_t) +
         level_score_.size() * sizeof(std::uint32_t) +
         ceilings_.size() * sizeof(ScoreCeiling);
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
  // One pass validates every slice and derives its score profile.
  std::vector<std::uint64_t> level_offsets(std::size_t{n} + 1, 0);
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> level_score;
  DenseIdMap ids;
  std::uint32_t seen_max_weight = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (edge_u[i] >= n || edge_v[i] >= n) {
        return Fail(error, "forest endpoint out of range");
      }
      // Per-slice weight order is what the score profile and the
      // weight-≥k prefix of ScoreWithContexts rely on.
      if (i > offsets[v] && weight[i - 1] < weight[i]) {
        return Fail(error, "forest slice not sorted by weight descending");
      }
      seen_max_weight = std::max(seen_max_weight, weight[i]);
    }
    const std::uint64_t begin = offsets[v];
    const std::uint64_t count = offsets[v + 1] - begin;
    forest::AppendScoreProfile(n, edge_u.subspan(begin, count),
                               edge_v.subspan(begin, count),
                               weight.subspan(begin, count), ids, &level,
                               &level_score);
    level_offsets[v + 1] = level.size();
  }
  if (seen_max_weight != max_weight) {
    return Fail(error, "max weight mismatch");
  }

  out->offsets_.BindView(offsets);
  out->edge_u_.BindView(edge_u);
  out->edge_v_.BindView(edge_v);
  out->weight_.BindView(weight);
  out->level_offsets_ = std::move(level_offsets);
  out->level_ = std::move(level);
  out->level_score_ = std::move(level_score);
  out->DeriveCeilings();
  out->max_weight_ = max_weight;
  out->mapping_ = reader.mapping();
  return true;
}

}  // namespace tsd
