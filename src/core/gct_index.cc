#include "core/gct_index.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/batch_query.h"
#include "core/forest_slice.h"
#include "core/query_pipeline.h"

namespace tsd {
namespace {

// Snapshot section tags for the GCT supernode/superedge arrays ("gctx.*"
// group).
constexpr std::uint64_t kGctMetaTag = SnapshotTag("gctx.met");
constexpr std::uint64_t kGctSnOffsetsTag = SnapshotTag("gctx.sno");
constexpr std::uint64_t kGctSnTauTag = SnapshotTag("gctx.tau");
constexpr std::uint64_t kGctMemberOffsetsTag = SnapshotTag("gctx.mof");
constexpr std::uint64_t kGctMembersTag = SnapshotTag("gctx.mem");
constexpr std::uint64_t kGctSeOffsetsTag = SnapshotTag("gctx.seo");
constexpr std::uint64_t kGctSeATag = SnapshotTag("gctx.sea");
constexpr std::uint64_t kGctSeBTag = SnapshotTag("gctx.seb");
constexpr std::uint64_t kGctSeWTag = SnapshotTag("gctx.sew");

// Schema version for the "gctx.*" section group (common/snapshot.h policy).
constexpr std::uint64_t kGctSchemaVersion = 1;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "GCT snapshot: " + message;
  return false;
}

/// Per-chunk build output for the parallel GCT build; chunks cover
/// contiguous ascending vertex ranges and concatenate in order.
struct GctChunk {
  std::vector<std::uint32_t> sn_tau;
  std::vector<std::uint32_t> sn_member_count;  // parallel to sn_tau
  std::vector<VertexId> members;
  std::vector<std::uint32_t> se_a;
  std::vector<std::uint32_t> se_b;
  std::vector<std::uint32_t> se_w;
  std::vector<std::uint32_t> per_vertex_sn_count;
  std::vector<std::uint32_t> per_vertex_se_count;
};

/// A ForestSliceBuilder, and the scratch that contracts each fresh slice
/// into v's supernodes and superedges.
class GctSliceBuilder {
 public:
  GctSliceBuilder(const Graph& graph, EgoTrussMethod method,
                  const GlobalEgoNetworks* listing)
      : builder_(graph, method, listing) {}

  /// Appends v's supernodes and superedges to `chunk`.
  void Append(VertexId v, GctChunk* chunk);

  /// The builder's phase times, the contraction charged to assembly.
  const IndexBuildStats& stats() const { return builder_.stats(); }

 private:
  /// Root of x's supernode (path halving). Unions link the larger root
  /// under the smaller, so a root is its supernode's smallest member.
  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  ForestSliceBuilder<Graph> builder_;
  std::vector<std::uint32_t> vertex_tau_;  // per local vertex; 0: isolated
  std::vector<std::uint32_t> parent_;      // supernode forest over locals
  std::vector<std::uint32_t> node_;        // local vertex -> supernode
  std::vector<std::uint32_t> node_tau_;    // supernode -> trussness
  std::vector<std::uint32_t> node_size_;   // supernode -> member count
  std::vector<std::uint32_t> position_;    // supernode -> slice position
  std::vector<std::uint32_t> cursor_;      // counting-sort cursors
  std::vector<std::uint64_t> run_;  // one weight's superedges, (a, b) keys
};

void GctSliceBuilder::Append(VertexId v, GctChunk* chunk) {
  const LocalForest forest = builder_.Build(v);
  ScopedTimer t(&builder_.stats().assembly_seconds);
  const auto l = static_cast<std::uint32_t>(forest.members.size());
  const std::size_t num_edges = forest.weight.size();

  // A vertex's trussness is its largest edge weight: that of the first
  // forest edge at it, which Kruskal meets while the vertex is isolated. A
  // forest edge merges two supernodes iff both endpoints have its weight as
  // their trussness; the other forest edges are superedges.
  vertex_tau_.assign(l, 0);
  parent_.resize(l);
  std::iota(parent_.begin(), parent_.end(), 0U);
  for (std::size_t i = 0; i < num_edges; ++i) {
    const std::uint32_t a = forest.a[i];
    const std::uint32_t b = forest.b[i];
    const std::uint32_t w = forest.weight[i];
    if (vertex_tau_[a] == 0) vertex_tau_[a] = w;
    if (vertex_tau_[b] == 0) vertex_tau_[b] = w;
    if (vertex_tau_[a] == w && vertex_tau_[b] == w) {
      const std::uint32_t ra = Find(a);
      const std::uint32_t rb = Find(b);
      parent_[std::max(ra, rb)] = std::min(ra, rb);
    }
  }

  // Supernodes numbered by ascending smallest member: a vertex opens one
  // iff it is its root. Isolated vertices join none.
  node_.resize(l);
  node_tau_.clear();
  node_size_.clear();
  for (std::uint32_t x = 0; x < l; ++x) {
    if (vertex_tau_[x] == 0) continue;
    const std::uint32_t root = Find(x);
    if (root == x) {
      node_[x] = static_cast<std::uint32_t>(node_tau_.size());
      node_tau_.push_back(vertex_tau_[x]);
      node_size_.push_back(0);
    } else {
      node_[x] = node_[root];
    }
    ++node_size_[node_[x]];
  }
  const auto num_nodes = static_cast<std::uint32_t>(node_tau_.size());

  // Slice order is (trussness desc, smallest member asc): a stable counting
  // sort of the numbering. The first forest edge is the heaviest.
  const std::uint32_t max_tau = num_edges == 0 ? 0 : forest.weight[0];
  cursor_.assign(std::size_t{max_tau} + 1, 0);
  for (std::uint32_t tau : node_tau_) ++cursor_[tau];
  std::uint32_t next = 0;
  for (std::uint32_t tau = max_tau + 1; tau-- > 0;) {
    const std::uint32_t count = cursor_[tau];
    cursor_[tau] = next;
    next += count;
  }
  position_.resize(num_nodes);
  const std::size_t sn_base = chunk->sn_tau.size();
  chunk->sn_tau.resize(sn_base + num_nodes);
  chunk->sn_member_count.resize(sn_base + num_nodes);
  chunk->per_vertex_sn_count.push_back(num_nodes);
  for (std::uint32_t s = 0; s < num_nodes; ++s) {
    position_[s] = cursor_[node_tau_[s]]++;
    chunk->sn_tau[sn_base + position_[s]] = node_tau_[s];
    chunk->sn_member_count[sn_base + position_[s]] = node_size_[s];
  }

  // Members by a counting sort on slice position; visiting vertices in
  // ascending local (= global) order leaves every member list sorted.
  cursor_.resize(num_nodes);
  next = 0;
  for (std::uint32_t p = 0; p < num_nodes; ++p) {
    cursor_[p] = next;
    next += chunk->sn_member_count[sn_base + p];
  }
  const std::size_t member_base = chunk->members.size();
  chunk->members.resize(member_base + next);
  for (std::uint32_t x = 0; x < l; ++x) {
    if (vertex_tau_[x] == 0) continue;
    chunk->members[member_base + cursor_[position_[node_[x]]]++] =
        forest.members[x];
  }

  // Superedges, between slice positions, come weight-descending: only each
  // equal-weight run is sorted, by (a, b).
  const std::size_t se_base = chunk->se_w.size();
  for (std::size_t i = 0; i < num_edges;) {
    const std::uint32_t w = forest.weight[i];
    run_.clear();
    for (; i < num_edges && forest.weight[i] == w; ++i) {
      const std::uint32_t a = forest.a[i];
      const std::uint32_t b = forest.b[i];
      if (vertex_tau_[a] == w && vertex_tau_[b] == w) continue;
      const std::uint32_t pa = position_[node_[a]];
      const std::uint32_t pb = position_[node_[b]];
      run_.push_back((std::uint64_t{std::min(pa, pb)} << 32) |
                     std::max(pa, pb));
    }
    std::sort(run_.begin(), run_.end());
    for (std::uint64_t key : run_) {
      chunk->se_a.push_back(static_cast<std::uint32_t>(key >> 32));
      chunk->se_b.push_back(static_cast<std::uint32_t>(key));
      chunk->se_w.push_back(w);
    }
  }
  chunk->per_vertex_se_count.push_back(
      static_cast<std::uint32_t>(chunk->se_w.size() - se_base));
}

}  // namespace

GctIndex GctIndex::Build(const Graph& graph, const Options& options) {
  TSD_CHECK(options.num_threads >= 1);
  WallTimer total;
  GctIndex index;
  const VertexId n = graph.num_vertices();

  // Ego-network source: one-shot global listing (Section 6.2) or the
  // per-vertex extractor (ablation). The listing is shared read-only
  // across workers, and its triangle passes run on the build workers too.
  std::unique_ptr<GlobalEgoNetworks> listing;
  if (options.use_global_listing) {
    WallTimer timer;
    listing = std::make_unique<GlobalEgoNetworks>(
        graph, ParallelConfig{options.num_threads, 0});
    index.build_stats_.extraction_seconds += timer.Seconds();
  }

  // Each slice is contracted as soon as it is built.
  std::vector<GctChunk> chunks = BuildChunks<GctChunk>(
      n, options.num_threads,
      [&] { return GctSliceBuilder(graph, options.method, listing.get()); },
      &index.build_stats_);

  // Append every later chunk to the first, column by column; the counts
  // become offsets.
  GctChunk& all = chunks.front();
  for (std::vector<std::uint32_t> GctChunk::*column :
       {&GctChunk::sn_tau, &GctChunk::sn_member_count, &GctChunk::members,
        &GctChunk::se_a, &GctChunk::se_b, &GctChunk::se_w,
        &GctChunk::per_vertex_sn_count, &GctChunk::per_vertex_se_count}) {
    for (std::size_t c = 1; c < chunks.size(); ++c) {
      (all.*column).insert((all.*column).end(), (chunks[c].*column).begin(),
                           (chunks[c].*column).end());
    }
  }
  TSD_CHECK(all.per_vertex_sn_count.size() == n);
  // A vertex has at least as many members as supernodes, and fewer
  // superedges (a forest over them), so the member count bounds every
  // offset.
  TSD_CHECK_MSG(all.members.size() < UINT32_MAX,
                "GCT member array overflows 32-bit offsets");
  const auto offsets = [](const std::vector<std::uint32_t>& counts) {
    std::vector<std::uint32_t> offsets(counts.size() + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
    return offsets;
  };
  index.sn_offsets_ = offsets(all.per_vertex_sn_count);
  index.member_offsets_ = offsets(all.sn_member_count);
  index.se_offsets_ = offsets(all.per_vertex_se_count);
  for (const std::uint32_t tau : all.sn_tau) {
    index.max_trussness_ = std::max(index.max_trussness_, tau);
  }
  index.sn_tau_ = std::move(all.sn_tau);
  index.members_ = std::move(all.members);
  index.se_a_ = std::move(all.se_a);
  index.se_b_ = std::move(all.se_b);
  index.se_w_ = std::move(all.se_w);
  index.rankings_ = std::make_shared<RankingMemo>(index.max_trussness_);
  index.build_stats_.total_seconds = total.Seconds();
  return index;
}

std::uint32_t GctIndex::Score(VertexId v, std::uint32_t k) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < num_vertices());
  // N_k: supernodes with trussness >= k (slice sorted descending).
  const auto sn_first = sn_tau_.begin() + sn_offsets_[v];
  const auto sn_last = sn_tau_.begin() + sn_offsets_[v + 1];
  const auto n_k = std::partition_point(
      sn_first, sn_last, [k](std::uint32_t tau) { return tau >= k; });
  // M_k: superedges with weight >= k.
  const auto se_first = se_w_.begin() + se_offsets_[v];
  const auto se_last = se_w_.begin() + se_offsets_[v + 1];
  const auto m_k = std::partition_point(
      se_first, se_last, [k](std::uint32_t w) { return w >= k; });
  // Lemma 3.
  return static_cast<std::uint32_t>((n_k - sn_first) - (m_k - se_first));
}

ScoreResult GctIndex::ScoreWithContexts(VertexId v, std::uint32_t k,
                                        IndexQueryScratch& scratch) const {
  TSD_CHECK(k >= 2);
  TSD_CHECK(v < num_vertices());
  const auto sn_begin = sn_offsets_[v];
  const auto sn_end = sn_offsets_[v + 1];
  std::uint32_t n_k = 0;
  while (sn_begin + n_k < sn_end && sn_tau_[sn_begin + n_k] >= k) ++n_k;

  scratch.dsu.Reset(n_k);
  const auto se_begin = se_offsets_[v];
  const auto se_end = se_offsets_[v + 1];
  for (auto i = se_begin; i < se_end && se_w_[i] >= k; ++i) {
    TSD_DCHECK(se_a_[i] < n_k && se_b_[i] < n_k);
    scratch.dsu.Union(se_a_[i], se_b_[i]);
  }

  // Supernode roots map to context slots through a dense root→slot vector
  // in first-occurrence order; contexts then sort by smallest member, the
  // same output order as the historical hash-map grouping.
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  scratch.slots.assign(n_k, kNoSlot);
  ScoreResult result;
  for (std::uint32_t i = 0; i < n_k; ++i) {
    const std::uint32_t root = scratch.dsu.Find(i);
    if (scratch.slots[root] == kNoSlot) {
      scratch.slots[root] = static_cast<std::uint32_t>(result.contexts.size());
      result.contexts.emplace_back();
    }
    SocialContext& context = result.contexts[scratch.slots[root]];
    const auto mem_begin = member_offsets_[sn_begin + i];
    const auto mem_end = member_offsets_[sn_begin + i + 1];
    context.insert(context.end(), members_.begin() + mem_begin,
                   members_.begin() + mem_end);
  }
  result.score = static_cast<std::uint32_t>(result.contexts.size());
  for (SocialContext& context : result.contexts) {
    std::sort(context.begin(), context.end());
  }
  std::sort(result.contexts.begin(), result.contexts.end(),
            [](const SocialContext& a, const SocialContext& b) {
              return a.front() < b.front();
            });
  TSD_DCHECK(result.score == Score(v, k));
  return result;
}

ScoreRanking GctIndex::Answers(std::uint32_t r, std::uint32_t k,
                               QueryPipeline& pipeline) const {
  const VertexId n = num_vertices();
  // Above max_trussness_ every score is 0: the answers are all padding and
  // the memo is never touched, so a client-chosen k sizes nothing.
  const ScoreRanking none;
  const ScoreRanking& ranking =
      k > max_trussness_ ? none : rankings_->Get(k, [&] {
        std::vector<std::uint32_t> scores;
        pipeline.MapScores(n, &scores, [this, k](QueryWorkspace&, VertexId v) {
          return Score(v, k);
        });
        return RankPositiveScores(scores);
      });
  return RankedAnswers(ranking, r, n,
                       [this, k](VertexId v) { return TopTrussness(v) >= k; });
}

std::vector<TopRResult> GctIndex::SearchBatch(
    std::span<const BatchQuery> queries, QuerySession& session) const {
  WallTimer total;
  std::vector<TopRResult> results(queries.size());
  if (queries.empty()) return results;
  SearchStats stats;
  BatchQueryRunner runner(queries);
  QueryPipeline& pipeline = session.IndexPipeline();

  // Each query's answers are already its unique top-r under the total
  // order; the collectors only carry them to the grouped context phase.
  {
    ScopedTimer t(&stats.score_seconds);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const auto& [v, score] :
           Answers(queries[q].r, queries[q].k, pipeline)) {
        runner.collector(q).Offer(v, score);
        ++stats.vertices_scored;
      }
    }
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

std::size_t GctIndex::SizeBytes() const {
  return (sn_offsets_.size() + sn_tau_.size() + member_offsets_.size() +
          se_offsets_.size() + se_a_.size() + se_b_.size() + se_w_.size()) *
             sizeof(std::uint32_t) +
         members_.size() * sizeof(VertexId);
}

void GctIndex::Save(const std::string& path) const {
  SnapshotWriter writer(path);
  AppendToSnapshot(writer);
  writer.Finish();
}

GctIndex GctIndex::Load(const std::string& path) {
  SnapshotReader reader;
  std::string error;
  TSD_CHECK_MSG(SnapshotReader::Open(path, &reader, &error), error);
  GctIndex index;
  TSD_CHECK_MSG(LoadFromSnapshot(reader, &index, &error), error);
  return index;
}

void GctIndex::AppendToSnapshot(SnapshotWriter& writer) const {
  const std::uint64_t meta[] = {kGctSchemaVersion, num_vertices(),
                                max_trussness_};
  writer.AddScalars(kGctMetaTag, meta);
  writer.AddArray(kGctSnOffsetsTag, sn_offsets_.span());
  writer.AddArray(kGctSnTauTag, sn_tau_.span());
  writer.AddArray(kGctMemberOffsetsTag, member_offsets_.span());
  writer.AddArray(kGctMembersTag, members_.span());
  writer.AddArray(kGctSeOffsetsTag, se_offsets_.span());
  writer.AddArray(kGctSeATag, se_a_.span());
  writer.AddArray(kGctSeBTag, se_b_.span());
  writer.AddArray(kGctSeWTag, se_w_.span());
}

bool GctIndex::LoadFromSnapshot(const SnapshotReader& reader, GctIndex* out,
                                std::string* error) {
  *out = GctIndex();

  std::uint64_t meta[3] = {};
  if (!reader.ReadScalars(kGctMetaTag, meta, error)) return false;
  if (meta[0] != kGctSchemaVersion) {
    return Fail(error, "unsupported GCT schema version " +
                           std::to_string(meta[0]) + " (this build reads " +
                           std::to_string(kGctSchemaVersion) + ")");
  }
  if (meta[1] > kInvalidVertex) return Fail(error, "vertex count overflow");
  const auto n = static_cast<VertexId>(meta[1]);
  const auto max_trussness = static_cast<std::uint32_t>(meta[2]);

  std::span<const std::uint32_t> sn_offsets;
  std::span<const std::uint32_t> sn_tau;
  std::span<const std::uint32_t> member_offsets;
  std::span<const VertexId> members;
  std::span<const std::uint32_t> se_offsets;
  std::span<const std::uint32_t> se_a;
  std::span<const std::uint32_t> se_b;
  std::span<const std::uint32_t> se_w;
  if (!reader.Read(kGctSnOffsetsTag, &sn_offsets, error) ||
      !reader.Read(kGctSnTauTag, &sn_tau, error) ||
      !reader.Read(kGctMemberOffsetsTag, &member_offsets, error) ||
      !reader.Read(kGctMembersTag, &members, error) ||
      !reader.Read(kGctSeOffsetsTag, &se_offsets, error) ||
      !reader.Read(kGctSeATag, &se_a, error) ||
      !reader.Read(kGctSeBTag, &se_b, error) ||
      !reader.Read(kGctSeWTag, &se_w, error)) {
    return false;
  }

  // Cheap structural pre-checks: sizes, monotone offsets, and bounds, so
  // that CheckInvariants below (which trusts offset arithmetic) cannot be
  // driven out of range or into an attacker-sized allocation.
  if (sn_offsets.size() != std::size_t{n} + 1 ||
      se_offsets.size() != std::size_t{n} + 1) {
    return Fail(error, "offsets size mismatch");
  }
  if (member_offsets.size() != sn_tau.size() + 1) {
    return Fail(error, "member offsets size mismatch");
  }
  if (se_a.size() != se_w.size() || se_b.size() != se_w.size()) {
    return Fail(error, "superedge arrays size mismatch");
  }
  if (sn_offsets[0] != 0 || sn_offsets[n] != sn_tau.size() ||
      se_offsets[0] != 0 || se_offsets[n] != se_w.size() ||
      member_offsets[0] != 0 || member_offsets.back() != members.size()) {
    return Fail(error, "offsets do not span their arrays");
  }
  for (VertexId v = 0; v < n; ++v) {
    if (sn_offsets[v] > sn_offsets[v + 1] ||
        se_offsets[v] > se_offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
  }
  for (std::size_t i = 0; i + 1 < member_offsets.size(); ++i) {
    if (member_offsets[i] > member_offsets[i + 1]) {
      return Fail(error, "member offsets not monotone");
    }
  }
  std::uint32_t seen_max_trussness = 0;
  for (const std::uint32_t tau : sn_tau) {
    seen_max_trussness = std::max(seen_max_trussness, tau);
  }
  if (seen_max_trussness != max_trussness) {
    return Fail(error, "max trussness mismatch");
  }
  // An ego-network truss of trussness τ has at least τ vertices, so τ ≤ n.
  // The per-k ranking slots are sized from this value.
  if (max_trussness > n) {
    return Fail(error, "max trussness exceeds the vertex count");
  }
  for (const VertexId member : members) {
    if (member >= n) return Fail(error, "member vertex out of range");
  }

  GctIndex index;
  index.sn_offsets_.BindView(sn_offsets);
  index.sn_tau_.BindView(sn_tau);
  index.member_offsets_.BindView(member_offsets);
  index.members_.BindView(members);
  index.se_offsets_.BindView(se_offsets);
  index.se_a_.BindView(se_a);
  index.se_b_.BindView(se_b);
  index.se_w_.BindView(se_w);
  index.max_trussness_ = max_trussness;
  index.mapping_ = reader.mapping();
  index.rankings_ = std::make_shared<RankingMemo>(max_trussness);

  // The deep semantic invariants (slice ordering, superedge weights, forest
  // acyclicity) are shared with the build-time checker; translate its CHECK
  // failures into this API's error-return discipline.
  try {
    index.CheckInvariants();
  } catch (const CheckError& e) {
    return Fail(error, e.what());
  }
  *out = std::move(index);
  return true;
}

void GctIndex::CheckInvariants() const {
  const VertexId n = num_vertices();
  TSD_CHECK(se_offsets_.size() == sn_offsets_.size());
  TSD_CHECK(sn_offsets_.back() == sn_tau_.size());
  TSD_CHECK(member_offsets_.size() == sn_tau_.size() + 1);
  TSD_CHECK(member_offsets_.back() == members_.size());
  TSD_CHECK(se_offsets_.back() == se_w_.size());
  TSD_CHECK(se_a_.size() == se_w_.size() && se_b_.size() == se_w_.size());

  // One union-find arena reused across vertices; a fresh DisjointSet per
  // vertex would make this pass allocation-bound on large graphs.
  DisjointSet forest;
  for (VertexId v = 0; v < n; ++v) {
    const auto sn_begin = sn_offsets_[v];
    const auto sn_end = sn_offsets_[v + 1];
    const std::uint32_t num_sn =
        static_cast<std::uint32_t>(sn_end - sn_begin);
    for (auto i = sn_begin; i + 1 < sn_end; ++i) {
      TSD_CHECK_MSG(sn_tau_[i] >= sn_tau_[i + 1],
                    "supernode trussness not descending at vertex " << v);
    }
    for (auto i = sn_begin; i < sn_end; ++i) {
      TSD_CHECK_MSG(sn_tau_[i] >= 2, "supernode trussness below 2");
      TSD_CHECK(member_offsets_[i + 1] > member_offsets_[i]);
    }
    forest.Reset(num_sn);
    const auto se_begin = se_offsets_[v];
    const auto se_end = se_offsets_[v + 1];
    for (auto i = se_begin; i < se_end; ++i) {
      TSD_CHECK(se_a_[i] < num_sn && se_b_[i] < num_sn);
      if (i + 1 < se_end) TSD_CHECK(se_w_[i] >= se_w_[i + 1]);
      const std::uint32_t tau_a = sn_tau_[sn_begin + se_a_[i]];
      const std::uint32_t tau_b = sn_tau_[sn_begin + se_b_[i]];
      TSD_CHECK_MSG(se_w_[i] <= tau_a && se_w_[i] <= tau_b,
                    "superedge heavier than its endpoints");
      TSD_CHECK_MSG(se_w_[i] < tau_a || se_w_[i] < tau_b,
                    "superedge endpoints should have merged");
      TSD_CHECK_MSG(forest.Union(se_a_[i], se_b_[i]),
                    "superedge cycle at vertex " << v);
    }
  }
}

}  // namespace tsd
