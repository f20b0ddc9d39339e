#include "layers.h"

#include <condition_variable>
#include <exception>
#include <fstream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/snapshot.h"
#include "core/query_pipeline.h"
#include "core/query_session.h"
#include "graph/edge_list_io.h"
#include "graph/triangle.h"
#include "trace.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

namespace perfbench {

// ---- graph/ -------------------------------------------------------------

tsd::Graph LoadGraph(const std::string& path) {
  ScopedSpan span("graph.LoadEdgeListText");
  return tsd::LoadEdgeListText(path);
}

void CountTriangles(const tsd::Graph& graph, std::uint32_t threads) {
  ScopedSpan span("graph.TrianglesPerVertex");
  tsd::TrianglesPerVertex(graph, tsd::ParallelConfig{threads});
}

// ---- truss/ -------------------------------------------------------------

void DecomposeForK(const tsd::Graph& graph, const tsd::QueryOptions& options,
                   std::uint32_t k) {
  const tsd::ParallelConfig config = tsd::ToParallelConfig(options);
  ScopedSpan span("truss.TrussDecomposition");
  const tsd::TrussDecomposition truss(
      graph, config, tsd::TrussPlan::FromAlgorithm(config.truss_plan, k + 1));
  span.Set("k", k);
  span.Set("edges_pruned",
           static_cast<double>(truss.plan_stats().edges_pruned));
}

// ---- core/ --------------------------------------------------------------

tsd::GctIndex BuildGct(const tsd::Graph& graph) {
  ScopedSpan span("core.GctIndex::Build");
  tsd::GctIndex::Options options;
  options.num_threads = 1;
  tsd::GctIndex gct = tsd::GctIndex::Build(graph, options);
  const tsd::IndexBuildStats stats = gct.build_stats();
  span.Set("extraction_ms", stats.extraction_seconds * 1e3);
  span.Set("decomposition_ms", stats.decomposition_seconds * 1e3);
  span.Set("assembly_ms", stats.assembly_seconds * 1e3);
  return gct;
}

std::unique_ptr<tsd::DynamicTsdIndex> BuildDynamic(const tsd::Graph& graph) {
  ScopedSpan span("core.DynamicTsdIndex::Build");
  return std::make_unique<tsd::DynamicTsdIndex>(graph);
}

tsd::TopRResult TracedSearcher::TopR(std::uint32_t r, std::uint32_t k,
                                     tsd::QuerySession& session) const {
  ScopedSpan span("core.TopR");
  tsd::TopRResult result = inner_.TopR(r, k, session);
  if (span.active()) {
    const tsd::SearchStats& stats = result.stats;
    span.Set("k", k);
    span.Set("preprocess_ms", stats.preprocess_seconds * 1e3);
    span.Set("score_ms", stats.score_seconds * 1e3);
    span.Set("context_ms", stats.context_seconds * 1e3);
    span.Set("edges_pruned", static_cast<double>(stats.edges_pruned));
    span.Set("vertices_scored", static_cast<double>(stats.vertices_scored));
  }
  return result;
}

std::vector<tsd::TopRResult> TracedSearcher::SearchBatch(
    std::span<const tsd::BatchQuery> queries,
    tsd::QuerySession& session) const {
  ScopedSpan span("core.SearchBatch");
  std::vector<tsd::TopRResult> results = inner_.SearchBatch(queries, session);
  if (span.active() && !results.empty()) {
    // Batch searchers stamp the batch's stats on every entry.
    const tsd::SearchStats& stats = results.front().stats;
    span.Set("size", static_cast<double>(queries.size()));
    span.Set("score_ms", stats.score_seconds * 1e3);
    span.Set("context_ms", stats.context_seconds * 1e3);
  }
  return results;
}

// ---- common/ ------------------------------------------------------------

void SaveSnapshot(const std::string& path, const tsd::Graph& graph,
                  const tsd::GctIndex& gct) {
  ScopedSpan span("common.SnapshotSave");
  tsd::SnapshotWriter writer(path);
  graph.AppendToSnapshot(writer);
  gct.AppendToSnapshot(writer);
  writer.Finish();
}

MappedIndex LoadSnapshot(const std::string& path) {
  ScopedSpan span("common.SnapshotLoad");
  tsd::SnapshotReader reader;
  MappedIndex out;
  std::string error;
  if (!tsd::SnapshotReader::Open(path, &reader, &error) ||
      !tsd::Graph::LoadFromSnapshot(reader, &out.graph, &error) ||
      !tsd::GctIndex::LoadFromSnapshot(reader, &out.gct, &error)) {
    throw std::runtime_error("snapshot load failed: " + error);
  }
  return out;
}

// ---- request mixes and reference answers ----------------------------------

std::vector<tsd::BatchQuery> ServeMix() {
  std::vector<tsd::BatchQuery> mix;
  for (std::uint32_t k = 2; k <= 6; ++k) {
    for (std::uint32_t r : {1U, 5U, 10U}) mix.push_back({k, r});
  }
  return mix;
}

std::vector<tsd::BatchQuery> BoundMix() {
  std::vector<tsd::BatchQuery> mix;
  for (std::uint32_t k = 2; k <= 6; ++k) mix.push_back({k, 10});
  return mix;
}

MixStream::MixStream(std::size_t mix_size, std::uint64_t seed)
    : block_(mix_size), pos_(mix_size), rng_(seed) {
  std::iota(block_.begin(), block_.end(), std::size_t{0});
}

std::size_t MixStream::Next() {
  if (pos_ == block_.size()) {
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

std::vector<tsd::TopRResult> SerialReference(
    const tsd::DiversitySearcher& searcher,
    std::span<const tsd::BatchQuery> mix) {
  tsd::QuerySession session{tsd::QueryOptions{}};
  std::vector<tsd::TopRResult> reference;
  reference.reserve(mix.size());
  for (const tsd::BatchQuery& query : mix) {
    reference.push_back(searcher.TopR(query.r, query.k, session));
  }
  return reference;
}

bool SameAnswer(const tsd::TopRResult& a, const tsd::TopRResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const tsd::TopREntry& x = a.entries[i];
    const tsd::TopREntry& y = b.entries[i];
    if (x.vertex != y.vertex || x.score != y.score ||
        x.contexts != y.contexts) {
      return false;
    }
  }
  return true;
}

void SaveAnswers(const std::string& path,
                 const std::vector<tsd::TopRResult>& answers) {
  std::ofstream out(path);
  out << answers.size() << "\n";
  for (const tsd::TopRResult& answer : answers) {
    out << answer.entries.size() << "\n";
    for (const tsd::TopREntry& entry : answer.entries) {
      out << entry.vertex << " " << entry.score << " "
          << entry.contexts.size() << "\n";
      for (const tsd::SocialContext& context : entry.contexts) {
        out << context.size();
        for (tsd::VertexId v : context) out << " " << v;
        out << "\n";
      }
    }
  }
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

std::vector<tsd::TopRResult> LoadAnswers(const std::string& path) {
  std::ifstream in(path);
  auto next = [&] {
    std::size_t value;
    if (!(in >> value)) throw std::runtime_error("malformed answers: " + path);
    return value;
  };
  std::vector<tsd::TopRResult> answers(next());
  for (tsd::TopRResult& answer : answers) {
    answer.entries.resize(next());
    for (tsd::TopREntry& entry : answer.entries) {
      entry.vertex = static_cast<tsd::VertexId>(next());
      entry.score = static_cast<std::uint32_t>(next());
      entry.contexts.resize(next());
      for (tsd::SocialContext& context : entry.contexts) {
        context.resize(next());
        for (tsd::VertexId& v : context) v = static_cast<tsd::VertexId>(next());
      }
    }
  }
  return answers;
}

// ---- server/ ------------------------------------------------------------

namespace {

constexpr std::size_t kTenantsPerShard = 16;

// Completion signal shared by a client and the OnReady hooks of its
// futures. Hooks may fire after the client has consumed the reply, so the
// state is shared-owned and the generation counter is only a wake hint.
struct Wake {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t generation = 0;

  void Notify() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++generation;
    }
    cv.notify_one();
  }
};

struct Slot {
  tsd::Future<tsd::ServeReply> future;
  std::int64_t submit_ns = 0;
  std::size_t combo = 0;
  std::uint64_t request = 0;
  std::uint64_t span_id = 0;
  bool active = false;
};

struct Completed {
  std::int64_t submit_ns;
  std::int64_t done_ns;
};

struct ClientOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Completed> completed;
};

ClientOutcome RunClient(tsd::ShardedServeLoop& loop,
                        const std::vector<std::vector<std::uint64_t>>& pools,
                        std::span<const tsd::BatchQuery> mix,
                        const std::vector<tsd::TopRResult>* reference,
                        std::uint32_t client, const ClientConfig& config,
                        const std::atomic<std::int64_t>& stop_ns) {
  Tracer& tracer = Tracer::Instance();
  const std::uint64_t client_seed = config.seed * 1000003 + client;
  MixStream stream(mix.size(), client_seed);
  tsd::Rng rng(client_seed ^ 0x5bd1e995ULL);
  auto wake = std::make_shared<Wake>();
  std::vector<Slot> slots(config.in_flight);
  std::uint64_t sent = 0;
  ClientOutcome out;

  auto submit = [&](Slot& slot) {
    const auto& pool = pools[sent % pools.size()];
    slot.combo = stream.Next();
    const tsd::ServeRequest request{pool[rng.Uniform(pool.size())],
                                    mix[slot.combo].k, mix[slot.combo].r};
    slot.request = (std::uint64_t{client} + 1) << 40 | sent;
    ++sent;
    slot.span_id = tracer.enabled() ? tracer.NewId() : 0;
    slot.submit_ns = NowNs();
    {
      ScopedSpan span("server.Submit", slot.request, slot.span_id);
      slot.future = loop.Submit(request);
    }
    slot.future.OnReady([wake] { wake->Notify(); });
    slot.active = true;
    ++out.attempted;
  };

  auto finish = [&](Slot& slot) {
    const std::int64_t done_ns = NowNs();
    const tsd::ServeReply reply = slot.future.Get();
    slot.active = false;
    out.completed.push_back({slot.submit_ns, done_ns});
    if (reply.status != tsd::ServeStatus::kOk ||
        (reference != nullptr &&
         !SameAnswer(reply.result, (*reference)[slot.combo]))) {
      ++out.failed;
    }
    if (slot.span_id != 0) {
      Span span;
      span.name = "server.request";
      span.id = slot.span_id;
      span.request = slot.request;
      span.start_ns = slot.submit_ns;
      span.end_ns = done_ns;
      span.Set("k", mix[slot.combo].k);
      span.Set("r", mix[slot.combo].r);
      tracer.Record(span);
    }
  };

  for (;;) {
    const bool stopping = NowNs() >= stop_ns.load(std::memory_order_relaxed);
    if (!stopping) {
      for (Slot& slot : slots) {
        if (!slot.active) submit(slot);
      }
    }
    std::uint64_t generation;
    {
      std::lock_guard<std::mutex> lock(wake->mutex);
      generation = wake->generation;
    }
    bool progressed = false;
    bool any_active = false;
    for (Slot& slot : slots) {
      if (slot.active && slot.future.Ready()) {
        finish(slot);
        progressed = true;
      }
      any_active = any_active || slot.active;
    }
    if (stopping && !any_active) break;
    if (!progressed) {
      std::unique_lock<std::mutex> lock(wake->mutex);
      wake->cv.wait(lock, [&] { return wake->generation != generation; });
    }
  }
  return out;
}

}  // namespace

LoadResult RunServeClients(tsd::ShardedServeLoop& loop,
                           std::span<const tsd::BatchQuery> mix,
                           const std::vector<tsd::TopRResult>* reference,
                           const ClientConfig& config,
                           std::int64_t window_start_ns,
                           const std::atomic<std::int64_t>& stop_ns) {
  // Seeded tenants, kTenantsPerShard routed to each shard.
  std::vector<std::vector<std::uint64_t>> pools(loop.num_shards());
  tsd::Rng rng(config.seed ^ 0x7e4a11c3ULL);
  for (std::size_t filled = 0; filled < pools.size();) {
    const std::uint64_t tenant = rng();
    auto& pool = pools[loop.ShardOf(tenant)];
    if (pool.size() < kTenantsPerShard) {
      pool.push_back(tenant);
      if (pool.size() == kTenantsPerShard) ++filled;
    }
  }

  std::vector<ClientOutcome> outcomes(config.clients);
  std::vector<std::exception_ptr> errors(config.clients);
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        outcomes[c] =
            RunClient(loop, pools, mix, reference, c, config, stop_ns);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  LoadResult result;
  result.window_start_ns = window_start_ns;
  result.window_end_ns = stop_ns.load();
  for (const ClientOutcome& outcome : outcomes) {
    result.attempted += outcome.attempted;
    result.failed += outcome.failed;
    for (const Completed& c : outcome.completed) {
      if (c.submit_ns >= result.window_start_ns &&
          c.done_ns <= result.window_end_ns) {
        result.samples.push_back({c.done_ns, (c.done_ns - c.submit_ns) / 1e6});
      }
    }
  }
  return result;
}

std::vector<EdgeUpdate> MakeUpdatePlan(const tsd::Graph& graph,
                                       std::uint64_t seed, std::size_t steps,
                                       std::size_t lag) {
  const std::span<const tsd::Edge> edges = graph.edges();
  if (edges.size() <= lag) throw std::invalid_argument("graph too small");
  tsd::Rng rng(seed ^ 0x2545f491ULL);
  std::vector<char> removed(edges.size(), 0);
  std::vector<std::size_t> window;  // removed edges, oldest first
  std::vector<EdgeUpdate> plan;
  plan.reserve(2 * steps);
  auto reinsert_oldest = [&] {
    const std::size_t e = window.front();
    window.erase(window.begin());
    removed[e] = 0;
    plan.push_back({true, edges[e].u, edges[e].v});
  };
  for (std::size_t i = 0; i < steps; ++i) {
    std::size_t e;
    do {
      e = rng.Uniform(edges.size());
    } while (removed[e] != 0);
    removed[e] = 1;
    window.push_back(e);
    plan.push_back({false, edges[e].u, edges[e].v});
    if (window.size() > lag) reinsert_oldest();
  }
  while (!window.empty()) reinsert_oldest();
  return plan;
}

LoadResult RunUpdateStream(tsd::LiveUpdateApplier& applier,
                           const tsd::DynamicTsdIndex& index,
                           std::span<const EdgeUpdate> plan, double rate_per_s,
                           std::int64_t start_ns) {
  Tracer& tracer = Tracer::Instance();
  LoadResult result;
  result.window_start_ns = start_ns;
  result.samples.reserve(plan.size());
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const auto due_ns =
        start_ns + static_cast<std::int64_t>(static_cast<double>(j) * 1e9 /
                                             rate_per_s);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns)));
    const bool traced = tracer.enabled();
    const std::uint64_t rebuilds_before = traced ? index.rebuild_count() : 0;
    const tsd::EpochStats epochs_before =
        traced ? index.epoch_stats() : tsd::EpochStats{};

    const std::int64_t begin_ns = NowNs();
    const EdgeUpdate& update = plan[j];
    const bool applied = applier.ApplyUpdate(update.insert, update.u, update.v);
    const std::int64_t end_ns = NowNs();

    ++result.attempted;
    if (!applied) ++result.failed;
    result.samples.push_back({end_ns, (end_ns - due_ns) / 1e6});
    if (traced) {
      const tsd::EpochStats epochs_after = index.epoch_stats();
      Span update_span;
      update_span.name = "server.update";
      update_span.id = tracer.NewId();
      update_span.start_ns = due_ns;
      update_span.end_ns = end_ns;
      update_span.Set("lag_ms", (begin_ns - due_ns) / 1e6);
      Span apply_span;
      apply_span.name = "server.ApplyUpdate";
      apply_span.id = tracer.NewId();
      apply_span.parent = update_span.id;
      apply_span.start_ns = begin_ns;
      apply_span.end_ns = end_ns;
      apply_span.Set("rebuilds", static_cast<double>(index.rebuild_count() -
                                                     rebuilds_before));
      apply_span.Set("epoch_retired", static_cast<double>(
                                          epochs_after.retired -
                                          epochs_before.retired));
      apply_span.Set("epoch_freed", static_cast<double>(
                                        epochs_after.freed -
                                        epochs_before.freed));
      apply_span.Set("epoch_stalled_advances",
                     static_cast<double>(epochs_after.stalled_advances -
                                         epochs_before.stalled_advances));
      tracer.Record(update_span);
      tracer.Record(apply_span);
    }
  }
  result.window_end_ns = NowNs();
  return result;
}

}  // namespace perfbench
