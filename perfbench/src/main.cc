// Benchmark driver. One run = one workload, one seed:
//
//   perfbench_driver --workload serve-gct --seed 1 --seconds 10 --trace 0
//
// It times the workload's set-up stages several times, computes reference
// answers (untimed), runs the workload for --seconds after a warm-up, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from spans (--trace 1) as the last stdout line, in the JSON shape
// README.md describes. `--prepare` writes the stand-in edge lists and
// query-bound's reference answers instead.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bound_search.h"
#include "core/query_session.h"
#include "graph/datasets.h"
#include "graph/edge_list_io.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr double kUpdatesPerSecond = 300;
constexpr double kProbeSeconds = 1.0;
constexpr std::size_t kUpdateLag = 64;

// Stand-in datasets (graph/datasets.h, "small" scale).
constexpr const char* kServeGraph = "livejournal";  // 40,000 vertices
constexpr const char* kBoundGraph = "gowalla";      // 25,000 vertices

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // required; run.py passes BENCHMARK.json run_seconds
  bool trace = false;
  bool prepare = false;
  std::string dir = ".bench_build";  // edge lists, snapshots, traces
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(const LoadResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

std::string EdgeListPath(const Args& args, const char* dataset) {
  return args.dir + "/data/" + dataset + "-small.txt";
}

std::string BoundAnswersPath(const Args& args) {
  return args.dir + "/data/" + kBoundGraph + "-small.answers";
}

/// Writes each file once, through a rename so a killed run leaves none
/// half-written. query-bound's answers come from a GctIndex built here, so
/// the index never enters the measured process.
void Prepare(const Args& args) {
  std::filesystem::create_directories(args.dir + "/data");
  for (const char* name : {kServeGraph, kBoundGraph}) {
    const std::string path = EdgeListPath(args, name);
    if (std::filesystem::exists(path)) continue;
    const std::string partial = path + ".partial";
    tsd::SaveEdgeListText(tsd::MakeDataset(name, "small"), partial);
    std::filesystem::rename(partial, path);
  }
  const std::string answers = BoundAnswersPath(args);
  if (!std::filesystem::exists(answers)) {
    const tsd::Graph graph = LoadGraph(EdgeListPath(args, kBoundGraph));
    SaveAnswers(answers + ".partial",
                SerialReference(BuildGct(graph), BoundMix()));
    std::filesystem::rename(answers + ".partial", answers);
  }
}

tsd::QueryOptions TwoThreads() {
  tsd::QueryOptions options;
  options.num_threads = 2;
  return options;
}

tsd::ShardedServeOptions TwoShards() {
  tsd::ShardedServeOptions options;
  options.num_shards = 2;
  options.shard.query_options.num_threads = 1;
  return options;
}

std::int64_t SecondsToNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

// ---- statistics -----------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("quantile of no samples");
  // Nearest-rank order statistic: the ceil(q*n)-th smallest value.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("mean of no samples");
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- workloads ------------------------------------------------------------

struct PhaseResult {
  LoadResult queries;
  LoadResult updates;  // live-update only
};

/// Query throughput and latency quantiles of one phase. The window is cut
/// into slices of `slice_seconds` (0 = one slice) and every figure is the
/// median over slices of the per-slice figure, so a few seconds of
/// interference from outside the benchmark move it less than they would
/// move a figure pooled over the whole window.
struct QueryFigures {
  double ops_per_s;
  double p50_ms;
  double p90_ms;
  double p99_ms;
};

QueryFigures SlicedFigures(const LoadResult& load, double slice_seconds) {
  const std::int64_t window = load.window_end_ns - load.window_start_ns;
  const std::int64_t slice =
      slice_seconds > 0 ? std::min(window, SecondsToNs(slice_seconds))
                        : window;
  const auto num_slices = static_cast<std::size_t>(window / slice);
  std::vector<std::vector<double>> latency(num_slices);
  for (const LoadResult::Sample& s : load.samples) {
    const auto index =
        static_cast<std::size_t>((s.done_ns - load.window_start_ns) / slice);
    if (index < num_slices) latency[index].push_back(s.latency_ms);
  }
  std::vector<double> ops, p50, p90, p99;
  for (const std::vector<double>& values : latency) {
    ops.push_back(static_cast<double>(values.size()) / (slice / 1e9));
    if (values.empty()) continue;  // a stalled slice still counts as 0/s
    p50.push_back(Quantile(values, 0.50));
    p90.push_back(Quantile(values, 0.90));
    p99.push_back(Quantile(values, 0.99));
  }
  return {Quantile(ops, 0.5), Quantile(p50, 0.5), Quantile(p90, 0.5),
          Quantile(p99, 0.5)};
}

/// A workload: set-up stages (timed), reference answers (untimed), the
/// timed phase, and, for its traced run, probes of the layers the timed
/// phase does not reach, run on the workload's own graph.
class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual int setup_reps() const { return 6; }
  /// Slice length for SlicedFigures: one second holds at least a thousand
  /// queries on the served workloads.
  virtual double slice_seconds() const { return 1.0; }
  /// Drops the previous set-up's state, then runs every set-up stage from
  /// the edge-list file to ready-to-answer; returns its wall seconds.
  virtual double Setup() = 0;
  virtual void PrepareReference() = 0;
  virtual PhaseResult RunPhase(double seconds) = 0;
  /// Checks after the last phase (live-update's final answers).
  virtual void Verify() {}
  /// Stops the threads that serve the current set-up's index.
  virtual void StopServing() {}
  virtual void RunProbes() = 0;
  virtual const tsd::Graph& graph() const = 0;

  Tally& tally() { return tally_; }

 protected:
  const Args args_;
  Tally tally_;
};

void ProbeBoundQueries(const tsd::Graph& graph) {
  const tsd::BoundSearcher bound(graph);
  const TracedSearcher traced(bound);
  tsd::QuerySession session(TwoThreads());
  for (const tsd::BatchQuery& q : BoundMix()) traced.TopR(q.r, q.k, session);
}

std::size_t UpdateSteps(double seconds) {
  // Each step is one remove plus (after the lag) one re-insert.
  return std::max<std::size_t>(
      kUpdateLag + 1,
      static_cast<std::size_t>(kUpdatesPerSecond * seconds / 2));
}

void ProbeUpdates(const tsd::Graph& graph, std::uint64_t seed, Tally& tally) {
  const std::unique_ptr<tsd::DynamicTsdIndex> index = BuildDynamic(graph);
  tsd::LiveUpdateApplier applier(*index);
  const std::vector<EdgeUpdate> plan =
      MakeUpdatePlan(graph, seed, UpdateSteps(kProbeSeconds), kUpdateLag);
  tally.Add(
      RunUpdateStream(applier, *index, plan, kUpdatesPerSecond, NowNs()));
}

void ProbeSnapshot(const tsd::Graph& graph, const tsd::GctIndex& gct,
                   const std::string& path) {
  SaveSnapshot(path, graph, gct);
  LoadSnapshot(path);
  std::filesystem::remove(path);
}

void ProbeServe(const tsd::GctIndex& gct, std::uint64_t seed, Tally& tally) {
  const TracedSearcher traced(gct);
  tsd::ShardedServeLoop loop(traced, TwoShards());
  loop.Start();
  const std::int64_t start = NowNs();
  const std::atomic<std::int64_t> stop{start + SecondsToNs(kProbeSeconds)};
  tally.Add(RunServeClients(loop, ServeMix(), nullptr, ClientConfig{2, 4, seed},
                            start, stop));
  loop.Shutdown();
}

/// serve-gct: the GCT index built once, persisted, and mmap-loaded, served
/// by two shards to two closed-loop clients with four requests in flight.
class ServeGct : public Workload {
 public:
  using Workload::Workload;

  double Setup() override {
    mapped_.reset();
    const std::int64_t start = NowNs();
    {
      const tsd::Graph graph = LoadGraph(EdgeListPath(args_, kServeGraph));
      const tsd::GctIndex gct = BuildGct(graph);
      SaveSnapshot(SnapshotPath(), graph, gct);
    }
    mapped_ = std::make_unique<MappedIndex>(LoadSnapshot(SnapshotPath()));
    return (NowNs() - start) / 1e9;
  }

  void PrepareReference() override {
    reference_ = SerialReference(mapped_->gct, mix_);
    traced_ = std::make_unique<TracedSearcher>(mapped_->gct);
    loop_ = std::make_unique<tsd::ShardedServeLoop>(*traced_, TwoShards());
    loop_->Start();
  }

  PhaseResult RunPhase(double seconds) override {
    PhaseResult result;
    const std::int64_t start = NowNs() + SecondsToNs(kWarmupSeconds);
    const std::atomic<std::int64_t> stop{start + SecondsToNs(seconds)};
    result.queries = RunServeClients(*loop_, mix_, &reference_,
                                     ClientConfig{2, 4, args_.seed}, start,
                                     stop);
    tally_.Add(result.queries);
    return result;
  }

  void StopServing() override { loop_.reset(); }

  void RunProbes() override {
    ProbeBoundQueries(mapped_->graph);
    ProbeUpdates(mapped_->graph, args_.seed, tally_);
  }

  const tsd::Graph& graph() const override { return mapped_->graph; }

 private:
  std::string SnapshotPath() const {
    return args_.dir + "/work/serve-gct.snap";
  }

  const std::vector<tsd::BatchQuery> mix_ = ServeMix();
  std::vector<tsd::TopRResult> reference_;
  std::unique_ptr<MappedIndex> mapped_;
  std::unique_ptr<TracedSearcher> traced_;
  std::unique_ptr<tsd::ShardedServeLoop> loop_;
};

/// query-bound: the index-free online search, one query at a time from
/// one caller on a two-thread session; answers checked against GCT.
class QueryBound : public Workload {
 public:
  using Workload::Workload;

  // Loading is the whole set-up here and takes milliseconds, so more
  // repetitions are needed for a steady median.
  int setup_reps() const override { return 21; }
  // A few queries per second: too few to slice, so figures pool the window.
  double slice_seconds() const override { return 0; }

  double Setup() override {
    searcher_.reset();
    graph_.reset();
    const std::int64_t start = NowNs();
    graph_ = std::make_unique<tsd::Graph>(
        LoadGraph(EdgeListPath(args_, kBoundGraph)));
    searcher_ = std::make_unique<tsd::BoundSearcher>(*graph_);
    return (NowNs() - start) / 1e9;
  }

  void PrepareReference() override {
    reference_ = LoadAnswers(BoundAnswersPath(args_));
    if (reference_.size() != mix_.size()) {
      throw std::runtime_error("reference answers do not match the mix");
    }
    traced_ = std::make_unique<TracedSearcher>(*searcher_);
    session_ = std::make_unique<tsd::QuerySession>(TwoThreads());
  }

  PhaseResult RunPhase(double seconds) override {
    PhaseResult result;
    LoadResult& q = result.queries;
    MixStream stream(mix_.size(), args_.seed);
    q.window_start_ns = NowNs() + SecondsToNs(kWarmupSeconds);
    q.window_end_ns = q.window_start_ns + SecondsToNs(seconds);
    while (NowNs() < q.window_end_ns) {
      const std::size_t combo = stream.Next();
      const std::int64_t begin = NowNs();
      const tsd::TopRResult answer =
          traced_->TopR(mix_[combo].r, mix_[combo].k, *session_);
      const std::int64_t end = NowNs();
      ++q.attempted;
      if (!SameAnswer(answer, reference_[combo])) ++q.failed;
      if (begin >= q.window_start_ns && end <= q.window_end_ns) {
        q.samples.push_back({end, (end - begin) / 1e6});
      }
    }
    tally_.Add(q);
    return result;
  }

  void RunProbes() override {
    ProbeUpdates(*graph_, args_.seed, tally_);
    const tsd::GctIndex gct = BuildGct(*graph_);
    ProbeSnapshot(*graph_, gct, args_.dir + "/work/query-bound.snap");
    ProbeServe(gct, args_.seed, tally_);
  }

  const tsd::Graph& graph() const override { return *graph_; }

 private:
  const std::vector<tsd::BatchQuery> mix_ = BoundMix();
  std::vector<tsd::TopRResult> reference_;
  std::unique_ptr<tsd::Graph> graph_;
  std::unique_ptr<tsd::BoundSearcher> searcher_;
  std::unique_ptr<TracedSearcher> traced_;
  std::unique_ptr<tsd::QuerySession> session_;
};

/// live-update: a DynamicTsdIndex served by two shards to one closed-loop
/// reader (eight in flight) while one updater applies a remove/re-insert
/// stream open-loop at kUpdatesPerSecond.
class LiveUpdate : public Workload {
 public:
  using Workload::Workload;

  double Setup() override {
    applier_.reset();
    index_.reset();
    graph_.reset();
    const std::int64_t start = NowNs();
    graph_ = std::make_unique<tsd::Graph>(
        LoadGraph(EdgeListPath(args_, kServeGraph)));
    index_ = BuildDynamic(*graph_);
    applier_ = std::make_unique<tsd::LiveUpdateApplier>(*index_);
    return (NowNs() - start) / 1e9;
  }

  void PrepareReference() override {
    reference_ = SerialReference(*index_, mix_);
    traced_ = std::make_unique<TracedSearcher>(*index_);
    loop_ = std::make_unique<tsd::ShardedServeLoop>(*traced_, TwoShards());
    loop_->Start();
  }

  PhaseResult RunPhase(double seconds) override {
    PhaseResult result;
    const std::vector<EdgeUpdate> plan = MakeUpdatePlan(
        *graph_, args_.seed, UpdateSteps(seconds), kUpdateLag);
    const std::int64_t start = NowNs() + SecondsToNs(kWarmupSeconds);
    std::atomic<std::int64_t> stop{std::numeric_limits<std::int64_t>::max()};
    std::exception_ptr reader_error;
    std::thread reader([&] {
      try {
        // Mid-stream answers legitimately differ from the reference, so
        // the reader checks status only.
        result.queries = RunServeClients(*loop_, mix_, nullptr,
                                         ClientConfig{1, 8, args_.seed},
                                         start, stop);
      } catch (...) {
        reader_error = std::current_exception();
      }
    });
    try {
      result.updates = RunUpdateStream(*applier_, *index_, plan,
                                       kUpdatesPerSecond, start);
    } catch (...) {
      stop.store(NowNs());
      reader.join();
      throw;
    }
    stop.store(NowNs());
    reader.join();
    if (reader_error) std::rethrow_exception(reader_error);
    tally_.Add(result.queries);
    tally_.Add(result.updates);
    return result;
  }

  /// The stream restores the initial graph, so every answer must again
  /// equal the reference bit for bit.
  void Verify() override {
    std::vector<tsd::Future<tsd::ServeReply>> replies;
    for (const tsd::BatchQuery& q : mix_) {
      replies.push_back(loop_->Submit(tsd::ServeRequest{1, q.k, q.r}));
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const tsd::ServeReply reply = replies[i].Get();
      ++tally_.attempted;
      if (reply.status != tsd::ServeStatus::kOk ||
          !SameAnswer(reply.result, reference_[i])) {
        ++tally_.failed;
      }
    }
  }

  void StopServing() override { loop_.reset(); }

  void RunProbes() override {
    ProbeBoundQueries(*graph_);
    const tsd::GctIndex gct = BuildGct(*graph_);
    ProbeSnapshot(*graph_, gct, args_.dir + "/work/live-update.snap");
  }

  const tsd::Graph& graph() const override { return *graph_; }

 private:
  const std::vector<tsd::BatchQuery> mix_ = ServeMix();
  std::vector<tsd::TopRResult> reference_;
  std::unique_ptr<tsd::Graph> graph_;
  std::unique_ptr<tsd::DynamicTsdIndex> index_;
  std::unique_ptr<tsd::LiveUpdateApplier> applier_;
  std::unique_ptr<TracedSearcher> traced_;
  std::unique_ptr<tsd::ShardedServeLoop> loop_;
};

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "serve-gct") return std::make_unique<ServeGct>(args);
  if (args.workload == "query-bound") {
    return std::make_unique<QueryBound>(args);
  }
  if (args.workload == "live-update") {
    return std::make_unique<LiveUpdate>(args);
  }
  throw std::invalid_argument("unknown workload: " + args.workload);
}

/// Standalone layer calls every traced run makes on its workload's graph:
/// the triangle counts and the truss decomposition the bound searcher's
/// preprocess runs, at every k of the bound mix.
void RunLayerSweep(const tsd::Graph& graph) {
  for (int rep = 0; rep < 3; ++rep) CountTriangles(graph, 2);
  for (const tsd::BatchQuery& q : BoundMix()) {
    DecomposeForK(graph, TwoThreads(), q.k);
  }
}

// ---- metrics --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<Span>& spans) {
    for (const Span& span : spans) by_name_[span.name].push_back(&span);
  }

  const std::vector<const Span*>& Of(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw std::runtime_error("traced run recorded no " + name + " span");
    }
    return it->second;
  }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span* span : Of(name)) out.push_back(span->duration_ms());
    return out;
  }

  std::vector<double> Attr(const std::string& name,
                           const std::string& key) const {
    std::vector<double> out;
    for (const Span* span : Of(name)) out.push_back(span->Get(key));
    return out;
  }

  /// Mean over k of the per-k mean of `key`: every k in the mix weighs the
  /// same, so the figure does not depend on how many queries of each k
  /// the run completed.
  double PerKMean(const std::string& name, const std::string& key) const {
    std::map<double, std::vector<double>> by_k;
    for (const Span* span : Of(name)) {
      by_k[span->Get("k")].push_back(span->Get(key));
    }
    double sum = 0;
    for (const auto& [k, values] : by_k) sum += Mean(values);
    return sum / static_cast<double>(by_k.size());
  }

 private:
  std::map<std::string, std::vector<const Span*>> by_name_;
};

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s,
                                    const QueryFigures& figures,
                                    double peak_rss_mb) {
  return {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"ops_per_s", figures.ops_per_s, "1/s"},
      {"p50_ms", figures.p50_ms, "ms"},
      {"p90_ms", figures.p90_ms, "ms"},
      {"p99_ms", figures.p99_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

/// Most retired-but-unfreed objects held at once during the update stream.
double UnreclaimedPeak(const SpanIndex& s) {
  double held = 0;
  double peak = 0;
  for (const Span* span : s.Of("server.ApplyUpdate")) {
    held += span->Get("epoch_retired") - span->Get("epoch_freed");
    peak = std::max(peak, held);
  }
  return peak;
}

std::vector<Metric> PerLayerMetrics(const SpanIndex& s, double untraced_ops,
                                    double traced_ops) {
  const std::vector<double> batch_ms = s.Durations("core.SearchBatch");
  const std::vector<double> updates = s.Durations("server.update");
  const std::vector<double> rebuilds =
      s.Attr("server.ApplyUpdate", "rebuilds");
  return {
      {"graph.load_text_ms",
       Quantile(s.Durations("graph.LoadEdgeListText"), 0.5), "ms"},
      {"graph.triangles_ms",
       Quantile(s.Durations("graph.TrianglesPerVertex"), 0.5), "ms"},
      {"truss.decompose_ms", Mean(s.Durations("truss.TrussDecomposition")),
       "ms"},
      {"truss.edges_pruned", s.PerKMean("core.TopR", "edges_pruned"),
       "count"},
      {"core.gct_build_ms",
       Quantile(s.Durations("core.GctIndex::Build"), 0.5), "ms"},
      {"core.gct_build.extraction_ms",
       Quantile(s.Attr("core.GctIndex::Build", "extraction_ms"), 0.5), "ms"},
      {"core.gct_build.decomposition_ms",
       Quantile(s.Attr("core.GctIndex::Build", "decomposition_ms"), 0.5),
       "ms"},
      {"core.gct_build.assembly_ms",
       Quantile(s.Attr("core.GctIndex::Build", "assembly_ms"), 0.5), "ms"},
      {"core.dynamic_build_ms",
       Quantile(s.Durations("core.DynamicTsdIndex::Build"), 0.5), "ms"},
      {"core.preprocess_ms", Mean(s.Attr("core.TopR", "preprocess_ms")),
       "ms"},
      {"core.score_ms", Mean(s.Attr("core.TopR", "score_ms")), "ms"},
      {"core.context_ms", Mean(s.Attr("core.TopR", "context_ms")), "ms"},
      {"core.vertices_scored", s.PerKMean("core.TopR", "vertices_scored"),
       "count"},
      {"core.batch_p50_ms", Quantile(batch_ms, 0.50), "ms"},
      {"core.batch_p99_ms", Quantile(batch_ms, 0.99), "ms"},
      {"core.batch_score_ms", Mean(s.Attr("core.SearchBatch", "score_ms")),
       "ms"},
      {"core.batch_context_ms",
       Mean(s.Attr("core.SearchBatch", "context_ms")), "ms"},
      {"core.dynamic_rebuilds_per_update",
       Sum(rebuilds) / static_cast<double>(rebuilds.size()), "count"},
      {"common.snapshot_save_ms",
       Quantile(s.Durations("common.SnapshotSave"), 0.5), "ms"},
      {"common.snapshot_load_ms",
       Quantile(s.Durations("common.SnapshotLoad"), 0.5), "ms"},
      {"common.epoch_retired",
       Sum(s.Attr("server.ApplyUpdate", "epoch_retired")), "count"},
      {"common.epoch_freed", Sum(s.Attr("server.ApplyUpdate", "epoch_freed")),
       "count"},
      {"common.epoch_unreclaimed_peak", UnreclaimedPeak(s), "count"},
      {"common.epoch_stalled_advances",
       Sum(s.Attr("server.ApplyUpdate", "epoch_stalled_advances")), "count"},
      {"server.submit_us", Mean(s.Durations("server.Submit")) * 1e3, "us"},
      {"server.mean_batch", Mean(s.Attr("core.SearchBatch", "size")),
       "count"},
      {"server.wait_ms", Mean(s.Durations("server.request")) - Mean(batch_ms),
       "ms"},
      {"server.update_apply_ms", Mean(s.Durations("server.ApplyUpdate")),
       "ms"},
      {"server.updater_lag_ms", Mean(s.Attr("server.update", "lag_ms")),
       "ms"},
      {"server.update_p50_ms", Quantile(updates, 0.50), "ms"},
      {"server.update_p99_ms", Quantile(updates, 0.99), "ms"},
      {"trace.ops_per_s", traced_ops, "1/s"},
      {"trace.overhead_pct", (untraced_ops - traced_ops) / untraced_ops * 100,
       "%"},
  };
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite metric");
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end);
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int Run(const Args& args) {
  if (args.prepare) {
    Prepare(args);
    return 0;
  }
  std::filesystem::create_directories(args.dir + "/work");
  Tracer& tracer = Tracer::Instance();
  std::unique_ptr<Workload> workload = MakeWorkload(args);

  // Half the set-up repetitions run before the timed phase and half after
  // it, so their median samples the host over the whole run rather than
  // over its first seconds.
  tracer.set_enabled(args.trace);
  std::vector<double> setup_s;
  const int reps_before = (workload->setup_reps() + 1) / 2;
  for (int i = 0; i < reps_before; ++i) setup_s.push_back(workload->Setup());
  workload->PrepareReference();

  // End-to-end figures come from an untraced phase; the traced run repeats
  // the phase with spans on, and the difference is the tracing overhead.
  tracer.set_enabled(false);
  // Peak RSS is read once serving is warm: after set-up, references and the
  // warm-up second, before the window and any update. Read after the
  // window, live-update's figure mostly measures whether epoch reclamation
  // happened to find no reader pinned (38-57 MB over runs of one build);
  // that growth is reported per layer as common.epoch_unreclaimed_peak.
  double peak_rss_mb = 0;
  std::jthread rss_reader([&peak_rss_mb] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    peak_rss_mb = PeakRssMb();
  });
  const PhaseResult untraced = workload->RunPhase(args.seconds);
  rss_reader.join();
  PhaseResult traced;
  if (args.trace) {
    tracer.set_enabled(true);
    traced = workload->RunPhase(args.seconds);
    tracer.set_enabled(false);
  }
  workload->Verify();
  workload->StopServing();
  tracer.set_enabled(args.trace);
  for (int i = reps_before; i < workload->setup_reps(); ++i) {
    setup_s.push_back(workload->Setup());
  }
  if (args.trace) {
    workload->RunProbes();
    RunLayerSweep(workload->graph());
    tracer.set_enabled(false);
  }
  const Tally tally = workload->tally();
  const double slice_seconds = workload->slice_seconds();
  workload.reset();  // joins every thread that may hold spans

  std::cerr << args.workload << " seed=" << args.seed
            << " queries=" << untraced.queries.samples.size()
            << " updates=" << untraced.updates.samples.size()
            << " setups=" << setup_s.size() << " (min "
            << *std::min_element(setup_s.begin(), setup_s.end()) << " s, max "
            << *std::max_element(setup_s.begin(), setup_s.end())
            << " s) attempted=" << tally.attempted
            << " failed=" << tally.failed << "\n";
  const QueryFigures figures = SlicedFigures(untraced.queries, slice_seconds);
  std::vector<Metric> metrics;
  if (args.trace) {
    const std::vector<Span> spans = tracer.Collect();
    std::filesystem::create_directories(args.dir + "/traces");
    const std::string path = args.dir + "/traces/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    Tracer::WriteJsonLines(spans, path);
    std::cerr << "spans: " << spans.size() << " -> " << path << "\n";
    metrics = PerLayerMetrics(
        SpanIndex(spans), figures.ops_per_s,
        SlicedFigures(traced.queries, slice_seconds).ops_per_s);
  } else {
    metrics = EndToEndMetrics(setup_s, figures, peak_rss_mb);
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  PrintResult(tally, metrics);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      args.prepare = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!args.prepare && !(args.seconds > 0)) {
    throw std::invalid_argument("--seconds is required and must be > 0");
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
