// Live-update serving bench (extension beyond the paper): epoch-versioned
// index maintenance under concurrent query traffic.
//
// The paper's Section 5.3 sketches dynamic maintenance; the serving system
// needs it *online* — updates applied while queries are in flight, with no
// reader locks. This bench quantifies that design on three axes:
//
//   1. Update latency alone (no readers): the per-update cost of rebuilding
//      the |A(u,v)| affected forests plus epoch bookkeeping.
//   2. Update latency under reader pressure: the same stream while N
//      threads hammer the lock-free Score/TopR paths. The delta is the
//      price of concurrency (epoch advances stall while readers are
//      pinned, deferring — never blocking on — reclamation).
//   3. Reader throughput with and without concurrent updates: what query
//      traffic pays for running against a live index instead of a frozen
//      one.
//
// Epoch-reclamation counters (retired/freed/stalled advances) are printed
// so regressions in the reclamation pipeline show up as unbounded limbo
// growth, not just as a latency number.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/query_session.h"
#include "server/live_index.h"

namespace {

using namespace tsd;

struct UpdatePhaseResult {
  double seconds = 0;
  std::uint64_t applied = 0;
  LiveUpdateStats stats;
};

/// Streams `count` randomized updates through an applier (the serving
/// layer's serialized front-end, so the bench measures the shipped path,
/// mutex and histogram included).
UpdatePhaseResult RunUpdates(LiveUpdateApplier& applier, VertexId n,
                             std::uint32_t count, std::uint64_t seed) {
  Rng rng(seed);
  WallTimer timer;
  UpdatePhaseResult result;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto v = static_cast<VertexId>(rng.Uniform(n));
    // Bias 2:1 toward inserts so density drifts up and rebuilds stay
    // representative of a graph under organic growth.
    if (applier.ApplyUpdate(/*insert=*/rng.Uniform(3) != 0, u, v)) {
      ++result.applied;
    }
  }
  result.seconds = timer.Seconds();
  result.stats = applier.stats();
  return result;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  bench::PrintHeader("Live-update serving (extension)",
                     "epoch-versioned maintenance under query traffic",
                     scale);

  const std::string dataset = flags.GetString("dataset", "gowalla");
  const auto updates =
      static_cast<std::uint32_t>(flags.GetInt("updates", 400));
  const auto readers =
      static_cast<std::uint32_t>(flags.GetInt("readers", 4));
  const Graph g = MakeDataset(dataset, scale);
  const VertexId n = g.num_vertices();
  std::cout << dataset << ": |V|=" << WithThousands(n)
            << " |E|=" << WithThousands(g.num_edges()) << "  updates/phase="
            << updates << "  readers=" << readers << "\n\n";

  TablePrinter table({"phase", "applied", "updates/s", "reader qps"});

  // Phase 1: updates with no readers.
  {
    DynamicTsdIndex index(g);
    LiveUpdateApplier applier(index);
    const UpdatePhaseResult r = RunUpdates(applier, n, updates, 11);
    table.Row("updates only", r.applied,
              FormatDouble(r.applied / r.seconds, 0), "-");
  }

  // Phase 2: the same update stream against `readers` query threads, plus
  // a reader-only control phase on the final graph for the throughput
  // comparison.
  DynamicTsdIndex index(g);
  LiveUpdateApplier applier(index);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < readers; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(1000 + t);
      QuerySession session;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<VertexId>(rng.Uniform(n));
        const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.Uniform(4));
        if (rng.Uniform(16) == 0) {
          index.TopR(10, k, session);
        } else {
          index.Score(v, k);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Don't start the clock until every reader is demonstrably running.
  while (queries.load(std::memory_order_relaxed) < readers) {
    std::this_thread::yield();
  }
  queries.store(0);
  const UpdatePhaseResult contended = RunUpdates(applier, n, updates, 11);
  const std::uint64_t contended_queries = queries.load();

  // Reader-only control: same threads keep running, updates stop. Floor
  // the window so fast update phases still yield a measurable rate.
  queries.store(0);
  WallTimer control_timer;
  const int control_ms =
      std::max(50, static_cast<int>(contended.seconds * 1000));
  std::this_thread::sleep_for(std::chrono::milliseconds(control_ms));
  const double control_seconds = control_timer.Seconds();
  const std::uint64_t control_queries = queries.load();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : pool) t.join();

  // Latency quantiles come from the applier's histogram; it accumulated
  // both phases, which is fine for a single-run table (phase 1 used its
  // own applier).
  const std::string stats_tables = applier.RenderStatsTables();
  table.Row("updates + readers", contended.applied,
            FormatDouble(contended.applied / contended.seconds, 0),
            FormatDouble(contended_queries / contended.seconds, 0));
  table.Row("readers only", std::uint64_t{0}, "-",
            FormatDouble(control_queries / control_seconds, 0));
  table.Print(std::cout);

  std::cout << "\n" << stats_tables;

  const EpochStats epochs = index.epoch_stats();
  std::cout << "\nReclamation: " << epochs.retired << " retired, "
            << epochs.freed << " freed, " << epochs.stalled_advances
            << " stalled advances (stalls defer frees while readers are "
               "pinned; unbounded retired-minus-freed growth would be a "
               "leak).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
