// TrussPlan comparison: per-plan preprocess (decomposition) time for the
// full exact decomposition, then the thresholded CoreThenTruss prefilter
// against the Bsp baseline. Every plan's full decomposition is verified
// bit-identical to Bsp's before its row prints, and the thresholded run is
// verified exact on every edge at or above the floor, so the table can be
// read as a pure performance comparison. Each time is the median of
// kTimedRuns runs after one untimed warm-up, so no row absorbs the
// cold-start cost.
#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "truss/truss_plan.h"

namespace {

using namespace tsd;

constexpr std::size_t kTimedRuns = 3;

// Runs `plan` once untimed, then kTimedRuns times; returns the last run's
// trussness and stores the median wall time in `*seconds`.
std::vector<std::uint32_t> TimedTrussness(const Graph& g,
                                          const TrussPlan& plan,
                                          const ParallelConfig& config,
                                          TrussPlanStats* stats,
                                          double* seconds) {
  std::vector<std::uint32_t> trussness =
      TrussnessWithPlan(g, plan, config, stats);
  std::array<double, kTimedRuns> times{};
  for (double& time : times) {
    WallTimer timer;
    trussness = TrussnessWithPlan(g, plan, config, stats);
    time = timer.Seconds();
  }
  std::nth_element(times.begin(), times.begin() + kTimedRuns / 2, times.end());
  *seconds = times[kTimedRuns / 2];
  return trussness;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  bench::PrintHeader("TrussPlan kernels",
                     "pluggable peels + core-based prefiltering", scale);

  const std::string dataset = flags.GetString("dataset", "gowalla");
  const Graph g = MakeDataset(dataset, scale);
  std::cout << dataset << ": |V|=" << WithThousands(g.num_vertices())
            << " |E|=" << WithThousands(g.num_edges()) << "\n\n";

  const GraphStatistics gs = ComputeGraphStatistics(g);
  std::cout << "tuner stats: avg_deg=" << FormatDouble(gs.average_degree, 2)
            << " skew=" << FormatDouble(gs.degree_skew, 2)
            << " degen<=" << gs.degeneracy_bound << "\n\n";

  // Full exact decomposition (min_trussness = 2) under every plan. At this
  // floor CoreThenTruss prunes nothing (every edge endpoint has core ≥ 1),
  // so its row measures the prefilter's pure overhead.
  const std::uint32_t threads =
      static_cast<std::uint32_t>(flags.GetInt("threads", 4));
  std::cout << "Full decomposition (" << threads << " threads):\n";
  TablePrinter full({"plan", "resolved", "kernel", "time"});
  const ParallelConfig config{threads, 0};
  std::vector<std::uint32_t> reference;
  for (const TrussPlanAlgorithm algorithm :
       {TrussPlanAlgorithm::kBsp, TrussPlanAlgorithm::kCoreThenTruss,
        TrussPlanAlgorithm::kAuto}) {
    TrussPlanStats stats;
    double seconds = 0;
    const std::vector<std::uint32_t> trussness = TimedTrussness(
        g, TrussPlan::FromAlgorithm(algorithm), config, &stats, &seconds);
    if (reference.empty()) {
      reference = trussness;
    } else if (trussness != reference) {
      std::cerr << "FATAL: plan " << TrussPlanAlgorithmName(algorithm)
                << " diverged from bsp\n";
      return 1;
    }
    full.Row(TrussPlanAlgorithmName(algorithm),
             TrussPlanAlgorithmName(stats.algorithm),
             stats.bitmap_kernel ? "bitmap" : "merge", HumanSeconds(seconds));
  }
  full.Print(std::cout);

  // Thresholded preprocess at 1 thread (the acceptance comparison): a
  // caller that only consumes the k-truss — the bound searcher sparsifying
  // to the (k+1)-truss — passes min_trussness = k, and the core prefilter
  // drops every edge whose Burkhardt bound proves it irrelevant before any
  // triangle counting happens.
  const std::uint32_t floor_k =
      static_cast<std::uint32_t>(flags.GetInt("min-trussness", 10));
  std::cout << "\nThresholded preprocess (min_trussness=" << floor_k
            << ", 1 thread):\n";
  const ParallelConfig single{1, 0};

  double bsp_seconds = 0;
  const std::vector<std::uint32_t> bsp_trussness = TimedTrussness(
      g, TrussPlan::Bsp(), single, nullptr, &bsp_seconds);

  TrussPlanStats core_stats;
  double core_seconds = 0;
  const std::vector<std::uint32_t> core_trussness =
      TimedTrussness(g, TrussPlan::CoreThenTruss(floor_k), single,
                     &core_stats, &core_seconds);

  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (bsp_trussness[e] >= floor_k &&
        core_trussness[e] != bsp_trussness[e]) {
      std::cerr << "FATAL: core-truss diverged from bsp at edge " << e
                << " (trussness " << bsp_trussness[e] << " above the floor)\n";
      return 1;
    }
  }

  TablePrinter thresholded({"plan", "edges pruned", "pruned %", "time"});
  thresholded.Row("bsp", std::uint64_t{0}, FormatDouble(0.0, 1),
                  HumanSeconds(bsp_seconds));
  thresholded.Row(
      "core-truss", core_stats.edges_pruned,
      FormatDouble(100.0 * static_cast<double>(core_stats.edges_pruned) /
                       static_cast<double>(g.num_edges()),
                   1),
      HumanSeconds(core_seconds));
  thresholded.Print(std::cout);
  std::cout << "core-truss is "
            << FormatDouble(bsp_seconds / core_seconds, 2)
            << "x the bsp baseline's speed at this floor.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
