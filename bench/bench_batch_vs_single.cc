// Batch vs single-query amortization: the fig8/fig15 workload re-runs the
// full per-vertex scan once per k even though one ego decomposition
// determines a vertex's score at every k. This benchmark runs the same
// (k, r) workload twice per method — as a loop of TopR calls, each a
// one-query batch, and as one SearchBatch — verifies the answers are
// bit-identical, and reports the wall-time speedup plus the scan sizes: for
// the ego-decomposition methods the one-query loop performs one
// decomposition per (vertex, k) while the batch performs one per vertex.
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/bound_search.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/tsd_index.h"

namespace {

using namespace tsd;

bool SameEntries(const TopRResult& a, const TopRResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    if (a.entries[i].vertex != b.entries[i].vertex ||
        a.entries[i].score != b.entries[i].score ||
        a.entries[i].contexts != b.entries[i].contexts) {
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  const auto r = static_cast<std::uint32_t>(flags.GetInt("r", 25));
  const QueryOptions query_options = QueryOptionsFromFlags(flags);
  bench::PrintHeader("Batch amortization",
                     "one decomposition pass vs one pass per k", scale);

  std::vector<BatchQuery> queries;
  for (std::uint32_t k = 2; k <= 6; ++k) queries.push_back({k, r});
  std::cout << "workload: k=2..6, r=" << r
            << ", threads=" << query_options.num_threads << "\n";
  std::cout << "one-query: a TopR call per k, each a one-query batch; "
               "batch: one SearchBatch\nof all five queries.\n";

  for (const auto& name : PlotDatasetNames()) {
    const Graph g = MakeDataset(name, scale);
    std::vector<BatchQuery> workload = queries;
    for (BatchQuery& query : workload) {
      query.r = std::min<std::uint32_t>(query.r, g.num_vertices());
    }
    std::cout << "\n--- " << name << " (|V|="
              << WithThousands(g.num_vertices())
              << ", |E|=" << WithThousands(g.num_edges()) << ") ---\n";

    OnlineSearcher online(g);
    BoundSearcher bound(g);
    TsdIndex tsd = TsdIndex::Build(g);
    GctIndex gct = GctIndex::Build(g);
    HybridSearcher hybrid(g, gct, query_options.num_threads);
    const std::vector<DiversitySearcher*> searchers = {&online, &bound, &tsd,
                                                       &gct, &hybrid};

    TablePrinter table({"method", "one-query", "batch", "speedup",
                        "scanned one-query", "scanned batch", "identical"});
    for (DiversitySearcher* searcher : searchers) {
      searcher->set_query_options(query_options);

      WallTimer single_timer;
      std::vector<TopRResult> single;
      std::uint64_t single_scanned = 0;
      for (const BatchQuery& query : workload) {
        single.push_back(searcher->TopR(query.r, query.k));
        single_scanned += single.back().stats.vertices_scored;
      }
      const double single_seconds = single_timer.Seconds();

      WallTimer batch_timer;
      const std::vector<TopRResult> batch = searcher->SearchBatch(workload);
      const double batch_seconds = batch_timer.Seconds();

      bool identical = batch.size() == single.size();
      for (std::size_t q = 0; identical && q < batch.size(); ++q) {
        identical = SameEntries(single[q], batch[q]);
      }

      table.Row(searcher->name(), HumanSeconds(single_seconds),
                HumanSeconds(batch_seconds),
                FormatDouble(single_seconds / std::max(batch_seconds, 1e-9),
                             2) +
                    "x",
                WithThousands(single_scanned),
                WithThousands(batch[0].stats.vertices_scored),
                identical ? "yes" : "NO");
    }
    table.Print(std::cout);
  }
  std::cout << "\nExpected shape: the ego-decomposition methods (baseline, "
               "bound) amortize one\ndecomposition per vertex across all "
               "five k (scanned batch ≈ scanned one-query / 5\nfor baseline); "
               "the index methods amortize the per-k scan and the winners' "
               "context\nphase. 'identical' must read yes everywhere.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
