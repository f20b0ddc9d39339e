// Figure 9: search space (number of vertices whose exact structural
// diversity is computed) of baseline, bound, and TSD as k varies in {2..6}.
// TSD's column counts the forest slices its score-ceiling sweep reads, not
// the paper's slices scored in s̃core order.
#include <cstdint>
#include <iostream>

#include "bench_common.h"
#include "core/bound_search.h"
#include "core/online_search.h"
#include "core/tsd_index.h"

namespace {

using namespace tsd;

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string scale = flags.BenchScale();
  const auto r = static_cast<std::uint32_t>(flags.GetInt("r", 100));
  bench::PrintHeader("Figure 9", "search space vs k", scale);
  std::cout << "r=" << r << "\n";

  for (const auto& name : PlotDatasetNames()) {
    const Graph g = MakeDataset(name, scale);
    const std::uint32_t effective_r =
        std::min<std::uint32_t>(r, g.num_vertices());
    std::cout << "\n--- " << name << " ---\n";

    OnlineSearcher baseline(g);
    BoundSearcher bound(g);
    TsdIndex tsd = TsdIndex::Build(g);

    TablePrinter table({"k", "baseline", "bound", "TSD"});
    for (std::uint32_t k = 2; k <= 6; ++k) {
      table.Row(std::uint64_t{k},
                WithThousands(baseline.TopR(effective_r, k)
                                  .stats.vertices_scored),
                WithThousands(bound.TopR(effective_r, k)
                                  .stats.vertices_scored),
                WithThousands(tsd.TopR(effective_r, k)
                                  .stats.vertices_scored));
    }
    table.Print(std::cout);
  }
  std::cout << "\nTSD counts the forest slices read under the per-vertex "
               "score ceiling, in id\norder, not slices scored in s̃core "
               "order as in the paper, so TSD <= bound\nneed not hold "
               "here.\n";
  std::cout << "\nExpected shape (paper): baseline = |V| for every k; bound "
               "and TSD orders of\nmagnitude smaller, with TSD <= bound "
               "(the s̃core bound is tighter than Lemma 2).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
