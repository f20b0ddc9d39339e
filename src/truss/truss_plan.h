// Compatibility shim: delete in the next benchmark PR (ROADMAP item 1).
//
// The global truss decomposition has one kernel (truss_decomposition.h),
// so there is no plan to pick. These names survive only because the
// benchmark's frozen perfbench/src/layers.cc still spells
// `TrussDecomposition(graph, config, TrussPlan::FromAlgorithm(
// config.truss_plan, k + 1))` and reads `plan_stats().edges_pruned`. The
// floor is ignored: that call runs the full exact decomposition and
// reports 0 edges pruned.
#pragma once

#include <cstdint>

#include "common/parallel.h"

namespace tsd {

/// Delete in the next benchmark PR (ROADMAP item 1).
class TrussPlan {
 public:
  static TrussPlan FromAlgorithm(LegacyPlanTag /*tag*/,
                                 std::uint32_t /*floor*/) {
    return {};
  }
};

/// Delete in the next benchmark PR (ROADMAP item 1).
struct TrussPlanStats {
  std::uint64_t edges_pruned = 0;  // always 0
};

}  // namespace tsd
