// Pluggable truss-decomposition kernels behind one plan selector.
//
// Mirrors the KTrussPlan idiom of Katana-style graph engines: callers pick
// an algorithm (or let the auto-tuner pick) and every plan produces
// trussness bit-identical to the sequential Wang–Cheng peel — trussness is
// the unique fixed point of support peeling, so exact equality is the
// specification, and tests/truss_plan_test.cc enforces it differentially.
//
//  * Bsp           — the frontier-parallel peel of truss/parallel_truss.h,
//                    unchanged, as the reference plan.
//  * CoreThenTruss — runs the k-core machinery first and applies the
//                    Burkhardt core-number bound (arXiv:1806.05523): the
//                    k-truss is contained in the (k-1)-core, so
//                    trussness(e) ≤ min(core(u), core(v)) + 1 and every
//                    edge whose bound falls below the requested minimum
//                    trussness is pruned before any triangle counting.
//  * Auto          — picks one of the above from cheap one-pass statistics
//                    (degree skew and the consumption floor).
//
// Orthogonally to the peel choice, the support-computation stage may run a
// bitmap triangle kernel (per-vertex adjacency bitmaps + AND-popcount,
// reusing common/bitmap.h) when the graph is dense enough — the same
// density rule the ego decomposer uses, shared here as constants.
//
// min_trussness contract: with min_trussness == 2 (the default) every plan
// computes the full exact decomposition. A caller that only consumes edges
// of trussness ≥ t may pass min_trussness = t; then CoreThenTruss prunes
// edges whose core bound proves trussness < t and reports them with the
// trivial trussness 2. Reported values are exact for every edge whose true
// trussness is ≥ t, and provably below t (though possibly not exact)
// otherwise. No library searcher passes a floor above 2 any more: the
// bound searcher, which needs only the (k+1)-truss, peels it directly with
// KTrussPeel (truss/k_truss.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {

/// Cheap one-pass statistics over the degree sequence — the auto-tuner's
/// inputs, also printed by `tsdtool stats` so plan choices are explainable
/// from the CLI.
struct GraphStatistics {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// 2m / (n(n-1)) — fraction of possible edges present.
  double density = 0.0;
  /// 2m / n.
  double average_degree = 0.0;
  std::uint32_t max_degree = 0;
  /// max_degree / average_degree (1 for regular graphs, large for
  /// power-law graphs). 0 on empty graphs.
  double degree_skew = 0.0;
  /// Degree-sequence h-index: the largest h with at least h vertices of
  /// degree ≥ h. Upper-bounds the degeneracy (any subgraph of minimum
  /// degree d has more than d vertices of degree ≥ d in the full graph),
  /// and is computable in one histogram pass, unlike the degeneracy itself.
  std::uint32_t degeneracy_bound = 0;
};

/// One pass over the degree sequence; O(n + max_degree).
GraphStatistics ComputeGraphStatistics(const Graph& graph);

/// A truss-decomposition execution plan: which peel to run plus the
/// minimum trussness the caller will consume (see the contract above).
class TrussPlan {
 public:
  using Algorithm = TrussPlanAlgorithm;

  /// Default plan: auto-tuned, full exact decomposition.
  TrussPlan() = default;

  static TrussPlan Auto(std::uint32_t min_trussness = 2) {
    return TrussPlan(Algorithm::kAuto, min_trussness);
  }
  static TrussPlan Bsp() { return TrussPlan(Algorithm::kBsp, 2); }
  static TrussPlan CoreThenTruss(std::uint32_t min_trussness = 2) {
    return TrussPlan(Algorithm::kCoreThenTruss, min_trussness);
  }
  /// Plan for a config-carried algorithm tag (how searchers turn their
  /// QueryOptions into a plan, threading through the trussness floor they
  /// actually consume).
  static TrussPlan FromAlgorithm(Algorithm algorithm,
                                 std::uint32_t min_trussness = 2) {
    return TrussPlan(algorithm, min_trussness);
  }

  Algorithm algorithm() const { return algorithm_; }
  std::uint32_t min_trussness() const { return min_trussness_; }

 private:
  TrussPlan(Algorithm algorithm, std::uint32_t min_trussness)
      : algorithm_(algorithm),
        min_trussness_(min_trussness < 2 ? 2 : min_trussness) {}

  Algorithm algorithm_ = Algorithm::kAuto;
  std::uint32_t min_trussness_ = 2;
};

/// How a plan actually executed — resolution of kAuto, the pruning report,
/// and the tuner inputs that drove the choice.
struct TrussPlanStats {
  /// What the caller asked for.
  TrussPlanAlgorithm requested = TrussPlanAlgorithm::kAuto;
  /// What ran (never kAuto).
  TrussPlanAlgorithm algorithm = TrussPlanAlgorithm::kBsp;
  /// Whether supports were computed with the bitmap triangle kernel.
  bool bitmap_kernel = false;
  std::uint32_t min_trussness = 2;
  /// Edges dropped by the CoreThenTruss prefilter before triangle counting
  /// (0 for the other plans, and always 0 when min_trussness == 2).
  std::uint64_t edges_pruned = 0;
  /// The auto-tuner inputs (filled for every plan; cheap).
  GraphStatistics graph_stats;
};

/// The auto-tuner: deterministic pure function of the statistics and the
/// consumption floor (CoreThenTruss when the floor is above 2 and the degree
/// skew is at least 3, Bsp otherwise). Never returns kAuto.
TrussPlanAlgorithm ChooseTrussPlanAlgorithm(const GraphStatistics& stats,
                                            std::uint32_t min_trussness);

/// Edge trussness of `graph` under `plan`. Bit-identical to
/// PeelSupportToTrussness(graph, ComputeSupport(graph)) for every edge of
/// trussness ≥ plan.min_trussness(), at any thread count and for every
/// plan; with the default min_trussness == 2 that means bit-identical
/// everywhere. Fills `*stats` (optional) with the execution report.
std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats = nullptr);

/// CLI spellings: "auto", "bsp", "core-truss". The parser accepts exactly
/// the TrussPlanAlgorithmName of each plan.
std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name);
std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm);
/// Every CLI spelling, joined by ", " (for usage errors).
std::string TrussPlanAlgorithmNames();

namespace internal {

/// Scratch budget for the bitmap kernels: n adjacency bitmaps of n bits.
/// Shared with the ego decomposer's default (ego_truss.h).
inline constexpr std::size_t kBitmapBudgetBytes = std::size_t{64} << 20;

/// Density floors for the bitmap kernels, as m ≥ n² >> shift. The ego
/// decomposer's empirical split (m ≥ l²/1024) also credits the bitmap
/// *peeling* phase, which it runs; the global kernel only computes support
/// via AND-popcount — a per-edge cost of ~n/32 words against the marking
/// walk's forward-list lengths — so it demands a much denser graph before
/// the bitmaps win. On G(n, p) at 1 thread the two cross near n²/28.
inline constexpr unsigned kEgoBitmapDensityShift = 10;     // m ≥ l²/1024
inline constexpr unsigned kGlobalBitmapDensityShift = 5;   // m ≥ n²/32

/// True when n adjacency bitmaps of n bits fit the budget and the graph is
/// dense enough (m ≥ n² >> density_shift) that AND-popcount support beats
/// intersecting adjacency lists. One predicate shared by the ego decomposer's kAuto
/// rule and the global plan subsystem, with their respective density
/// floors above.
inline bool BitmapSupportEligible(std::uint64_t n, std::uint64_t m,
                                  std::size_t budget_bytes,
                                  unsigned density_shift) {
  if (n < 3 || m == 0) return false;
  const bool fits = n * n / 8 <= budget_bytes;
  const bool dense_enough = m >= (n * n) >> density_shift;
  return fits && dense_enough;
}

/// Edge supports via per-vertex adjacency bitmaps + AND-popcount. Equals
/// ComputeSupport(graph) bit-for-bit; only sensible when
/// BitmapSupportEligible holds.
std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config);

/// The support stage every global peel starts from: SupportViaBitmaps
/// when BitmapSupportEligible holds at the global density floor, the
/// marking triangle kernel (ComputeSupport) otherwise. Sets `*bitmap_kernel` to the
/// kernel that ran.
std::vector<std::uint32_t> PeelSupport(const Graph& graph,
                                       const ParallelConfig& config,
                                       bool* bitmap_kernel);

}  // namespace internal
}  // namespace tsd
