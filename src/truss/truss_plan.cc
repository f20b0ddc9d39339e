#include "truss/truss_plan.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/bitmap.h"
#include "common/check.h"
#include "truss/core_decomposition.h"
#include "truss/parallel_truss.h"

namespace tsd {

GraphStatistics ComputeGraphStatistics(const Graph& graph) {
  GraphStatistics stats;
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();
  const std::uint64_t n = stats.num_vertices;
  const std::uint64_t m = stats.num_edges;
  if (n == 0) return stats;

  std::uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree,
                          static_cast<std::uint32_t>(graph.degree(v)));
  }
  stats.max_degree = max_degree;
  stats.average_degree = 2.0 * static_cast<double>(m) / static_cast<double>(n);
  stats.density = n > 1 ? 2.0 * static_cast<double>(m) /
                              (static_cast<double>(n) *
                               static_cast<double>(n - 1))
                        : 0.0;
  stats.degree_skew = stats.average_degree > 0.0
                          ? static_cast<double>(max_degree) /
                                stats.average_degree
                          : 0.0;

  // Degree-sequence h-index via one histogram pass: walk the degrees from
  // the top, accumulating how many vertices have degree ≥ d; the first d
  // reached by the running count is the h-index. d == 0 always qualifies,
  // so the loop terminates with a value.
  std::vector<std::uint64_t> degree_count(std::size_t{max_degree} + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++degree_count[graph.degree(v)];
  std::uint64_t at_least = 0;
  for (std::uint32_t d = max_degree;; --d) {
    at_least += degree_count[d];
    if (at_least >= d) {
      stats.degeneracy_bound = d;
      break;
    }
  }
  return stats;
}

TrussPlanAlgorithm ChooseTrussPlanAlgorithm(const GraphStatistics& stats,
                                            std::uint32_t min_trussness) {
  // A consumption floor above 2 makes the O(n + m) core prefilter worth its
  // price whenever the degree distribution is skewed: skew puts mass below
  // the floor's core bound, and every pruned edge skips its O(ρ) support
  // intersection and all peeling work entirely. Everything else runs the
  // reference frontier-parallel peel.
  if (min_trussness > 2 && stats.degree_skew >= 3.0) {
    return TrussPlanAlgorithm::kCoreThenTruss;
  }
  return TrussPlanAlgorithm::kBsp;
}

namespace internal {

std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config) {
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  std::vector<std::uint32_t> support(m, 0);
  if (m == 0) return support;

  // Adjacency bitmaps; each worker fills only its own vertices' rows, so
  // writes are disjoint and the result is independent of scheduling.
  std::vector<Bitmap> bits(n);
  ParallelForChunksIndexed(
      n, EffectiveChunks(config, n), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
          bits[v].Resize(n);
          for (const VertexId w : graph.neighbors(v)) bits[v].Set(w);
        }
      });

  // support(u, v) = |N(u) AND N(v)| — disjoint per-edge writes.
  ParallelForChunksIndexed(
      m, EffectiveChunks(config, m), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
          const auto [u, v] = graph.edge(e);
          support[e] = static_cast<std::uint32_t>(bits[u].AndPopcount(bits[v]));
        }
      });
  return support;
}

std::vector<std::uint32_t> PeelSupport(const Graph& graph,
                                       const ParallelConfig& config,
                                       bool* bitmap_kernel) {
  *bitmap_kernel = BitmapSupportEligible(graph.num_vertices(),
                                         graph.num_edges(), kBitmapBudgetBytes,
                                         kGlobalBitmapDensityShift);
  return *bitmap_kernel ? SupportViaBitmaps(graph, config)
                        : ComputeSupport(graph, config);
}

}  // namespace internal

namespace {

// Every plan, in the order the CLI lists them; the one spelling table
// behind ParseTrussPlanAlgorithm and TrussPlanAlgorithmNames.
constexpr std::array<TrussPlanAlgorithm, 3> kTrussPlanAlgorithms = {
    TrussPlanAlgorithm::kAuto, TrussPlanAlgorithm::kBsp,
    TrussPlanAlgorithm::kCoreThenTruss};

std::vector<std::uint32_t> RunPeel(const Graph& graph,
                                   const ParallelConfig& config,
                                   TrussPlanStats& stats) {
  return TrussnessFromSupport(
      graph, internal::PeelSupport(graph, config, &stats.bitmap_kernel),
      config);
}

// CoreThenTruss: prune every edge whose Burkhardt bound
// min(core(u), core(v)) + 1 proves its trussness below the floor, then peel
// the surviving subgraph. The k-truss is contained in the (k-1)-core, so
// trussness_G(e) ≤ min(core(u), core(v)) + 1 and pruning is sound; and
// because the pruned edges have trussness below the floor, they are not in
// any k-truss the caller consumes, so trussness restricted to the subgraph
// equals trussness in G for every surviving edge of trussness ≥ floor.
std::vector<std::uint32_t> RunCoreThenTruss(const Graph& graph,
                                            const TrussPlan& plan,
                                            const ParallelConfig& config,
                                            TrussPlanStats& stats) {
  const EdgeId m = graph.num_edges();
  const std::uint32_t core_floor = plan.min_trussness() - 1;
  const CoreDecomposition cores(graph);

  std::vector<std::pair<VertexId, VertexId>> kept_edges;
  std::vector<EdgeId> kept_ids;
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& edge = graph.edge(e);
    if (std::min(cores.core(edge.u), cores.core(edge.v)) >= core_floor) {
      kept_edges.emplace_back(edge.u, edge.v);
      kept_ids.push_back(e);
    }
  }
  stats.edges_pruned = m - kept_edges.size();
  if (stats.edges_pruned == 0) {
    // Nothing to prune (always the case at min_trussness == 2: every edge
    // endpoint has core ≥ 1); skip the subgraph rebuild.
    return RunPeel(graph, config, stats);
  }

  const Graph sub = Graph::FromEdges(std::move(kept_edges),
                                     graph.num_vertices());
  TSD_CHECK(sub.num_edges() == kept_ids.size());
  const std::vector<std::uint32_t> sub_trussness =
      RunPeel(sub, config, stats);

  // GraphBuilder sorts edges by (u, v) and the kept list is an (already
  // sorted) subsequence of graph.edges(), so subgraph edge i is exactly
  // kept_ids[i]. Pruned edges take the trivial trussness 2.
  std::vector<std::uint32_t> trussness(m, 2);
  for (std::size_t i = 0; i < kept_ids.size(); ++i) {
    trussness[kept_ids[i]] = sub_trussness[i];
  }
  return trussness;
}

}  // namespace

std::vector<std::uint32_t> TrussnessWithPlan(const Graph& graph,
                                             const TrussPlan& plan,
                                             const ParallelConfig& config,
                                             TrussPlanStats* stats) {
  TrussPlanStats local_stats;
  TrussPlanStats& out = stats != nullptr ? *stats : local_stats;
  out = TrussPlanStats{};
  out.requested = plan.algorithm();
  out.min_trussness = plan.min_trussness();
  out.graph_stats = ComputeGraphStatistics(graph);
  out.algorithm =
      plan.algorithm() == TrussPlanAlgorithm::kAuto
          ? ChooseTrussPlanAlgorithm(out.graph_stats, plan.min_trussness())
          : plan.algorithm();

  if (out.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
    return RunCoreThenTruss(graph, plan, config, out);
  }
  return RunPeel(graph, config, out);
}

std::optional<TrussPlanAlgorithm> ParseTrussPlanAlgorithm(
    std::string_view name) {
  for (const TrussPlanAlgorithm algorithm : kTrussPlanAlgorithms) {
    if (name == TrussPlanAlgorithmName(algorithm)) return algorithm;
  }
  return std::nullopt;
}

std::string TrussPlanAlgorithmName(TrussPlanAlgorithm algorithm) {
  switch (algorithm) {
    case TrussPlanAlgorithm::kAuto:
      return "auto";
    case TrussPlanAlgorithm::kBsp:
      return "bsp";
    case TrussPlanAlgorithm::kCoreThenTruss:
      return "core-truss";
  }
  TSD_CHECK(false);
  __builtin_unreachable();
}

std::string TrussPlanAlgorithmNames() {
  std::string names;
  for (const TrussPlanAlgorithm algorithm : kTrussPlanAlgorithms) {
    if (!names.empty()) names += ", ";
    names += TrussPlanAlgorithmName(algorithm);
  }
  return names;
}

}  // namespace tsd
