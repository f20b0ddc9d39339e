#include "truss/k_truss.h"

#include <algorithm>

#include "common/check.h"
#include "common/disjoint_set.h"
#include "truss/parallel_truss.h"
#include "truss/truss_plan.h"

namespace tsd {
namespace {

// A bulk round drops every sub-threshold edge at once and pays a full
// support recount on the survivors. That beats walking each dropped edge's
// triangles in the frontier peel once the dropped edges are at least a
// quarter of the live ones.
constexpr std::uint64_t kRecountShareDivisor = 4;

/// Groups vertices by their DSU root, keeping only vertices where
/// `include[v]` is true. Output components sorted by smallest member.
///
/// Roots are mapped to output slots through a dense root→slot vector
/// instead of a hash map (this runs once per materialized context, hot in
/// the context phase). Scanning vertices in ascending id order makes every
/// component's member list come out sorted and assigns slots in order of
/// each component's smallest member, so no sorting is needed at all.
std::vector<std::vector<VertexId>> CollectComponents(
    DisjointSet& dsu, const std::vector<char>& include) {
  constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> slot_of_root(include.size(), kNoSlot);
  std::vector<std::vector<VertexId>> components;
  for (VertexId v = 0; v < include.size(); ++v) {
    if (!include[v]) continue;
    const std::uint32_t root = dsu.Find(v);
    if (slot_of_root[root] == kNoSlot) {
      slot_of_root[root] = static_cast<std::uint32_t>(components.size());
      components.emplace_back();
    }
    components[slot_of_root[root]].push_back(v);
  }
  return components;
}

}  // namespace

std::vector<std::vector<VertexId>> MaximalConnectedKTrusses(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k) {
  TSD_CHECK(edge_trussness.size() == graph.num_edges());
  DisjointSet dsu(graph.num_vertices());
  std::vector<char> touched(graph.num_vertices(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (edge_trussness[e] >= k) {
      const Edge& edge = graph.edge(e);
      dsu.Union(edge.u, edge.v);
      touched[edge.u] = 1;
      touched[edge.v] = 1;
    }
  }
  return CollectComponents(dsu, touched);
}

std::vector<EdgeId> KTrussEdges(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k) {
  TSD_CHECK(edge_trussness.size() == graph.num_edges());
  std::vector<EdgeId> kept;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (edge_trussness[e] >= k) kept.push_back(e);
  }
  return kept;
}

Graph KTrussSubgraph(const Graph& graph,
                     const std::vector<std::uint32_t>& edge_trussness,
                     std::uint32_t k) {
  TSD_CHECK(edge_trussness.size() == graph.num_edges());
  std::vector<std::uint8_t> keep(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    keep[e] = edge_trussness[e] >= k ? 1 : 0;
  }
  return graph.EdgeSubgraph(keep);
}

std::uint64_t KTruss::TrianglesAt(VertexId v) const {
  std::uint64_t twice = 0;
  for (const EdgeId e : truss.incident_edges(v)) twice += support[e];
  return twice / 2;
}

KTruss KTrussPeel(const Graph& graph, std::uint32_t t,
                  const ParallelConfig& config) {
  using internal::kAlive;
  using internal::kFrontier;
  using internal::kRemoved;
  TSD_CHECK(t >= 2);
  const std::uint32_t min_support = t - 2;
  KTruss result;
  std::vector<std::uint32_t> support =
      internal::PeelSupport(graph, config, &result.stats.bitmap_kernel);

  // Bulk rounds. Survivors of a round are a sorted subsequence of the
  // current edges, so each round's graph is a linear filter of the last.
  const Graph* current = &graph;
  Graph survivors;
  std::vector<std::uint8_t> keep;
  for (;;) {
    const EdgeId m = current->num_edges();
    const auto below = static_cast<std::uint64_t>(
        std::count_if(support.begin(), support.end(),
                      [&](std::uint32_t s) { return s < min_support; }));
    if (below == 0 || below * kRecountShareDivisor < m) break;
    keep.resize(m);
    for (EdgeId e = 0; e < m; ++e) keep[e] = support[e] >= min_support;
    survivors = current->EdgeSubgraph(keep);
    current = &survivors;
    bool bitmap = false;
    support = internal::PeelSupport(survivors, config, &bitmap);
    result.stats.bitmap_kernel = result.stats.bitmap_kernel || bitmap;
    ++result.stats.recount_rounds;
  }

  // Frontier peel at the single threshold. Losses are applied unclamped:
  // every destroyed triangle is counted once per surviving edge, so the
  // supports of the edges left standing are exact in the truss.
  const EdgeId m = current->num_edges();
  std::vector<std::uint8_t> state(m, kAlive);
  std::vector<EdgeId> frontier;
  for (EdgeId e = 0; e < m; ++e) {
    if (support[e] < min_support) frontier.push_back(e);
  }
  if (!frontier.empty()) {
    internal::FrontierScatter scatter(m, config.num_threads);
    std::vector<EdgeId> next_frontier;
    while (!frontier.empty()) {
      for (const EdgeId e : frontier) state[e] = kFrontier;
      scatter.Scatter(*current, frontier, state, config);
      for (const EdgeId e : frontier) state[e] = kRemoved;
      next_frontier.clear();
      // An alive edge holds support ≥ min_support (lower ones joined a
      // frontier) and loses at most its support, so this never wraps.
      scatter.Drain([&](EdgeId e, std::uint32_t lost) {
        support[e] -= lost;
        if (support[e] < min_support) next_frontier.push_back(e);
      });
      frontier.swap(next_frontier);
    }
    keep.resize(m);
    std::size_t out = 0;
    for (EdgeId e = 0; e < m; ++e) {
      keep[e] = state[e] == kAlive;
      if (keep[e]) support[out++] = support[e];
    }
    support.resize(out);
    result.truss = current->EdgeSubgraph(keep);
  } else if (current == &survivors) {
    result.truss = std::move(survivors);
  } else {
    result.truss = graph;
  }
  result.support = std::move(support);
  result.stats.edges_left = result.truss.num_edges();
  result.stats.edges_pruned = graph.num_edges() - result.stats.edges_left;
  return result;
}

std::vector<std::vector<VertexId>> MaximalConnectedKCores(
    const Graph& graph, const std::vector<std::uint32_t>& core_numbers,
    std::uint32_t k) {
  TSD_CHECK(core_numbers.size() == graph.num_vertices());
  DisjointSet dsu(graph.num_vertices());
  std::vector<char> qualified(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    qualified[v] = core_numbers[v] >= k ? 1 : 0;
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    if (qualified[edge.u] && qualified[edge.v]) dsu.Union(edge.u, edge.v);
  }
  return CollectComponents(dsu, qualified);
}

std::vector<std::vector<VertexId>> ComponentsOfMinSize(
    const Graph& graph, std::uint32_t min_size) {
  DisjointSet dsu(graph.num_vertices());
  for (const Edge& edge : graph.edges()) dsu.Union(edge.u, edge.v);
  std::vector<char> include(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    include[v] = dsu.SetSize(v) >= min_size ? 1 : 0;
  }
  return CollectComponents(dsu, include);
}

}  // namespace tsd
