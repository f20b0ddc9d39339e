// k-truss / k-core subgraph extraction and component identification.
//
// "Maximal connected k-truss" is the paper's social-context unit (Def. 2):
// a connected component of the k-truss. Components are edge-induced — a
// vertex belongs to a component only if it is incident to a k-truss edge.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {

/// How KTrussPeel reached the t-truss, after Katana's KTrussStatistics.
struct KTrussStatistics {
  /// Edges of the t-truss.
  std::uint64_t edges_left = 0;
  /// Edges of the input outside the t-truss (m − edges_left).
  std::uint64_t edges_pruned = 0;
  /// Bulk rounds that dropped every edge below the support threshold at
  /// once and recounted supports on the survivors (0: the frontier peel
  /// did all the pruning).
  std::uint32_t recount_rounds = 0;
  /// Whether any support count ran the bitmap kernel.
  bool bitmap_kernel = false;
};

/// The t-truss of a graph together with each of its edges' support inside
/// it.
struct KTruss {
  /// Same vertex-id space and edge order as KTrussSubgraph(graph,
  /// trussness, t).
  Graph truss;
  /// support[e] = triangles of `truss` containing its edge e.
  std::vector<std::uint32_t> support;
  KTrussStatistics stats;

  /// Triangles of `truss` through v — the ego-network edge count m_v of
  /// Lemma 2 on the truss. Every such triangle has two edges at v, so this
  /// is Σ_{e∋v} support[e] / 2. O(deg(v)).
  std::uint64_t TrianglesAt(VertexId v) const;
};

/// The t-truss of `graph` (t ≥ 2) without computing any trussness:
/// supports from the global support stage, then bulk rounds that drop
/// every edge with support < t−2 and recount while such edges are at
/// least a quarter of the live edges, then a frontier-parallel peel at the
/// single threshold t−2 (truss/parallel_truss.h's scatter). The t-truss is
/// unique, so the result is identical at any thread count.
KTruss KTrussPeel(const Graph& graph, std::uint32_t t,
                  const ParallelConfig& config);

/// Connected components of the k-truss of `graph`, given precomputed edge
/// trussness. Each component is a sorted vertex list; components are sorted
/// by their smallest vertex for deterministic output.
std::vector<std::vector<VertexId>> MaximalConnectedKTrusses(
    const Graph& graph, const std::vector<std::uint32_t>& edge_trussness,
    std::uint32_t k);

/// Edge ids of the k-truss (trussness ≥ k).
std::vector<EdgeId> KTrussEdges(const Graph& graph,
                                const std::vector<std::uint32_t>& edge_trussness,
                                std::uint32_t k);

/// The k-truss as a standalone graph (same vertex id space; non-k-truss
/// edges dropped).
Graph KTrussSubgraph(const Graph& graph,
                     const std::vector<std::uint32_t>& edge_trussness,
                     std::uint32_t k);

/// Connected components of the subgraph induced by vertices with core
/// number ≥ k — the "maximal connected k-cores" of the Core-Div model [20].
std::vector<std::vector<VertexId>> MaximalConnectedKCores(
    const Graph& graph, const std::vector<std::uint32_t>& core_numbers,
    std::uint32_t k);

/// Connected components (of the whole graph) with at least `min_size`
/// vertices — the social contexts of the Comp-Div model [7], [21].
std::vector<std::vector<VertexId>> ComponentsOfMinSize(
    const Graph& graph, std::uint32_t min_size);

}  // namespace tsd
