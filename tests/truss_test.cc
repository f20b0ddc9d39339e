// Tests for triangle listing, truss decomposition, core decomposition, and
// k-truss / k-core component extraction — validated on known graphs (cliques,
// cycles, the paper's Figure 1 / Figure 2 example) and against the naive
// reference implementations on random graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "reference_impls.h"
#include "truss/core_decomposition.h"
#include "truss/k_truss.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace tsd {
namespace {

Graph Clique(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(std::move(edges), n);
}

// Core numbers by the Core-Div baseline's kernel, over the graph's CSR
// narrowed to the 32-bit offsets that ego-networks use.
std::vector<std::uint32_t> CoreNumbers(const Graph& g) {
  std::vector<std::uint32_t> offsets;
  for (const std::uint64_t offset : g.offsets()) {
    offsets.push_back(static_cast<std::uint32_t>(offset));
  }
  return CoreNumbersCsr(g.num_vertices(), offsets, g.adjacency());
}

Graph Cycle(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return Graph::FromEdges(std::move(edges), n);
}

// ---------------------------------------------------------------- Triangles

TEST(TriangleTest, CliqueCount) {
  // C(n,3) triangles in K_n.
  EXPECT_EQ(CountTriangles(Clique(4)), 4u);
  EXPECT_EQ(CountTriangles(Clique(5)), 10u);
  EXPECT_EQ(CountTriangles(Clique(10)), 120u);
}

TEST(TriangleTest, TriangleFreeGraphs) {
  EXPECT_EQ(CountTriangles(Cycle(5)), 0u);
  EXPECT_EQ(CountTriangles(Cycle(8)), 0u);
  // Star graphs have no triangles.
  Graph star = Graph::FromEdges({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(CountTriangles(star), 0u);
}

TEST(TriangleTest, SupportMatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph g = ErdosRenyi(30, 120, seed);
    EXPECT_EQ(ComputeSupport(g), testing::NaiveSupport(g)) << "seed " << seed;
    EXPECT_EQ(CountTriangles(g), testing::NaiveTriangleCount(g));
  }
}

TEST(TriangleTest, ForEachTriangleReportsConsistentEdgeIds) {
  Graph g = ErdosRenyi(25, 90, 7);
  std::uint64_t count = 0;
  ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                         EdgeId e_uw, EdgeId e_vw) {
    EXPECT_EQ(g.FindEdge(u, v), e_uv);
    EXPECT_EQ(g.FindEdge(u, w), e_uw);
    EXPECT_EQ(g.FindEdge(v, w), e_vw);
    ++count;
  });
  EXPECT_EQ(count, CountTriangles(g));
}

// One listed triangle with its corners sorted by id: (a, b, c) and the ids
// of edges ab, ac, bc.
using ListedTriangle = std::array<std::uint32_t, 6>;

ListedTriangle SortedTriangle(VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                              EdgeId e_uw, EdgeId e_vw) {
  // Each edge is named by its opposite corner, so sorting the corners
  // carries the edge ids along.
  std::array<std::pair<VertexId, EdgeId>, 3> corner = {
      std::pair{u, e_vw}, std::pair{v, e_uw}, std::pair{w, e_uv}};
  std::sort(corner.begin(), corner.end());
  return {corner[0].first, corner[1].first, corner[2].first,
          corner[2].second, corner[1].second, corner[0].second};
}

// Every triple a < b < c of mutually adjacent vertices with its FindEdge
// ids, ascending.
std::vector<ListedTriangle> NaiveTriangles(const Graph& g) {
  std::vector<ListedTriangle> out;
  for (VertexId a = 0; a < g.num_vertices(); ++a) {
    for (VertexId b = a + 1; b < g.num_vertices(); ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < g.num_vertices(); ++c) {
        if (g.HasEdge(a, c) && g.HasEdge(b, c)) {
          out.push_back({a, b, c, g.FindEdge(a, b), g.FindEdge(a, c),
                         g.FindEdge(b, c)});
        }
      }
    }
  }
  return out;
}

// A star whose center is also in a clique: the center is the top-ranked
// corner of every clique triangle, and its forward list is empty.
Graph HubGraph() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId leaf = 1; leaf < 70; ++leaf) edges.emplace_back(0, leaf);
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v = u + 1; v < 9; ++v) edges.emplace_back(60 + u, 60 + v);
  }
  for (VertexId u = 60; u < 69; ++u) edges.emplace_back(0, u);
  return Graph::FromEdges(std::move(edges));
}

TEST(TriangleTest, ForEachTriangleListsEachTriangleOnce) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"gnp", ErdosRenyi(90, 700, 5)},
      {"hk", HolmeKim(120, 5, 0.7, 3)},
      {"hub", HubGraph()}};
  for (const auto& [name, g] : graphs) {
    const std::vector<ListedTriangle> oracle = NaiveTriangles(g);
    ASSERT_FALSE(oracle.empty()) << name;

    std::vector<ListedTriangle> listed;
    ForEachTriangle(g, [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                           EdgeId e_uw, EdgeId e_vw) {
      listed.push_back(SortedTriangle(u, v, w, e_uv, e_uw, e_vw));
    });
    std::sort(listed.begin(), listed.end());
    EXPECT_EQ(listed, oracle) << name;

    // Two back-to-back calls share one worker's marks; each must leave
    // them clear for the next.
    const internal::ForwardAdjacency fwd(g);
    const VertexId n = g.num_vertices();
    std::vector<EdgeId> mark(n, kInvalidEdge);
    std::vector<ListedTriangle> halves;
    const auto collect = [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                             EdgeId e_uw, EdgeId e_vw) {
      halves.push_back(SortedTriangle(u, v, w, e_uv, e_uw, e_vw));
    };
    internal::ForEachTriangleInRange(fwd, 0, n / 2, mark, collect);
    internal::ForEachTriangleInRange(fwd, n / 2, n, mark, collect);
    EXPECT_EQ(mark, std::vector<EdgeId>(n, kInvalidEdge)) << name;
    std::sort(halves.begin(), halves.end());
    EXPECT_EQ(halves, oracle) << name;

    const std::vector<std::uint32_t> support = ComputeSupport(g);
    const std::vector<std::uint64_t> per_vertex = TrianglesPerVertex(g);
    EXPECT_EQ(support, testing::NaiveSupport(g)) << name;
    EXPECT_EQ(CountTriangles(g), oracle.size()) << name;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      const ParallelConfig config{threads, 0};
      const std::string label = name + " threads=" + std::to_string(threads);
      EXPECT_EQ(ComputeSupport(g, config), support) << label;
      EXPECT_EQ(TrianglesPerVertex(g, config), per_vertex) << label;
      EXPECT_EQ(CountTriangles(g, config), oracle.size()) << label;
    }

    // A budget with room for one mark array runs one worker; one with
    // room for two marks but not for private counters runs two workers
    // on the shared-atomic counters.
    const std::uint64_t mark_bytes = std::uint64_t{n} * sizeof(EdgeId);
    for (const std::uint64_t budget : {mark_bytes, 2 * mark_bytes}) {
      const ParallelConfig config{8, 0};
      const std::string label = name + " budget=" + std::to_string(budget);
      EXPECT_EQ(internal::SupportFromForward(fwd, g.num_edges(), config,
                                             budget),
                support)
          << label;
      EXPECT_EQ(internal::TrianglesPerVertexFromForward(fwd, n, config,
                                                        budget),
                per_vertex)
          << label;
    }
  }
}

TEST(TriangleTest, TrianglesPerVertexSumsToThreeT) {
  Graph g = HolmeKim(300, 4, 0.5, 11);
  const auto per_vertex = TrianglesPerVertex(g);
  std::uint64_t sum = 0;
  for (auto c : per_vertex) sum += c;
  EXPECT_EQ(sum, 3 * CountTriangles(g));
}

// -------------------------------------------------------- Truss decomposition

TEST(TrussDecompositionTest, CliqueTrussnessIsN) {
  for (VertexId n : {3u, 4u, 5u, 7u}) {
    TrussDecomposition td(Clique(n));
    for (EdgeId e = 0; e < Clique(n).num_edges(); ++e) {
      EXPECT_EQ(td.trussness(e), n) << "K_" << n;
    }
    EXPECT_EQ(td.max_trussness(), n);
  }
}

TEST(TrussDecompositionTest, TriangleFreeGraphTrussnessIsTwo) {
  Graph g = Cycle(10);
  TrussDecomposition td(g);
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(td.trussness(e), 2u);
}

// Figure 2 of the paper: supports and trussness inside H1 (two 4-cliques
// {x1..x4}, {y1..y4} bridged by (x2,y1), (x4,y1)).
TEST(TrussDecompositionTest, PaperFigure2SupportsAndTrussness) {
  GraphBuilder b;
  // x1..x4 = 0..3, y1..y4 = 4..7.
  for (VertexId u = 0; u < 4; ++u)
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  for (VertexId u = 4; u < 8; ++u)
    for (VertexId v = u + 1; v < 8; ++v) b.AddEdge(u, v);
  b.AddEdge(1, 4);  // (x2, y1)
  b.AddEdge(3, 4);  // (x4, y1)
  Graph h1 = b.Build();

  const auto support = ComputeSupport(h1);
  // (x2,x4) gains a third triangle through y1.
  EXPECT_EQ(support[h1.FindEdge(1, 3)], 3u);
  EXPECT_EQ(support[h1.FindEdge(1, 4)], 1u);
  EXPECT_EQ(support[h1.FindEdge(3, 4)], 1u);
  EXPECT_EQ(support[h1.FindEdge(0, 1)], 2u);
  EXPECT_EQ(support[h1.FindEdge(4, 5)], 2u);

  TrussDecomposition td(h1);
  // Bridges have trussness 3, clique edges 4 (Figure 2(b)).
  EXPECT_EQ(td.trussness(h1.FindEdge(1, 4)), 3u);
  EXPECT_EQ(td.trussness(h1.FindEdge(3, 4)), 3u);
  EXPECT_EQ(td.trussness(h1.FindEdge(0, 1)), 4u);
  EXPECT_EQ(td.trussness(h1.FindEdge(1, 3)), 4u);
  EXPECT_EQ(td.trussness(h1.FindEdge(4, 7)), 4u);
  EXPECT_EQ(td.max_trussness(), 4u);
}

TEST(TrussDecompositionTest, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = ErdosRenyi(24, 100, seed);
    TrussDecomposition td(g);
    EXPECT_EQ(td.edge_trussness(), testing::NaiveTrussness(g))
        << "seed " << seed;
  }
}

TEST(TrussDecompositionTest, MatchesNaiveOnClusteredGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = HolmeKim(60, 5, 0.7, seed);
    TrussDecomposition td(g);
    EXPECT_EQ(td.edge_trussness(), testing::NaiveTrussness(g))
        << "seed " << seed;
  }
}

TEST(TrussDecompositionTest, KTrussSubgraphHasMinSupportInvariant) {
  // Property: inside the k-truss subgraph, every edge has support >= k-2.
  Graph g = HolmeKim(200, 5, 0.6, 3);
  TrussDecomposition td(g);
  for (std::uint32_t k = 3; k <= td.max_trussness(); ++k) {
    Graph truss = KTrussSubgraph(g, td.edge_trussness(), k);
    const auto support = ComputeSupport(truss);
    for (EdgeId e = 0; e < truss.num_edges(); ++e) {
      EXPECT_GE(support[e] + 2, k);
    }
  }
}

TEST(TrussDecompositionTest, VertexTrussnessIsMaxIncident) {
  Graph g = ErdosRenyi(40, 150, 9);
  TrussDecomposition td(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::uint32_t expected = 0;
    for (EdgeId e : g.incident_edges(v)) {
      expected = std::max(expected, td.trussness(e));
    }
    EXPECT_EQ(td.vertex_trussness(v), expected);
  }
}

TEST(TrussDecompositionTest, HistogramSumsToEdgeCount) {
  Graph g = HolmeKim(500, 6, 0.5, 4);
  TrussDecomposition td(g);
  const auto histogram = td.TrussnessHistogram();
  std::uint64_t total = 0;
  for (auto c : histogram) total += c;
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(histogram[0], 0u);
  EXPECT_EQ(histogram[1], 0u);
}

// -------------------------------------------------------- Core decomposition

TEST(CoreDecompositionTest, CliqueCoreIsNMinusOne) {
  const std::vector<std::uint32_t> core = CoreNumbers(Clique(6));
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(core[v], 5u);
}

TEST(CoreDecompositionTest, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = ErdosRenyi(40, 140, seed);
    EXPECT_EQ(CoreNumbers(g), testing::NaiveCoreNumbers(g))
        << "seed " << seed;
  }
}

TEST(CoreDecompositionTest, IsolatedVertexHasCoreZero) {
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {0, 2}}, 5);
  const std::vector<std::uint32_t> core = CoreNumbers(g);
  EXPECT_EQ(core[4], 0u);
  EXPECT_EQ(core[0], 2u);
}

// ------------------------------------------------- Components / k-trusses

TEST(KTrussTest, MaximalConnectedKTrussesOnTwoCliques) {
  // Two disjoint K4s joined by a single edge.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u)
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  for (VertexId u = 4; u < 8; ++u)
    for (VertexId v = u + 1; v < 8; ++v) b.AddEdge(u, v);
  b.AddEdge(3, 4);
  Graph g = b.Build();
  TrussDecomposition td(g);

  const auto trusses4 = MaximalConnectedKTrusses(g, td.edge_trussness(), 4);
  ASSERT_EQ(trusses4.size(), 2u);
  EXPECT_EQ(trusses4[0], (std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(trusses4[1], (std::vector<VertexId>{4, 5, 6, 7}));

  // At k=2 the bridge joins everything.
  const auto trusses2 = MaximalConnectedKTrusses(g, td.edge_trussness(), 2);
  ASSERT_EQ(trusses2.size(), 1u);
  EXPECT_EQ(trusses2[0].size(), 8u);
}

TEST(KTrussTest, KTrussEdgesCountsMatchHistogram) {
  Graph g = HolmeKim(300, 5, 0.6, 8);
  TrussDecomposition td(g);
  const auto histogram = td.TrussnessHistogram();
  for (std::uint32_t k = 2; k <= td.max_trussness(); ++k) {
    std::uint64_t expected = 0;
    for (std::uint32_t t = k; t < histogram.size(); ++t) {
      expected += histogram[t];
    }
    EXPECT_EQ(KTrussEdges(g, td.edge_trussness(), k).size(), expected);
  }
}

TEST(KTrussTest, MaximalConnectedKCores) {
  // K5 and K3 joined by a path; 4-core = the K5 only.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  b.AddEdge(4, 5).AddEdge(5, 6).AddEdge(6, 7).AddEdge(7, 8).AddEdge(6, 8);
  Graph g = b.Build();
  const std::vector<std::uint32_t> core = CoreNumbers(g);
  const auto cores4 = MaximalConnectedKCores(g, core, 4);
  ASSERT_EQ(cores4.size(), 1u);
  EXPECT_EQ(cores4[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  // Every vertex (including the path vertex 5) has degree >= 2, so the
  // whole graph is one connected 2-core.
  const auto cores2 = MaximalConnectedKCores(g, core, 2);
  ASSERT_EQ(cores2.size(), 1u);
  EXPECT_EQ(cores2[0].size(), 9u);
  // At k=3 only the K5 survives (the triangle {6,7,8} is a 2-core).
  const auto cores3 = MaximalConnectedKCores(g, core, 3);
  ASSERT_EQ(cores3.size(), 1u);
  EXPECT_EQ(cores3[0], (std::vector<VertexId>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(MaximalConnectedKCores(g, core, 5).empty());
}

TEST(KTrussTest, ComponentsOfMinSize) {
  // Components of size 4, 3, 2, 1.
  Graph g = Graph::FromEdges(
      {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {7, 8}}, 10);
  EXPECT_EQ(ComponentsOfMinSize(g, 2).size(), 3u);
  EXPECT_EQ(ComponentsOfMinSize(g, 3).size(), 2u);
  EXPECT_EQ(ComponentsOfMinSize(g, 4).size(), 1u);
  EXPECT_EQ(ComponentsOfMinSize(g, 5).size(), 0u);
}

}  // namespace
}  // namespace tsd
