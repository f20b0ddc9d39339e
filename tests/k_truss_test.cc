// The k-truss layer without trussness: the direct k-truss peel
// (KTrussPeel) against the trussness-derived k-truss, the bitmap support
// kernel of the support stage (truss/support.h) against the marking
// kernel, and the bound searcher's ordered batch scan (small total r),
// which runs on that peel, against the per-query reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "truss/k_truss.h"
#include "truss/peeling.h"
#include "truss/support.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

// Same five graphs as the parallel-truss differential suite.
std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

std::vector<ParallelConfig> ThreadConfigs() {
  // 0 chunks = auto; the 5-chunk case exercises uneven chunk boundaries.
  return {ParallelConfig{1, 0}, ParallelConfig{2, 0}, ParallelConfig{2, 5},
          ParallelConfig{8, 0}};
}

std::vector<std::uint32_t> SequentialTrussness(const Graph& g) {
  CsrView<std::uint64_t> view;
  view.num_vertices = g.num_vertices();
  view.edges = g.edges();
  view.offsets = g.offsets();
  view.adj = g.adjacency();
  view.adj_edge_ids = g.adjacency_edge_ids();
  return PeelSupportToTrussness(view, ComputeSupport(g));
}

Graph Clique(VertexId n) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph::FromEdges(std::move(edges), n);
}

void ExpectSameEntries(const TopRResult& actual, const TopRResult& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.entries.size(), expected.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex) << label;
    EXPECT_EQ(actual.entries[i].score, expected.entries[i].score) << label;
    EXPECT_EQ(actual.entries[i].contexts, expected.entries[i].contexts)
        << label;
  }
}

// ------------------------------------------------ bitmap support kernel

TEST(BitmapSupportKernelTest, MatchesMergeIntersection) {
  const Graph clique = Clique(120);
  const Graph dense_er = ErdosRenyi(300, 8000, 9);
  for (const Graph* g : {&clique, &dense_er}) {
    ASSERT_TRUE(internal::BitmapSupportEligible(
        g->num_vertices(), g->num_edges(), internal::kBitmapBudgetBytes,
        internal::kGlobalBitmapDensityShift));
    const std::vector<std::uint32_t> expected = ComputeSupport(*g);
    for (const ParallelConfig& config : ThreadConfigs()) {
      EXPECT_EQ(internal::SupportViaBitmaps(*g, config), expected)
          << "threads=" << config.num_threads;
    }
    // Dense graphs route the global decomposition's support stage through
    // the bitmap kernel; the trussness must not move.
    const TrussDecomposition decomposition(*g, ParallelConfig{2, 0});
    EXPECT_EQ(decomposition.edge_trussness(), SequentialTrussness(*g));
    EXPECT_TRUE(decomposition.bitmap_kernel());
  }
}

TEST(BitmapSupportKernelTest, EligibilityRule) {
  const std::size_t budget = internal::kBitmapBudgetBytes;
  // Degenerate inputs never qualify.
  EXPECT_FALSE(internal::BitmapSupportEligible(2, 1, budget, 6));
  EXPECT_FALSE(internal::BitmapSupportEligible(100, 0, budget, 6));
  // Density floor is m ≥ n² >> shift (here 10000 >> 6 = 156).
  EXPECT_TRUE(internal::BitmapSupportEligible(100, 156, budget, 6));
  EXPECT_FALSE(internal::BitmapSupportEligible(100, 155, budget, 6));
  // The ego shift admits much sparser graphs (10000 >> 10 = 9).
  EXPECT_TRUE(internal::BitmapSupportEligible(100, 9, budget, 10));
  // n bitmaps of n bits must fit the budget.
  EXPECT_FALSE(
      internal::BitmapSupportEligible(100, 5000, /*budget_bytes=*/100, 6));
}

// ------------------------------------------------ direct k-truss peel

// Disjoint 5-cliques, each with a fan of degree-2 vertices on one clique
// edge: every fan edge has support 1, so at t = 4 the first frontier holds
// all 4,200 of them — above the 512-edges-per-worker threaded scatter
// threshold at 8 threads — yet under a quarter of the 24,200 live edges,
// so the bulk recount does not take them. Each fan triangle's clique edge
// loses one triangle per fan vertex, applied from several workers.
Graph LargeFrontierGraph() {
  constexpr VertexId kCliques = 2000;
  constexpr VertexId kFanVertices = 2100;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId c = 0; c < kCliques; ++c) {
    for (VertexId i = 0; i < 5; ++i) {
      for (VertexId j = i + 1; j < 5; ++j) {
        edges.emplace_back(5 * c + i, 5 * c + j);
      }
    }
  }
  for (VertexId f = 0; f < kFanVertices; ++f) {
    const VertexId x = 5 * kCliques + f;
    const VertexId clique = f % kCliques;
    edges.emplace_back(x, 5 * clique);
    edges.emplace_back(x, 5 * clique + 1);
  }
  return Graph::FromEdges(std::move(edges));
}

template <typename T>
std::vector<T> AsVector(std::span<const T> values) {
  return std::vector<T>(values.begin(), values.end());
}

// For every t in [2, τ*+1], at 1/2/8 threads: the peel's graph is exactly
// KTrussSubgraph of the full decomposition (same edge order, same CSR),
// its supports are the truss's own supports, and the m_v it derives from
// them are the truss's per-vertex triangle counts.
TEST(KTrussPeelDifferentialTest, MatchesTrussnessDerivedSubgraph) {
  std::vector<GraphCase> cases = TestGraphs();
  cases.push_back({"dense_er_bitmap", ErdosRenyi(300, 8000, 9)});
  cases.push_back({"large_frontier", LargeFrontierGraph()});
  bool saw_recount = false;
  bool saw_peel_only = false;
  for (const GraphCase& test_case : cases) {
    const Graph& g = test_case.graph;
    const std::vector<std::uint32_t> trussness = SequentialTrussness(g);
    std::uint32_t max_trussness = 2;
    for (const std::uint32_t tau : trussness) {
      max_trussness = std::max(max_trussness, tau);
    }
    for (std::uint32_t t = 2; t <= max_trussness + 1; ++t) {
      const Graph expected = KTrussSubgraph(g, trussness, t);
      const std::vector<std::uint32_t> expected_support =
          ComputeSupport(expected);
      const std::vector<std::uint64_t> expected_triangles =
          TrianglesPerVertex(expected);
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        const std::string label = test_case.name + " t=" + std::to_string(t) +
                                  " threads=" + std::to_string(threads);
        const KTruss peeled = KTrussPeel(g, t, ParallelConfig{threads, 0});
        ASSERT_EQ(peeled.truss.num_vertices(), g.num_vertices()) << label;
        ASSERT_EQ(AsVector(peeled.truss.edges()), AsVector(expected.edges()))
            << label;
        EXPECT_EQ(AsVector(peeled.truss.offsets()),
                  AsVector(expected.offsets()))
            << label;
        EXPECT_EQ(AsVector(peeled.truss.adjacency_edge_ids()),
                  AsVector(expected.adjacency_edge_ids()))
            << label;
        EXPECT_EQ(peeled.support, expected_support) << label;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          ASSERT_EQ(peeled.TrianglesAt(v), expected_triangles[v])
              << label << " v=" << v;
        }
        EXPECT_EQ(peeled.stats.edges_left, expected.num_edges()) << label;
        EXPECT_EQ(peeled.stats.edges_pruned,
                  g.num_edges() - expected.num_edges())
            << label;
        if (test_case.name == "dense_er_bitmap") {
          EXPECT_TRUE(peeled.stats.bitmap_kernel) << label;
        }
        if (test_case.name == "large_frontier" && t == 4) {
          // The whole fan goes in one threaded frontier, no recount.
          EXPECT_EQ(peeled.stats.recount_rounds, 0u) << label;
          EXPECT_EQ(peeled.stats.edges_pruned, 4200u) << label;
        }
        saw_recount = saw_recount || peeled.stats.recount_rounds > 0;
        saw_peel_only = saw_peel_only || (peeled.stats.recount_rounds == 0 &&
                                          peeled.stats.edges_pruned > 0);
      }
    }
  }
  EXPECT_TRUE(saw_recount);
  EXPECT_TRUE(saw_peel_only);
}

// ------------------------------------------------ bound batch scan

// Batches whose total r is small run the shared bound-ordered scan (one
// bound order at the smallest k upper-bounds every query — both bound
// formulas are non-increasing in k); large batches keep the full scan.
// Both paths must be bit-identical to per-query TopR.
TEST(BoundBatchScanTest, OrderedBatchScanBitIdenticalToPerQuery) {
  const Graph g = HolmeKim(250, 5, 0.6, 4);
  // total_r = 3, so 3 * 64 = 192 <= 250 vertices → ordered path.
  const std::vector<BatchQuery> small_batch = {{3, 1}, {4, 1}, {5, 1}};
  // total_r = 18 → 1152 > 250 → full-scan path.
  const std::vector<BatchQuery> large_batch = {{3, 5}, {4, 10}, {5, 3}};
  BoundSearcher bound(g);
  TsdIndex tsd = TsdIndex::Build(g);
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    for (const std::vector<BatchQuery>* batch : {&small_batch, &large_batch}) {
      BoundSearcher batch_bound(g);
      batch_bound.set_query_options(QueryOptions{threads, 0});
      const std::vector<TopRResult> bound_results =
          batch_bound.SearchBatch(*batch);
      ASSERT_EQ(bound_results.size(), batch->size());
      TsdIndex batch_tsd = TsdIndex::Build(g);
      batch_tsd.set_query_options(QueryOptions{threads, 0});
      const std::vector<TopRResult> tsd_results =
          batch_tsd.SearchBatch(*batch);
      ASSERT_EQ(tsd_results.size(), batch->size());
      for (std::size_t q = 0; q < batch->size(); ++q) {
        const BatchQuery& query = (*batch)[q];
        const std::string label = "threads=" + std::to_string(threads) +
                                  " k=" + std::to_string(query.k) + " r=" +
                                  std::to_string(query.r);
        ExpectSameEntries(bound_results[q], bound.TopR(query.r, query.k),
                          "bound " + label);
        ExpectSameEntries(tsd_results[q], tsd.TopR(query.r, query.k),
                          "tsd " + label);
      }
    }
  }
}

}  // namespace
}  // namespace tsd
