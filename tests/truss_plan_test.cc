// Differential suite for the TrussPlan subsystem (truss/truss_plan.h).
// Trussness is the unique fixed point of support peeling, so every plan —
// Bsp, CoreThenTruss, and whatever Auto resolves to — must be
// bit-identical to the sequential Wang–Cheng peel on every graph at every
// thread count; exact equality is the specification, not a tolerance.
// Also covers: CoreThenTruss prune soundness against an independently
// recomputed core bound, auto-tuner determinism and decision table, the
// bitmap support kernel, the plan knob threading
// through QueryOptions into the searchers, the ordered batch scan
// (small total r) against the per-query reference, and the direct k-truss
// peel (KTrussPeel) against the trussness-derived k-truss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "truss/core_decomposition.h"
#include "truss/k_truss.h"
#include "truss/peeling.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_plan.h"

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

struct PlanCase {
  std::string name;  // gtest-safe spelling, used in CI's --gtest_filter
  TrussPlanAlgorithm algorithm;
};

std::vector<PlanCase> PlanCases() {
  return {{"bsp", TrussPlanAlgorithm::kBsp},
          {"core_truss", TrussPlanAlgorithm::kCoreThenTruss},
          {"auto", TrussPlanAlgorithm::kAuto}};
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

// ------------------------------------------------ plan × graph differential

class TrussPlanDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrussPlanDifferentialTest, BitIdenticalToSequentialPeel) {
  const GraphCase test_case = TestGraphs()[std::get<0>(GetParam())];
  const PlanCase plan_case = PlanCases()[std::get<1>(GetParam())];
  const Graph& g = test_case.graph;
  const std::vector<std::uint32_t> expected = SequentialTrussness(g);
  const TrussPlan plan = TrussPlan::FromAlgorithm(plan_case.algorithm);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label = test_case.name + " plan=" + plan_case.name +
                              " threads=" +
                              std::to_string(config.num_threads) + " chunks=" +
                              std::to_string(config.num_chunks);
    TrussPlanStats stats;
    EXPECT_EQ(TrussnessWithPlan(g, plan, config, &stats), expected) << label;
    EXPECT_EQ(stats.requested, plan_case.algorithm) << label;
    EXPECT_NE(stats.algorithm, TrussPlanAlgorithm::kAuto) << label;
    // The default floor of 2 never prunes: every edge endpoint has core ≥ 1.
    EXPECT_EQ(stats.edges_pruned, 0u) << label;
    EXPECT_EQ(stats.graph_stats.num_edges, g.num_edges()) << label;
  }
}

TEST_P(TrussPlanDifferentialTest, TrussDecompositionRoutesPlan) {
  const GraphCase test_case = TestGraphs()[std::get<0>(GetParam())];
  const PlanCase plan_case = PlanCases()[std::get<1>(GetParam())];
  const Graph& g = test_case.graph;
  const TrussDecomposition sequential(g);
  const TrussPlan plan = TrussPlan::FromAlgorithm(plan_case.algorithm);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label = test_case.name + " plan=" + plan_case.name +
                              " threads=" + std::to_string(config.num_threads);
    const TrussDecomposition planned(g, config, plan);
    EXPECT_EQ(planned.edge_trussness(), sequential.edge_trussness()) << label;
    EXPECT_EQ(planned.max_trussness(), sequential.max_trussness()) << label;
    EXPECT_EQ(planned.TrussnessHistogram(), sequential.TrussnessHistogram())
        << label;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(planned.vertex_trussness(v), sequential.vertex_trussness(v))
          << label << " v=" << v;
    }
    EXPECT_EQ(planned.plan_stats().requested, plan_case.algorithm) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphsAllPlans, TrussPlanDifferentialTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return TestGraphs()[std::get<0>(info.param)].name + "_" +
             PlanCases()[std::get<1>(info.param)].name;
    });

// The config-carried algorithm tag must reach the 2-arg TrussDecomposition
// constructor (the path every existing caller takes).
TEST(TrussPlanRoutingTest, ConfigCarriesAlgorithmTag) {
  const Graph g = HolmeKim(250, 5, 0.6, 4);
  const std::vector<std::uint32_t> expected = SequentialTrussness(g);
  for (const PlanCase& plan_case : PlanCases()) {
    ParallelConfig config{2, 0};
    config.truss_plan = plan_case.algorithm;
    const TrussDecomposition decomposition(g, config);
    EXPECT_EQ(decomposition.edge_trussness(), expected) << plan_case.name;
    EXPECT_EQ(decomposition.plan_stats().requested, plan_case.algorithm)
        << plan_case.name;
  }
}

// ------------------------------------------------ CoreThenTruss soundness

// Recomputes the Burkhardt bound independently and checks the pruning
// report against it: exactly the below-floor edges are pruned, every pruned
// edge's true trussness really is below the floor, reported values are
// exact at or above the floor and never overshoot below it.
TEST(CoreThenTrussPruneSoundnessTest, PrunedEdgesAreProvablyIrrelevant) {
  std::uint64_t total_pruned = 0;
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const std::vector<std::uint32_t> full = SequentialTrussness(g);
    const CoreDecomposition cores(g);
    for (const std::uint32_t floor_k : {3u, 4u, 5u, 6u}) {
      const std::string label =
          test_case.name + " floor=" + std::to_string(floor_k);
      TrussPlanStats stats;
      const std::vector<std::uint32_t> reported = TrussnessWithPlan(
          g, TrussPlan::CoreThenTruss(floor_k), ParallelConfig{1, 0}, &stats);
      ASSERT_EQ(reported.size(), full.size()) << label;
      std::uint64_t pruned = 0;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const Edge& edge = g.edge(e);
        const std::uint32_t bound =
            std::min(cores.core(edge.u), cores.core(edge.v)) + 1;
        if (bound < floor_k) {
          ++pruned;
          // The bound proves trussness < floor; the peel must agree.
          ASSERT_LT(full[e], floor_k) << label << " e=" << e;
        }
        if (full[e] >= floor_k) {
          ASSERT_EQ(reported[e], full[e]) << label << " e=" << e;
        }
        ASSERT_LE(reported[e], full[e]) << label << " e=" << e;
      }
      EXPECT_EQ(stats.edges_pruned, pruned) << label;
      total_pruned += pruned;
    }
  }
  // The suite must actually exercise pruning, not just the zero-pruned
  // fast path.
  EXPECT_GT(total_pruned, 0u);
}

// ------------------------------------------------ auto-tuner determinism

TEST(TrussPlanAutoTest, ResolutionAndResultAreDeterministic) {
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const GraphStatistics stats = ComputeGraphStatistics(g);
    for (const ParallelConfig& config : ThreadConfigs()) {
      const TrussPlanAlgorithm first =
          ChooseTrussPlanAlgorithm(stats, 2);
      EXPECT_EQ(ChooseTrussPlanAlgorithm(stats, 2), first);
      EXPECT_NE(first, TrussPlanAlgorithm::kAuto);
      TrussPlanStats run1;
      TrussPlanStats run2;
      const std::vector<std::uint32_t> t1 =
          TrussnessWithPlan(g, TrussPlan::Auto(), config, &run1);
      const std::vector<std::uint32_t> t2 =
          TrussnessWithPlan(g, TrussPlan::Auto(), config, &run2);
      EXPECT_EQ(run1.algorithm, first) << test_case.name;
      EXPECT_EQ(run2.algorithm, first) << test_case.name;
      EXPECT_EQ(t1, t2) << test_case.name;
    }
  }
}

// Hand-built statistics, no graph: Auto is CoreThenTruss exactly when the
// floor is above 2 and the degree skew is at least 3, Bsp otherwise, at any
// thread count.
TEST(TrussPlanAutoTest, DecisionTable) {
  const auto stats_with = [](double average_degree, double degree_skew) {
    GraphStatistics stats;
    stats.average_degree = average_degree;
    stats.degree_skew = degree_skew;
    return stats;
  };
  const GraphStatistics skewed = stats_with(8.0, 12.0);
  const GraphStatistics even = stats_with(8.0, 1.5);
  // The dense, low-skew Erdős–Rényi shape (n=5,000, m=500k).
  const GraphStatistics dense_even = stats_with(200.0, 1.26);
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    const std::string label = "threads=" + std::to_string(threads);
    for (const GraphStatistics& stats : {skewed, even, dense_even}) {
      EXPECT_EQ(ChooseTrussPlanAlgorithm(stats, 2),
                TrussPlanAlgorithm::kBsp)
          << label;
    }
    EXPECT_EQ(ChooseTrussPlanAlgorithm(skewed, 5),
              TrussPlanAlgorithm::kCoreThenTruss)
        << label;
    EXPECT_EQ(ChooseTrussPlanAlgorithm(stats_with(8.0, 3.0), 3),
              TrussPlanAlgorithm::kCoreThenTruss)
        << label;
    EXPECT_EQ(ChooseTrussPlanAlgorithm(even, 5),
              TrussPlanAlgorithm::kBsp)
        << label;
    EXPECT_EQ(ChooseTrussPlanAlgorithm(stats_with(8.0, 2.99), 3),
              TrussPlanAlgorithm::kBsp)
        << label;
  }
}

TEST(TrussPlanParseTest, RoundTripsCliSpellings) {
  for (const std::string name : {"auto", "bsp", "core-truss"}) {
    const auto parsed = ParseTrussPlanAlgorithm(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(TrussPlanAlgorithmName(*parsed), name);
  }
  EXPECT_EQ(TrussPlanAlgorithmNames(), "auto, bsp, core-truss");
  EXPECT_FALSE(ParseTrussPlanAlgorithm("jacobi").has_value());
  EXPECT_FALSE(ParseTrussPlanAlgorithm("coretruss").has_value());
  EXPECT_FALSE(ParseTrussPlanAlgorithm("").has_value());
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
    // Dense graphs route through the bitmap kernel inside the plan runner;
    // the trussness must not move.
    TrussPlanStats stats;
    EXPECT_EQ(
        TrussnessWithPlan(*g, TrussPlan::Bsp(), ParallelConfig{2, 0}, &stats),
        SequentialTrussness(*g));
    EXPECT_TRUE(stats.bitmap_kernel);
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

// ------------------------------------------------ searcher integration

// The plan knob threads QueryOptions → ParallelConfig → the bound
// searcher's preprocess decomposition; the ranked answers must not move
// under any named plan, and CoreThenTruss must report its pruning in
// SearchStats (the searcher consumes only the (k+1)-truss, so it passes
// min_trussness = k + 1).
TEST(TrussPlanSearcherTest, BoundSearcherIdenticalUnderEveryPlan) {
  // Power-law graph with a low-core tail: at floor k+1 = 5 the core
  // prefilter actually prunes edges (HolmeKim's uniform m-per-vertex keeps
  // every core at 5, so it never prunes below floor 7).
  const Graph g = RMat(8, 6, 0.45, 0.2, 0.2, 6);
  BoundSearcher reference(g);
  const TopRResult expected = reference.TopR(10, 4);
  const std::vector<BatchQuery> batch = {{3, 5}, {4, 10}, {5, 3}};
  const std::vector<TopRResult> expected_batch = reference.SearchBatch(batch);
  bool any_pruned = false;
  for (const PlanCase& plan_case : PlanCases()) {
    BoundSearcher searcher(g);
    QueryOptions options;
    options.num_threads = 2;
    options.truss_plan = plan_case.algorithm;
    searcher.set_query_options(options);
    const TopRResult result = searcher.TopR(10, 4);
    ExpectSameEntries(result, expected, "topr plan=" + plan_case.name);
    if (plan_case.algorithm == TrussPlanAlgorithm::kCoreThenTruss) {
      any_pruned = result.stats.edges_pruned > 0;
    }
    const std::vector<TopRResult> batch_result = searcher.SearchBatch(batch);
    ASSERT_EQ(batch_result.size(), expected_batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ExpectSameEntries(batch_result[q], expected_batch[q],
                        "batch plan=" + plan_case.name + " q=" +
                            std::to_string(q));
    }
  }
  // At floor k+1 = 5 the power-law graph must actually lose edges to the
  // core prefilter (the answers above prove losing them is harmless).
  EXPECT_TRUE(any_pruned);
}

// Batches whose total r is small run the shared bound-ordered scan (one
// bound order at the smallest k upper-bounds every query — both bound
// formulas are non-increasing in k); large batches keep the full scan.
// Both paths must be bit-identical to per-query TopR.
TEST(TrussPlanSearcherTest, OrderedBatchScanBitIdenticalToPerQuery) {
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
