// Differential suite for the parallel global truss kernels
// (truss/parallel_truss.h): on every test graph and at 1, 2, and 8 worker
// threads, the parallel triangle counts, edge supports, and trussness must
// be bit-identical to the sequential kernels (trussness is unique, so exact
// equality is the specification, not a tolerance). Also carries the
// regression tests for the large-graph hazards fixed alongside: the
// Lemma 2 bound wrap on >2^32 ego edge counts and the 64-bit per-vertex
// triangle counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bound_search.h"
#include "core/types.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "truss/parallel_truss.h"
#include "truss/peeling.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

// Same five graphs as the query-pipeline determinism suite.
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

class ParallelTrussDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelTrussDifferentialTest, TriangleKernelsBitIdentical) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  const std::uint64_t triangles = CountTriangles(g);
  const std::vector<std::uint32_t> support = ComputeSupport(g);
  const std::vector<std::uint64_t> per_vertex = TrianglesPerVertex(g);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label = test_case.name + " threads=" +
                              std::to_string(config.num_threads) + " chunks=" +
                              std::to_string(config.num_chunks);
    EXPECT_EQ(CountTriangles(g, config), triangles) << label;
    EXPECT_EQ(ComputeSupport(g, config), support) << label;
    EXPECT_EQ(TrianglesPerVertex(g, config), per_vertex) << label;
  }
}

TEST_P(ParallelTrussDifferentialTest, ForwardAdjacencyBitIdentical) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const internal::ForwardAdjacency sequential(test_case.graph);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const internal::ForwardAdjacency parallel(test_case.graph, config);
    EXPECT_EQ(parallel.rank, sequential.rank);
    EXPECT_EQ(parallel.offsets, sequential.offsets);
    EXPECT_EQ(parallel.neighbors, sequential.neighbors);
    EXPECT_EQ(parallel.edge_ids, sequential.edge_ids);
  }
}

TEST_P(ParallelTrussDifferentialTest, TrussnessBitIdenticalToPeeling) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  const std::vector<std::uint32_t> expected = SequentialTrussness(g);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const std::string label =
        test_case.name + " threads=" + std::to_string(config.num_threads);
    EXPECT_EQ(TrussnessFromSupport(g, ComputeSupport(g, config), config),
              expected)
        << label;
    const TrussDecomposition decomposition(g, config);
    EXPECT_EQ(decomposition.edge_trussness(), expected) << label;
  }
}

TEST_P(ParallelTrussDifferentialTest, TrussDecompositionDerivedStateMatches) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  const TrussDecomposition sequential(g);
  for (const ParallelConfig& config : ThreadConfigs()) {
    const TrussDecomposition parallel(g, config);
    EXPECT_EQ(parallel.max_trussness(), sequential.max_trussness());
    EXPECT_EQ(parallel.TrussnessHistogram(), sequential.TrussnessHistogram());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(parallel.vertex_trussness(v), sequential.vertex_trussness(v))
          << test_case.name << " v=" << v;
    }
  }
}

// The bound search preprocess (global decomposition + m_v counts) now runs
// on the query thread knobs; the ranked answers must not move.
TEST_P(ParallelTrussDifferentialTest, BoundSearcherUnchangedByParallelPreprocess) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  BoundSearcher sequential(g);
  const TopRResult expected = sequential.TopR(10, 4);
  const std::vector<BatchQuery> batch = {{3, 5}, {4, 10}, {5, 3}};
  const std::vector<TopRResult> expected_batch = sequential.SearchBatch(batch);
  for (const std::uint32_t threads : {2u, 8u}) {
    BoundSearcher searcher(g);
    searcher.set_query_options(QueryOptions{threads, 0});
    const TopRResult result = searcher.TopR(10, 4);
    ASSERT_EQ(result.entries.size(), expected.entries.size());
    for (std::size_t i = 0; i < expected.entries.size(); ++i) {
      EXPECT_EQ(result.entries[i].vertex, expected.entries[i].vertex);
      EXPECT_EQ(result.entries[i].score, expected.entries[i].score);
      EXPECT_EQ(result.entries[i].contexts, expected.entries[i].contexts);
    }
    const std::vector<TopRResult> batch_result = searcher.SearchBatch(batch);
    ASSERT_EQ(batch_result.size(), expected_batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(batch_result[q].entries.size(),
                expected_batch[q].entries.size());
      for (std::size_t i = 0; i < expected_batch[q].entries.size(); ++i) {
        EXPECT_EQ(batch_result[q].entries[i].vertex,
                  expected_batch[q].entries[i].vertex);
        EXPECT_EQ(batch_result[q].entries[i].score,
                  expected_batch[q].entries[i].score);
        EXPECT_EQ(batch_result[q].entries[i].contexts,
                  expected_batch[q].entries[i].contexts);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, ParallelTrussDifferentialTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// Frontiers below ~512 edges per worker are scattered inline, so the small
// differential graphs above mostly exercise that path. These graphs force
// the threaded scatter: a clique peels as one frontier holding every edge
// (and every triangle has all three edges in it, saturating the
// smallest-frontier-edge tie-break), and the dense ER graph peels thousands
// of edges per level across many levels.
TEST(ParallelTrussLargeFrontierTest, ThreadedScatterBitIdentical) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId n = 120;  // m = 7140 >= 8 threads * 512
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  const Graph clique = Graph::FromEdges(std::move(edges), n);
  const Graph dense_er = ErdosRenyi(3000, 60000, 7);
  for (const Graph* g : {&clique, &dense_er}) {
    const std::vector<std::uint32_t> expected = SequentialTrussness(*g);
    for (const std::uint32_t threads : {2u, 8u}) {
      const ParallelConfig config{threads, 0};
      EXPECT_EQ(TrussnessFromSupport(*g, ComputeSupport(*g, config), config),
                expected)
          << "threads=" << threads;
    }
  }
}

// Above the scratch budget the counting kernels switch from per-worker
// arrays to one shared relaxed-atomic array (O(m) memory on huge graphs).
// Budget 0 forces that fallback on the small test graphs; the totals must
// not move.
TEST(ParallelTrussScratchBudgetTest, SharedAtomicFallbackBitIdentical) {
  for (const GraphCase& test_case : TestGraphs()) {
    const Graph& g = test_case.graph;
    const internal::ForwardAdjacency fwd(g);
    const ParallelConfig config{8, 0};
    EXPECT_EQ(internal::SupportFromForward(fwd, g.num_edges(), config,
                                           /*scratch_budget_bytes=*/0),
              ComputeSupport(g))
        << test_case.name;
    EXPECT_EQ(internal::TrianglesPerVertexFromForward(
                  fwd, g.num_vertices(), config, /*scratch_budget_bytes=*/0),
              TrianglesPerVertex(g))
        << test_case.name;
  }
}

// ------------------------------------------------ Overflow regression tests

// A vertex of degree d closes up to C(d, 2) triangles; d ≳ 93k overflows a
// 32-bit counter, which used to wrap silently. The counts are 64-bit
// end-to-end now (compile-time guarantee — the wrap itself would need 2^32
// enumerated triangles, far beyond unit-test budgets), and a dense clique
// checks the closed form through the widened pipeline.
TEST(TrianglesPerVertexOverflowTest, CountsAreSixtyFourBit) {
  static_assert(
      std::is_same_v<decltype(TrianglesPerVertex(std::declval<const Graph&>())),
                     std::vector<std::uint64_t>>,
      "per-vertex triangle counts must be 64-bit");

  std::vector<std::pair<VertexId, VertexId>> edges;
  const VertexId n = 120;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  const Graph clique = Graph::FromEdges(std::move(edges), n);
  const std::uint64_t expected =
      std::uint64_t{n - 1} * (n - 2) / 2;  // C(n-1, 2)
  for (const std::uint64_t count : TrianglesPerVertex(clique)) {
    EXPECT_EQ(count, expected);
  }
  for (const std::uint64_t count :
       TrianglesPerVertex(clique, ParallelConfig{8, 0})) {
    EXPECT_EQ(count, expected);
  }
}

// The Lemma 2 bound used to narrow m_v / (k(k-1)/2) to 32 bits before the
// min, so a synthetic dense ego with m_v = 2^32 wrapped to bound 0 and
// could prune a real answer. 64-bit math keeps the bound exact.
TEST(UpperBoundOverflowTest, DenseEgoEdgeCountDoesNotWrap) {
  const std::uint64_t m_v = std::uint64_t{1} << 32;  // wraps to 0 in 32 bits
  EXPECT_EQ(BoundSearcher::UpperBound(10, m_v, 2), 5u);
  EXPECT_EQ(BoundSearcher::UpperBound(1000, m_v, 4), 250u);
}

}  // namespace
}  // namespace tsd
