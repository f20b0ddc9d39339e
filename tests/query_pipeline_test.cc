// Determinism suite for the shared QueryPipeline: every searcher method
// must return bit-identical TopR results (vertices, scores, contexts) for
// 1, 2, and 8 worker threads, and the parallel results must agree with the
// literal naive definition of the truss model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/baselines.h"
#include "core/bound_search.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/query_pipeline.h"
#include "core/tsd_index.h"
#include "graph/generators.h"
#include "reference_impls.h"

namespace tsd {
namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(80, 500, 3)});
  cases.push_back({"hk", HolmeKim(250, 5, 0.6, 4)});
  cases.push_back({"ba", BarabasiAlbert(200, 4, 5)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 6)});
  return cases;
}

/// All seven searchers over one graph, owned together so the index builds
/// happen once per case.
struct SearcherSet {
  explicit SearcherSet(const Graph& g)
      : online(g),
        bound(g),
        tsd(TsdIndex::Build(g)),
        gct(GctIndex::Build(g)),
        hybrid(g, gct),
        comp(g),
        core(g) {}

  std::vector<DiversitySearcher*> All() {
    return {&online, &bound, &tsd, &gct, &hybrid, &comp, &core};
  }

  OnlineSearcher online;
  BoundSearcher bound;
  TsdIndex tsd;
  GctIndex gct;
  HybridSearcher hybrid;
  CompDivSearcher comp;
  CoreDivSearcher core;
};

void ExpectSameEntries(const TopRResult& expected, const TopRResult& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.entries.size(), actual.entries.size()) << label;
  for (std::size_t i = 0; i < expected.entries.size(); ++i) {
    EXPECT_EQ(expected.entries[i].vertex, actual.entries[i].vertex)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].score, actual.entries[i].score)
        << label << " rank=" << i;
    EXPECT_EQ(expected.entries[i].contexts, actual.entries[i].contexts)
        << label << " rank=" << i;
  }
}

class QueryPipelineDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryPipelineDeterminismTest, AllMethodsBitIdenticalAcrossThreads) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  SearcherSet searchers(test_case.graph);

  for (DiversitySearcher* searcher : searchers.All()) {
    for (std::uint32_t k : {2u, 4u}) {
      for (std::uint32_t r : {1u, 5u, 16u}) {
        searcher->set_query_options(QueryOptions{});
        const TopRResult sequential = searcher->TopR(r, k);
        EXPECT_EQ(sequential.stats.threads_used, 1u);
        for (std::uint32_t threads : {2u, 8u}) {
          QueryOptions options;
          options.num_threads = threads;
          searcher->set_query_options(options);
          const TopRResult parallel = searcher->TopR(r, k);
          EXPECT_EQ(parallel.stats.threads_used, threads);
          ExpectSameEntries(sequential, parallel,
                            test_case.name + " method=" + searcher->name() +
                                " k=" + std::to_string(k) +
                                " r=" + std::to_string(r) +
                                " threads=" + std::to_string(threads));
        }
        searcher->set_query_options(QueryOptions{});
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, QueryPipelineDeterminismTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// An explicit non-zero chunk count must not change the ranking either.
TEST(QueryPipelineTest, ExplicitChunkCountsKeepRankingsIdentical) {
  const Graph g = HolmeKim(200, 5, 0.5, 11);
  OnlineSearcher online(g);
  const TopRResult reference = online.TopR(10, 3);
  for (std::uint32_t chunks : {1u, 3u, 64u, 1024u}) {
    QueryOptions options;
    options.num_threads = 4;
    options.num_chunks = chunks;
    online.set_query_options(options);
    ExpectSameEntries(reference, online.TopR(10, 3),
                      "chunks=" + std::to_string(chunks));
  }
}

// The parallel online search must still match the literal paper definition
// (reference_impls.h), not just its own sequential run.
TEST(QueryPipelineTest, ParallelResultsMatchNaiveDefinition) {
  const Graph g = ErdosRenyi(60, 350, 9);
  OnlineSearcher online(g);
  QueryOptions options;
  options.num_threads = 8;
  online.set_query_options(options);
  const std::uint32_t k = 3;
  const TopRResult top = online.TopR(5, k);
  ASSERT_EQ(top.entries.size(), 5u);
  for (const TopREntry& entry : top.entries) {
    const auto [naive_score, naive_contexts] =
        testing::NaiveScore(g, entry.vertex, k);
    EXPECT_EQ(entry.score, naive_score) << "v=" << entry.vertex;
    EXPECT_EQ(entry.contexts.size(), naive_contexts.size())
        << "v=" << entry.vertex;
  }
}

// Bound-pruned methods may score more candidates in parallel rounds, but
// never fewer than the answer set requires, and the sequential scan keeps
// its exact per-vertex early termination (Example 3 of the paper).
TEST(QueryPipelineTest, ParallelPruningIsConservative) {
  const Graph g = PaperFigure1Graph();
  BoundSearcher bound(g);
  const TopRResult sequential = bound.TopR(1, 4);
  EXPECT_EQ(sequential.stats.vertices_scored, 1u);

  QueryOptions options;
  options.num_threads = 4;
  bound.set_query_options(options);
  const TopRResult parallel = bound.TopR(1, 4);
  EXPECT_GE(parallel.stats.vertices_scored, 1u);
  ExpectSameEntries(sequential, parallel, "figure1 bound threads=4");
}

// Direct pipeline exercise: ScoreOrderedMulti with one collector must
// honour bound order with both sequential and round-based pruning, and the
// collector must end up with the smallest-id zero-score answers either way.
TEST(QueryPipelineTest, ScoreOrderedPrunesByBoundOrder) {
  const Graph g = HolmeKim(120, 4, 0.5, 13);
  for (std::uint32_t threads : {1u, 4u}) {
    QueryOptions options;
    options.num_threads = threads;
    QueryPipeline pipeline(g, EgoTrussMethod::kHash, options);

    // Degenerate bounds: all zero. Once the collector holds r zero-score
    // answers with the smallest ids, everything else is prunable.
    std::vector<VertexId> order(g.num_vertices());
    std::vector<std::uint32_t> bounds(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) order[v] = v;
    TopRCollector collector(3);
    TopRCollector* const collectors[] = {&collector};
    const std::uint64_t scored = pipeline.ScoreOrderedMulti(
        order, bounds, collectors,
        [](QueryWorkspace&, VertexId, std::uint32_t* score) { *score = 0; });
    EXPECT_LT(scored, g.num_vertices());
    const auto ranked = collector.Ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].first, 0u);
    EXPECT_EQ(ranked[1].first, 1u);
    EXPECT_EQ(ranked[2].first, 2u);
  }
}

// ScoreRangeMulti with a skip predicate: the skip test runs against the
// chunk's collectors, so entries match the skip-free scan, and the chunks
// do not depend on the thread count, so neither does the scored count.
// With r = n/8 a first chunk of n/16 candidates could not fill its
// collector; the scan must still skip.
TEST(QueryPipelineTest, SkipScanMatchesFullScanAtAnyThreadCount) {
  constexpr VertexId kN = 5000;
  struct Case {
    std::vector<std::uint32_t> capacities;
    std::uint64_t max_scored;  // exclusive
  };
  const Case cases[] = {{{1, 4, 10}, kN / 2}, {{kN / 8}, kN}};
  // Two scores per vertex, uncorrelated with its id; the skip bound is the
  // larger of the two, as one ceiling serves every query of a batch.
  const auto score_of = [](VertexId v, std::size_t q) {
    return static_cast<std::uint32_t>((v * 2654435761U >> (7 + 5 * q)) % 97);
  };
  const auto skip = [&](VertexId v, std::span<const TopRCollector> locals) {
    const std::uint32_t bound = std::max(score_of(v, 0), score_of(v, 1));
    for (const TopRCollector& local : locals) {
      if (!local.CanPrune(bound, v)) return false;
    }
    return true;
  };
  for (const Case& test_case : cases) {
    const std::vector<std::uint32_t>& capacities = test_case.capacities;
    const auto fn = [&](QueryWorkspace&, VertexId v, std::uint32_t* scores) {
      for (std::size_t q = 0; q < capacities.size(); ++q) {
        scores[q] = score_of(v, q % 2);
      }
    };
    const auto run = [&](std::uint32_t threads, std::uint32_t chunks,
                         bool with_skip, std::uint64_t* scored) {
      QueryOptions options;
      options.num_threads = threads;
      options.num_chunks = chunks;
      QueryPipeline pipeline(options);
      std::vector<TopRCollector> collectors;
      for (std::uint32_t r : capacities) collectors.emplace_back(r);
      std::vector<TopRCollector*> pointers;
      for (TopRCollector& collector : collectors) {
        pointers.push_back(&collector);
      }
      *scored = with_skip ? pipeline.ScoreRangeMulti(kN, pointers, fn, skip)
                          : pipeline.ScoreRangeMulti(kN, pointers, fn);
      std::vector<std::vector<std::pair<VertexId, std::uint32_t>>> ranked;
      for (TopRCollector& collector : collectors) {
        ranked.push_back(collector.TakeRanked());
      }
      return ranked;
    };

    const std::uint32_t r = capacities.back();
    std::uint64_t full_scored = 0;
    const auto expected = run(1, 0, false, &full_scored);
    EXPECT_EQ(full_scored, kN);
    for (std::uint32_t chunks : {0u, 1u, 5u}) {
      std::uint64_t first_scored = 0;
      for (std::uint32_t threads : {1u, 2u, 8u}) {
        std::uint64_t scored = 0;
        EXPECT_EQ(run(threads, chunks, true, &scored), expected)
            << "r=" << r << " threads=" << threads << " chunks=" << chunks;
        EXPECT_LT(scored, test_case.max_scored)
            << "r=" << r << " threads=" << threads << " chunks=" << chunks;
        if (threads == 1) first_scored = scored;
        EXPECT_EQ(scored, first_scored)
            << "r=" << r << " threads=" << threads << " chunks=" << chunks;
      }
    }
  }
}

// A pair the collector already holds is not offered twice: merging
// collectors that share entries must not evict anything.
TEST(TopRCollectorTest, OfferingAHeldPairChangesNothing) {
  TopRCollector collector(3);
  collector.Offer(4, 9);
  collector.Offer(2, 5);
  EXPECT_FALSE(collector.Offer(2, 5));  // not full yet
  EXPECT_EQ(collector.size(), 2u);
  collector.Offer(8, 1);
  const auto before = collector.Ranked();
  EXPECT_FALSE(collector.Offer(4, 9));  // full, ranks before the worst
  EXPECT_EQ(collector.Ranked(), before);
  // TakeRanked also resets the prune state.
  EXPECT_TRUE(collector.CanPrune(0, 100));
  collector.TakeRanked();
  EXPECT_FALSE(collector.CanPrune(0, 100));
}

// TakeRanked must hand out exactly what Ranked() would, best first, and
// leave the collector empty and reusable.
TEST(TopRCollectorTest, TakeRankedMatchesRankedAndEmptiesCollector) {
  TopRCollector collector(4);
  // Scores with ties to exercise the (score desc, id asc) order.
  const std::pair<VertexId, std::uint32_t> offers[] = {
      {7, 3}, {1, 5}, {9, 3}, {4, 5}, {2, 0}, {5, 7}};
  for (const auto& [vertex, score] : offers) collector.Offer(vertex, score);

  const auto snapshot = collector.Ranked();
  const auto taken = collector.TakeRanked();
  EXPECT_EQ(taken, snapshot);
  ASSERT_EQ(taken.size(), 4u);
  EXPECT_EQ(taken[0], (std::pair<VertexId, std::uint32_t>{5, 7}));
  EXPECT_EQ(taken[1], (std::pair<VertexId, std::uint32_t>{1, 5}));
  EXPECT_EQ(taken[2], (std::pair<VertexId, std::uint32_t>{4, 5}));
  EXPECT_EQ(taken[3], (std::pair<VertexId, std::uint32_t>{7, 3}));

  EXPECT_TRUE(collector.empty());
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_TRUE(collector.Ranked().empty());
  EXPECT_FALSE(collector.Full());

  // The emptied collector is reusable.
  collector.Offer(3, 2);
  ASSERT_EQ(collector.Ranked().size(), 1u);
  EXPECT_EQ(collector.Ranked()[0],
            (std::pair<VertexId, std::uint32_t>{3, 2}));
}

}  // namespace
}  // namespace tsd
