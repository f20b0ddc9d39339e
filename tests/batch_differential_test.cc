// Differential suite for the one query path of every searcher,
// SearchBatch (TopR is its one-query case). Each batch answer — vertices,
// scores AND contexts — must equal the top-r by definition: every vertex
// scored by the literal Definitions 2 + 3 (testing::NaiveScore), ranked by
// score descending and id ascending, the first r kept. The Comp-Div and
// Core-Div baselines are held to an unpruned scan of their own model. This
// holds for every searcher at 1, 2 and 8 worker threads, and a many-query
// batch must equal the concatenation of its one-query batches, so the
// amortization stays checked. Batches are randomized from a seeded
// generator and include duplicate queries, repeated thresholds, and
// thresholds nothing survives.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/batch_query.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "reference_impls.h"
#include "serve_test_util.h"
#include "truss/ego_truss.h"

namespace tsd {
namespace {

using test::ExpectSameEntries;
using testing::ReferenceRanking;

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

/// The reference rankings of one model over one graph, one per threshold,
/// each built on first use and reused by every searcher of that model.
class Oracle {
 public:
  /// `ranking_at(k)` builds the ranking at threshold k.
  explicit Oracle(std::function<ReferenceRanking(std::uint32_t)> ranking_at)
      : ranking_at_(std::move(ranking_at)) {}

  TopRResult TopR(std::uint32_t r, std::uint32_t k) {
    auto it = rankings_.find(k);
    if (it == rankings_.end()) it = rankings_.emplace(k, ranking_at_(k)).first;
    return it->second.TopR(r);
  }

 private:
  std::function<ReferenceRanking(std::uint32_t)> ranking_at_;
  std::map<std::uint32_t, ReferenceRanking> rankings_;
};

/// The truss model by definition: testing::NaiveScore for every vertex.
Oracle NaiveTrussOracle(const Graph& g) {
  return Oracle([&g](std::uint32_t k) {
    return ReferenceRanking(g.num_vertices(), [&](VertexId v) {
      return testing::NaiveScore(g, v, k);
    });
  });
}

/// A baseline model with no pruning: `model(ego, k)` scores every vertex's
/// ego network.
template <typename Model>
Oracle UnprunedOracle(const Graph& g, Model model) {
  return Oracle([&g, model](std::uint32_t k) {
    EgoNetworkExtractor extractor(g);
    return ReferenceRanking(g.num_vertices(), [&](VertexId v) {
      EgoNetwork ego = extractor.Extract(v);
      return model(ego, k);
    });
  });
}

Oracle CompDivOracle(const Graph& g) {
  return UnprunedOracle(g, [](EgoNetwork& ego, std::uint32_t k) {
    return ScoreComponents(ego, k, /*want_contexts=*/true);
  });
}

Oracle CoreDivOracle(const Graph& g) {
  return UnprunedOracle(g, [](EgoNetwork& ego, std::uint32_t k) {
    return ScoreKCores(ego, k, /*want_contexts=*/true);
  });
}

/// All eight searchers over one graph, owned together so the index builds
/// happen once per case, each paired with the oracle of its model.
struct SearcherSet {
  explicit SearcherSet(const Graph& g)
      : online(g),
        bound(g),
        tsd(TsdIndex::Build(g)),
        gct(GctIndex::Build(g)),
        hybrid(g, gct),
        dynamic(g),
        comp(g),
        core(g),
        truss_oracle(NaiveTrussOracle(g)),
        comp_oracle(CompDivOracle(g)),
        core_oracle(CoreDivOracle(g)) {}

  std::vector<std::pair<const DiversitySearcher*, Oracle*>> All() {
    return {{&online, &truss_oracle}, {&bound, &truss_oracle},
            {&tsd, &truss_oracle},    {&gct, &truss_oracle},
            {&hybrid, &truss_oracle}, {&dynamic, &truss_oracle},
            {&comp, &comp_oracle},    {&core, &core_oracle}};
  }

  OnlineSearcher online;
  BoundSearcher bound;
  TsdIndex tsd;
  GctIndex gct;
  HybridSearcher hybrid;
  DynamicTsdIndex dynamic;
  CompDivSearcher comp;
  CoreDivSearcher core;
  Oracle truss_oracle;
  Oracle comp_oracle;
  Oracle core_oracle;
};

/// A seeded random batch: k in [2, 6], r skewed small, with duplicates.
std::vector<BatchQuery> RandomBatch(std::uint64_t seed, std::size_t size) {
  Rng rng(seed);
  std::vector<BatchQuery> batch;
  batch.reserve(size);
  const std::uint32_t r_choices[] = {1, 3, 10, 17};
  for (std::size_t i = 0; i < size; ++i) {
    BatchQuery query;
    query.k = 2 + static_cast<std::uint32_t>(rng.Uniform(5));
    query.r = r_choices[rng.Uniform(4)];
    batch.push_back(query);
    if (i + 1 < size && rng.Uniform(4) == 0) {
      batch.push_back(query);  // exact duplicate query
      ++i;
    }
  }
  return batch;
}

QuerySession SessionWithThreads(std::uint32_t threads) {
  QueryOptions options;
  options.num_threads = threads;
  return QuerySession(options);
}

/// Runs `batch` through `searcher` at 1, 2 and 8 threads and checks every
/// answer against `oracle`.
void ExpectBatchMatchesOracle(const DiversitySearcher& searcher,
                              Oracle& oracle,
                              const std::vector<BatchQuery>& batch,
                              const std::string& label) {
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    QuerySession session = SessionWithThreads(threads);
    const std::vector<TopRResult> results =
        searcher.SearchBatch(batch, session);
    ASSERT_EQ(results.size(), batch.size()) << label;
    for (std::size_t q = 0; q < batch.size(); ++q) {
      ExpectSameEntries(oracle.TopR(batch[q].r, batch[q].k), results[q],
                        label + " method=" + searcher.name() +
                            " q=" + std::to_string(q) +
                            " k=" + std::to_string(batch[q].k) +
                            " r=" + std::to_string(batch[q].r) +
                            " threads=" + std::to_string(threads));
    }
  }
}

class BatchDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchDifferentialTest, BatchMatchesNaiveTopRAtAnyThreadCount) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  SearcherSet searchers(test_case.graph);
  for (const auto& [searcher, oracle] : searchers.All()) {
    for (std::uint64_t seed : {11u, 23u}) {
      ExpectBatchMatchesOracle(*searcher, *oracle,
                               RandomBatch(seed + GetParam() * 100, 5),
                               test_case.name + " seed=" +
                                   std::to_string(seed));
    }
  }
}

// A many-query batch shares one scan across its queries; each answer must
// still equal the query's one-query batch, TopR.
TEST_P(BatchDifferentialTest, BatchEqualsItsOneQueryBatches) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  SearcherSet searchers(test_case.graph);
  const std::vector<BatchQuery> batch = RandomBatch(37 + GetParam(), 8);
  for (const auto& [searcher, oracle] : searchers.All()) {
    for (std::uint32_t threads : {1u, 2u, 8u}) {
      QuerySession session = SessionWithThreads(threads);
      const std::vector<TopRResult> results =
          searcher->SearchBatch(batch, session);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t q = 0; q < batch.size(); ++q) {
        ExpectSameEntries(searcher->TopR(batch[q].r, batch[q].k, session),
                          results[q],
                          test_case.name + " method=" + searcher->name() +
                              " q=" + std::to_string(q) +
                              " threads=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, BatchDifferentialTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// The dynamic index sweeps its maintained forest slices; after maintenance
// updates its answers must equal the naive top-r of the updated graph.
TEST(BatchDifferentialTest, DynamicIndexMatchesNaiveAfterUpdates) {
  const Graph g = HolmeKim(150, 5, 0.5, 7);
  DynamicTsdIndex dynamic(g);
  const std::vector<BatchQuery> batch = {{4, 5}, {2, 10}, {4, 5}, {3, 1}};
  {
    Oracle oracle = NaiveTrussOracle(g);
    ExpectBatchMatchesOracle(dynamic, oracle, batch, "dynamic");
  }
  dynamic.InsertEdge(0, 149);
  dynamic.RemoveEdge(0, 1);
  const Graph updated = dynamic.graph().ToGraph();
  Oracle oracle = NaiveTrussOracle(updated);
  ExpectBatchMatchesOracle(dynamic, oracle, batch, "dynamic-after-updates");
}

// Degenerate batches on every searcher: empty, a single query, thresholds
// where every score is 0, and r larger than the graph (every vertex
// returned).
TEST(BatchDifferentialTest, DegenerateBatches) {
  const Graph g = PaperFigure1Graph();
  SearcherSet searchers(g);
  const std::vector<BatchQuery> single = {{4, 1}};
  const std::vector<BatchQuery> batch = {{4, 1}, {9, 3}, {2, 200}, {5, 1}};
  for (const auto& [searcher, oracle] : searchers.All()) {
    QuerySession session;
    EXPECT_TRUE(searcher->SearchBatch({}, session).empty()) << searcher->name();
    ExpectBatchMatchesOracle(*searcher, *oracle, single, "degenerate single");
    ExpectBatchMatchesOracle(*searcher, *oracle, batch, "degenerate");
  }
}

// The query checks run in every build mode: r = 0 and a threshold below
// the model's smallest (k = 1 for the truss searchers, k = 0 for the
// baselines, which accept k = 1) throw from TopR and from SearchBatch, and
// so do the TSD score kernels at k = 1.
TEST(BatchDifferentialTest, EverySearcherRejectsInvalidQueries) {
  const Graph g = PaperFigure1Graph();
  SearcherSet searchers(g);
  for (const auto& [searcher, oracle] : searchers.All()) {
    const bool baseline =
        searcher == &searchers.comp || searcher == &searchers.core;
    const std::uint32_t bad_k = baseline ? 0 : 1;
    QuerySession session;
    EXPECT_THROW(searcher->TopR(0, 3, session), CheckError)
        << searcher->name();
    EXPECT_THROW(searcher->TopR(3, bad_k, session), CheckError)
        << searcher->name();
    for (const BatchQuery bad : {BatchQuery{3, 0}, BatchQuery{bad_k, 3}}) {
      const std::vector<BatchQuery> batch = {{3, 3}, bad};
      EXPECT_THROW(searcher->SearchBatch(batch, session), CheckError)
          << searcher->name() << " k=" << bad.k << " r=" << bad.r;
    }
    if (baseline) {
      EXPECT_NO_THROW(searcher->TopR(3, 1, session)) << searcher->name();
    }
  }
  EXPECT_THROW(searchers.tsd.Score(0, 1), CheckError);
  EXPECT_THROW(searchers.dynamic.Score(0, 1), CheckError);
}

// The multi-threshold sweep must reproduce ScoreFromEgoTrussness exactly,
// vertex by vertex, threshold by threshold.
TEST(MultiKEgoScorerTest, MatchesSingleThresholdScoring) {
  const Graph g = HolmeKim(120, 5, 0.6, 9);
  EgoNetworkExtractor extractor(g);
  EgoTrussDecomposer decomposer(EgoTrussMethod::kHash);
  MultiKEgoScorer scorer;
  const std::vector<std::uint32_t> thresholds = {7, 5, 4, 3, 2};
  std::vector<std::uint32_t> scores(thresholds.size());
  EgoNetwork ego;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    extractor.ExtractInto(v, &ego);
    const std::vector<std::uint32_t> trussness = decomposer.Compute(ego);
    scorer.Compute(ego, trussness, thresholds, scores.data());
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      EXPECT_EQ(scores[t],
                ScoreFromEgoTrussness(ego, trussness, thresholds[t],
                                      /*want_contexts=*/false)
                    .score)
          << "v=" << v << " k=" << thresholds[t];
    }
  }
}

// The single-pass Hybrid construction must produce bit-identical rankings
// at any thread count (the chunk merge feeds a total-order sort over unique
// vertices), observable through TopR answers for every k and r.
TEST(BatchDifferentialTest, HybridParallelConstructionBitIdentical) {
  const Graph g = HolmeKim(250, 5, 0.6, 12);
  const GctIndex gct = GctIndex::Build(g);
  HybridSearcher sequential(g, gct);
  for (std::uint32_t threads : {2u, 8u}) {
    HybridSearcher parallel(g, gct, threads);
    EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
    for (std::uint32_t k : {2u, 3u, 4u, 5u, 6u}) {
      for (std::uint32_t r : {1u, 5u, 16u}) {
        ExpectSameEntries(sequential.TopR(r, k), parallel.TopR(r, k),
                          "hybrid construction threads=" +
                              std::to_string(threads) +
                              " k=" + std::to_string(k) +
                              " r=" + std::to_string(r));
      }
    }
  }
}

// Repeated batches over one pipeline must reuse the per-worker scratch:
// after a warm-up batch the workspace's reserved capacity stays flat (the
// steady state performs no new scratch allocation).
TEST(BatchWorkspaceReuseTest, SteadyStateCapacityIsFlat) {
  const Graph g = HolmeKim(200, 5, 0.6, 10);
  QueryPipeline pipeline(g, EgoTrussMethod::kHash, QueryOptions{});
  const std::vector<BatchQuery> queries = {{2, 5}, {3, 5}, {4, 5}, {5, 2}};
  auto run = [&] {
    BatchQueryRunner runner(queries);
    runner.RunEgoScan(pipeline, g.num_vertices());
  };
  run();  // warm-up: scratch grows to its high-water mark
  const std::size_t high_water =
      pipeline.workspace(0).scratch_capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 5; ++i) run();
  EXPECT_EQ(pipeline.workspace(0).scratch_capacity_bytes(), high_water);
}

// Satellite of the same property at the index layer: repeated TSD / GCT
// score and context queries through one IndexQueryScratch allocate nothing
// new once warm.
TEST(BatchWorkspaceReuseTest, RepeatedIndexQueriesDoNotGrowScratch) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  const TsdIndex tsd = TsdIndex::Build(g);
  const GctIndex gct = GctIndex::Build(g);
  IndexQueryScratch scratch;
  auto run_all = [&] {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (std::uint32_t k : {2u, 3u, 4u}) {
        tsd.Score(v, k);
        tsd.ScoreWithContexts(v, k, scratch);
        gct.ScoreWithContexts(v, k, scratch);
      }
    }
  };
  run_all();  // warm-up
  const std::size_t high_water = scratch.capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), high_water);
}

// The dynamic index's hot path holds the same property: Score and
// ScoreWithContexts through one IndexQueryScratch allocate nothing new
// once warm — including across updates, since rebuilt forest slices stay
// within the same universe and the scratch high-water mark already covers
// the largest per-vertex forest.
TEST(BatchWorkspaceReuseTest, DynamicIndexQueriesDoNotGrowScratch) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  DynamicTsdIndex dynamic(g);
  IndexQueryScratch scratch;
  auto run_all = [&] {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (std::uint32_t k : {2u, 3u, 4u}) {
        dynamic.Score(v, k);
        dynamic.ScoreWithContexts(v, k, scratch);
      }
    }
  };
  run_all();  // warm-up
  const std::size_t high_water = scratch.capacity_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), high_water);

  // Steady state survives live churn: updates rebuild forests but queries
  // still reuse the warmed scratch.
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    const VertexId v = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    if (i % 3 == 0) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
  }
  run_all();
  EXPECT_GE(scratch.capacity_bytes(), high_water);
  const std::size_t churned_high_water = scratch.capacity_bytes();
  for (int i = 0; i < 3; ++i) run_all();
  EXPECT_EQ(scratch.capacity_bytes(), churned_high_water);
}

}  // namespace
}  // namespace tsd
