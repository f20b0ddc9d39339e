// Tests for the per-ego scoring kernels (truss / component / k-core models),
// the TopRCollector ordering and pruning semantics, and the Lemma 2 upper
// bounds.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bound_search.h"
#include "core/scoring.h"
#include "core/top_r_collector.h"
#include "graph/ego_network.h"
#include "graph/generators.h"
#include "truss/ego_truss.h"
#include "graph/triangle.h"

namespace tsd {
namespace {

EgoNetwork Figure1EgoOfV() {
  Graph g = PaperFigure1Graph();
  EgoNetworkExtractor extractor(g);
  return extractor.Extract(0);
}

TEST(ScoreFromEgoTrussnessTest, Figure1AcrossK) {
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 2, false).score, 2u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 3, false).score, 2u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 4, false).score, 3u);
  EXPECT_EQ(ScoreFromEgoTrussness(ego, trussness, 5, false).score, 0u);
}

TEST(ScoreFromEgoTrussnessTest, ContextsOnlyWhenRequested) {
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  EXPECT_TRUE(ScoreFromEgoTrussness(ego, trussness, 4, false).contexts.empty());
  const auto result = ScoreFromEgoTrussness(ego, trussness, 4, true);
  ASSERT_EQ(result.contexts.size(), 3u);
  // Contexts sorted by smallest member; each sorted internally.
  EXPECT_EQ(result.contexts[0], (SocialContext{1, 2, 3, 4}));
  EXPECT_EQ(result.contexts[1], (SocialContext{5, 6, 7, 8}));
  EXPECT_EQ(result.contexts[2], (SocialContext{9, 10, 11, 12, 13, 14}));
}

TEST(ScoreComponentsTest, Figure1SizesThreshold) {
  EgoNetwork ego = Figure1EgoOfV();
  // Components of v's ego: {x,y merged} (8 vertices) and octahedron (6).
  EXPECT_EQ(ScoreComponents(ego, 2, false).score, 2u);
  EXPECT_EQ(ScoreComponents(ego, 7, false).score, 1u);
  EXPECT_EQ(ScoreComponents(ego, 9, false).score, 0u);
  const auto result = ScoreComponents(ego, 2, true);
  ASSERT_EQ(result.contexts.size(), 2u);
  EXPECT_EQ(result.contexts[0].size(), 8u);
  EXPECT_EQ(result.contexts[1].size(), 6u);
}

TEST(ScoreKCoresTest, Figure1) {
  EgoNetwork ego = Figure1EgoOfV();
  // 3-cores of the ego-network: x-clique+y-clique component has a 3-core
  // (the cliques), octahedron is a 4-core.
  const auto result3 = ScoreKCores(ego, 3, true);
  EXPECT_EQ(result3.score, 2u);
  const auto result4 = ScoreKCores(ego, 4, true);
  // Only the octahedron is a 4-core.
  ASSERT_EQ(result4.score, 1u);
  EXPECT_EQ(result4.contexts[0], (SocialContext{9, 10, 11, 12, 13, 14}));
  EXPECT_EQ(ScoreKCores(ego, 5, false).score, 0u);
}

TEST(ScoreKCoresTest, CoreModelMergesWhatTrussSeparates) {
  // The paper's core-model critique: H1 (two 4-cliques + 2 bridges through
  // y1) is one connected 3-core, but two 4-trusses.
  EgoNetwork ego = Figure1EgoOfV();
  const auto trussness = ComputeEgoTrussness(ego);
  const auto truss4 = ScoreFromEgoTrussness(ego, trussness, 4, true);
  const auto core3 = ScoreKCores(ego, 3, true);
  // truss at k=4 separates x-clique from y-clique; core-3 keeps them merged.
  bool core_has_merged_xy = false;
  for (const auto& context : core3.contexts) {
    if (context.size() == 8) core_has_merged_xy = true;
  }
  EXPECT_TRUE(core_has_merged_xy);
  bool truss_has_separate_x = false;
  for (const auto& context : truss4.contexts) {
    if (context == SocialContext{1, 2, 3, 4}) truss_has_separate_x = true;
  }
  EXPECT_TRUE(truss_has_separate_x);
}

// ---------------------------------------------------------------- Collector

TEST(TopRCollectorTest, KeepsHighestScores) {
  TopRCollector collector(2);
  collector.Offer(10, 5);
  collector.Offer(11, 1);
  collector.Offer(12, 7);
  const auto ranked = collector.Ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], (std::pair<VertexId, std::uint32_t>{12, 7}));
  EXPECT_EQ(ranked[1], (std::pair<VertexId, std::uint32_t>{10, 5}));
}

TEST(TopRCollectorTest, TieBrokenBySmallerId) {
  TopRCollector collector(2);
  collector.Offer(30, 4);
  collector.Offer(20, 4);
  EXPECT_TRUE(collector.Offer(10, 4));   // displaces 30
  EXPECT_FALSE(collector.Offer(40, 4));  // larger id loses the tie
  const auto ranked = collector.Ranked();
  EXPECT_EQ(ranked[0].first, 10u);
  EXPECT_EQ(ranked[1].first, 20u);
}

TEST(TopRCollectorTest, PruneSemantics) {
  TopRCollector collector(2);
  EXPECT_FALSE(collector.CanPrune(0, 0));  // not full yet
  collector.Offer(5, 3);
  collector.Offer(9, 3);
  // bound below worst score prunes.
  EXPECT_TRUE(collector.CanPrune(2, 100));
  // bound equal to worst score: only a smaller id could still displace.
  EXPECT_FALSE(collector.CanPrune(3, 7));   // 7 < worst id 9: must evaluate
  EXPECT_TRUE(collector.CanPrune(3, 10));   // 10 > 9: prune
  // bound above worst score never prunes.
  EXPECT_FALSE(collector.CanPrune(4, 1000));
}

TEST(TopRCollectorTest, WorstTracksDisplacement) {
  TopRCollector collector(2);
  collector.Offer(1, 1);
  collector.Offer(2, 2);
  EXPECT_EQ(collector.WorstScore(), 1u);
  EXPECT_EQ(collector.WorstId(), 1u);
  collector.Offer(3, 5);
  EXPECT_EQ(collector.WorstScore(), 2u);
  EXPECT_EQ(collector.WorstId(), 2u);
}

// ---------------------------------------------------------------- Bounds

TEST(UpperBoundTest, Lemma2HoldsEverywhere) {
  for (std::uint64_t seed : {3ull, 4ull}) {
    Graph g = HolmeKim(200, 5, 0.6, seed);
    const auto ego_edges = TrianglesPerVertex(g);
    EgoNetworkExtractor extractor(g);
    EgoTrussDecomposer decomposer;
    for (std::uint32_t k : {2u, 3u, 4u, 5u}) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EgoNetwork ego = extractor.Extract(v);
        const auto trussness = decomposer.Compute(ego);
        const auto score =
            ScoreFromEgoTrussness(ego, trussness, k, false).score;
        EXPECT_GE(BoundSearcher::UpperBound(g.degree(v), ego_edges[v], k),
                  score)
            << "v=" << v << " k=" << k;
      }
    }
  }
}

TEST(UpperBoundTest, Figure1Example3Values) {
  Graph g = PaperFigure1Graph();
  const auto ego_edges = TrianglesPerVertex(g);
  const auto bound = [&](VertexId v) {
    return BoundSearcher::UpperBound(g.degree(v), ego_edges[v], 4);
  };
  // score̅(v) = min(⌊14/4⌋, ⌊2*26/12⌋) = min(3, 4) = 3 (Example 3).
  EXPECT_EQ(bound(0), 3u);
  // score̅(x1) = min(⌊5/4⌋, ⌊2*7/12⌋) = 1.
  EXPECT_EQ(bound(1), 1u);
}

}  // namespace
}  // namespace tsd
