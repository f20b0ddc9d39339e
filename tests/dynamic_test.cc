// Tests for the DynamicGraph substrate, the incrementally maintained
// DynamicTsdIndex, and the parallel index builders.
//
// The central dynamic property: after ANY sequence of edge insertions and
// deletions, the maintained index answers every (v, k) query identically to
// a TSD index rebuilt from scratch on the current graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/tsd_index.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "serve_test_util.h"

namespace tsd {
namespace {

// ------------------------------------------------------------ DynamicGraph

TEST(DynamicGraphTest, InsertRemoveRoundTrip) {
  DynamicGraph g(5);
  EXPECT_TRUE(g.InsertEdge(0, 1));
  EXPECT_FALSE(g.InsertEdge(1, 0));  // duplicate
  EXPECT_FALSE(g.InsertEdge(2, 2));  // self-loop
  EXPECT_TRUE(g.InsertEdge(1, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 1));
}

TEST(DynamicGraphTest, NeighborsStaySorted) {
  DynamicGraph g(10);
  for (VertexId v : {7u, 3u, 9u, 1u, 5u}) g.InsertEdge(0, v);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.degree(0), 5u);
  g.RemoveEdge(0, 5);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_TRUE(std::is_sorted(g.neighbors(0).begin(), g.neighbors(0).end()));
}

TEST(DynamicGraphTest, CommonNeighbors) {
  DynamicGraph g(6);
  g.InsertEdge(0, 2);
  g.InsertEdge(0, 3);
  g.InsertEdge(0, 4);
  g.InsertEdge(1, 3);
  g.InsertEdge(1, 4);
  g.InsertEdge(1, 5);
  EXPECT_EQ(g.CommonNeighbors(0, 1), (std::vector<VertexId>{3, 4}));
  EXPECT_TRUE(g.CommonNeighbors(2, 5).empty());
}

TEST(DynamicGraphTest, ConversionRoundTrip) {
  Graph original = HolmeKim(200, 4, 0.5, 3);
  DynamicGraph dynamic(original);
  EXPECT_EQ(dynamic.num_edges(), original.num_edges());
  Graph back = dynamic.ToGraph();
  EXPECT_TRUE(std::ranges::equal(back.edges(), original.edges()));
}

TEST(DynamicGraphTest, AddVertexGrows) {
  DynamicGraph g(2);
  const VertexId v = g.AddVertex();
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(g.InsertEdge(0, v));
  EXPECT_EQ(g.degree(v), 1u);
}

// --------------------------------------------------------- DynamicTsdIndex

void ExpectMatchesFreshBuild(const DynamicTsdIndex& dynamic) {
  const Graph snapshot = dynamic.graph().ToGraph();
  TsdIndex fresh = TsdIndex::Build(snapshot);
  for (VertexId v = 0; v < snapshot.num_vertices(); ++v) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(dynamic.Score(v, k), fresh.Score(v, k))
          << "v=" << v << " k=" << k;
      ASSERT_EQ(dynamic.ScoreUpperBound(v, k), fresh.ScoreUpperBound(v, k))
          << "v=" << v << " k=" << k;
    }
  }
}

TEST(DynamicTsdIndexTest, InitialBuildMatchesStatic) {
  Graph g = HolmeKim(150, 5, 0.6, 7);
  DynamicTsdIndex dynamic(g);
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.rebuild_count(), 0u);
}

TEST(DynamicTsdIndexTest, SingleInsertMatchesRebuild) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  // Connect the two s-vertices (new triangle-free edge).
  EXPECT_TRUE(dynamic.InsertEdge(15, 16));
  ExpectMatchesFreshBuild(dynamic);
  // Re-inserting is a no-op.
  EXPECT_FALSE(dynamic.InsertEdge(15, 16));
}

TEST(DynamicTsdIndexTest, InsertOnlyTouchesAffectedVertices) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  // Edge (x1, y2): common neighbors = {v}. Affected = {x1, y2, v} = 3.
  EXPECT_TRUE(dynamic.InsertEdge(1, 6));
  EXPECT_EQ(dynamic.rebuild_count(), 3u);
}

TEST(DynamicTsdIndexTest, DeleteSplitsContext) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  EXPECT_EQ(dynamic.Score(0, 4), 3u);
  // Deleting a clique edge destroys the x-context's 4-truss.
  EXPECT_TRUE(dynamic.RemoveEdge(1, 2));  // (x1, x2)
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.Score(0, 4), 2u);
  // Restoring the edge restores the score.
  EXPECT_TRUE(dynamic.InsertEdge(1, 2));
  EXPECT_EQ(dynamic.Score(0, 4), 3u);
  ExpectMatchesFreshBuild(dynamic);
}

TEST(DynamicTsdIndexTest, RandomizedUpdateStream) {
  Graph g = HolmeKim(80, 4, 0.6, 11);
  DynamicTsdIndex dynamic(g);
  Rng rng(13);
  for (int step = 0; step < 60; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(80));
    const auto v = static_cast<VertexId>(rng.Uniform(80));
    if (u == v) continue;
    if (dynamic.graph().HasEdge(u, v)) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
    if (step % 10 == 9) ExpectMatchesFreshBuild(dynamic);
  }
  ExpectMatchesFreshBuild(dynamic);
}

TEST(DynamicTsdIndexTest, TopRMatchesOnlineAfterUpdates) {
  Graph g = HolmeKim(120, 5, 0.6, 17);
  DynamicTsdIndex dynamic(g);
  Rng rng(19);
  for (int step = 0; step < 30; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(120));
    const auto v = static_cast<VertexId>(rng.Uniform(120));
    if (u != v && !dynamic.graph().HasEdge(u, v)) dynamic.InsertEdge(u, v);
  }
  const Graph snapshot = dynamic.graph().ToGraph();
  OnlineSearcher online(snapshot);
  for (std::uint32_t k : {3u, 4u}) {
    const TopRResult expected = online.TopR(5, k);
    const TopRResult actual = dynamic.TopR(5, k);
    ASSERT_EQ(actual.entries.size(), expected.entries.size());
    for (std::size_t i = 0; i < expected.entries.size(); ++i) {
      EXPECT_EQ(actual.entries[i].vertex, expected.entries[i].vertex);
      EXPECT_EQ(actual.entries[i].score, expected.entries[i].score);
    }
  }
}

TEST(DynamicTsdIndexTest, FreezeProducesEquivalentStaticIndex) {
  Graph g = HolmeKim(100, 4, 0.5, 23);
  DynamicTsdIndex dynamic(g);
  dynamic.InsertEdge(0, 50);
  dynamic.InsertEdge(1, 60);
  TsdIndex frozen = dynamic.Freeze();
  for (VertexId v = 0; v < 100; ++v) {
    for (std::uint32_t k = 2; k <= 5; ++k) {
      EXPECT_EQ(frozen.Score(v, k), dynamic.Score(v, k));
    }
  }
}

TEST(DynamicTsdIndexTest, AddVertexThenConnect) {
  Graph g = PaperFigure1Graph();
  DynamicTsdIndex dynamic(g);
  const VertexId nv = dynamic.AddVertex();
  EXPECT_EQ(dynamic.Score(nv, 2), 0u);
  // Attach the new vertex to the whole x-clique: its ego-network becomes a
  // 4-clique + v... attach to x1..x4.
  for (VertexId x = 1; x <= 4; ++x) dynamic.InsertEdge(nv, x);
  ExpectMatchesFreshBuild(dynamic);
  EXPECT_EQ(dynamic.Score(nv, 4), 1u);
}

TEST(DynamicTsdIndexTest, TopRReportsPhaseTimings) {
  Graph g = HolmeKim(300, 5, 0.6, 37);
  DynamicTsdIndex dynamic(g);
  const TsdIndex frozen = dynamic.Freeze();
  QuerySession session;
  const TopRResult result = dynamic.TopR(5, 3, session);
  EXPECT_GT(result.stats.preprocess_seconds, 0.0);
  EXPECT_GT(result.stats.score_seconds, 0.0);
  EXPECT_GT(result.stats.context_seconds, 0.0);
  EXPECT_EQ(result.stats.vertices_scored,
            frozen.TopR(5, 3, session).stats.vertices_scored);
}

// The dynamic index and its Freeze() run the same forest-slice drivers, so
// they must agree on entries AND on how many vertices each scan scored. The
// batch is small (total r * 64 <= n), the regime where a bound-ordered
// batch scan would stop early.
void ExpectSameAsFrozen(const DynamicTsdIndex& dynamic,
                        const std::string& label) {
  const TsdIndex frozen = dynamic.Freeze();
  const std::vector<BatchQuery> queries = {
      {3, 5}, {4, 10}, {5, 3}, {2, 1}, {6, 4}};
  std::uint64_t total_r = 0;
  for (const BatchQuery& q : queries) total_r += q.r;
  ASSERT_LE(total_r * 64, frozen.num_vertices());
  for (std::uint32_t threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.num_threads = threads;
    QuerySession session(options);
    const std::string where = label + " threads=" + std::to_string(threads);
    for (const BatchQuery& q : queries) {
      const TopRResult expected = frozen.TopR(q.r, q.k, session);
      const TopRResult actual = dynamic.TopR(q.r, q.k, session);
      test::ExpectSameEntries(expected, actual,
                              where + " TopR k=" + std::to_string(q.k));
      EXPECT_EQ(actual.stats.vertices_scored, expected.stats.vertices_scored)
          << where << " TopR k=" << q.k;
    }
    const std::vector<TopRResult> expected =
        frozen.SearchBatch(queries, session);
    const std::vector<TopRResult> actual =
        dynamic.SearchBatch(queries, session);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      test::ExpectSameEntries(expected[i], actual[i],
                              where + " batch q=" + std::to_string(i));
      EXPECT_EQ(actual[i].stats.vertices_scored,
                expected[i].stats.vertices_scored)
          << where << " batch q=" << i;
    }
  }
}

TEST(DynamicFrozenDifferentialTest, OneDriverBeforeAndAfterUpdates) {
  constexpr VertexId kN = 2000;
  Graph g = HolmeKim(kN, 5, 0.6, 41);
  DynamicTsdIndex dynamic(g);
  ExpectSameAsFrozen(dynamic, "initial");
  Rng rng(43);
  for (int step = 0; step < 40; ++step) {
    const auto u = static_cast<VertexId>(rng.Uniform(kN));
    const auto v = static_cast<VertexId>(rng.Uniform(kN));
    if (u == v) continue;
    if (dynamic.graph().HasEdge(u, v)) {
      dynamic.RemoveEdge(u, v);
    } else {
      dynamic.InsertEdge(u, v);
    }
  }
  // Densify one neighborhood so the updates reach the top of the ranking.
  for (VertexId w = 1; w <= 12; ++w) dynamic.InsertEdge(0, w);
  ExpectSameAsFrozen(dynamic, "after updates");
}

// ------------------------------------------------------------ Parallel

TEST(ParallelBuildTest, TsdParallelIdenticalToSequential) {
  Graph g = HolmeKim(400, 6, 0.6, 29);
  TsdIndex sequential = TsdIndex::Build(g);
  TsdIndex::Options parallel_options;
  parallel_options.num_threads = 4;
  TsdIndex parallel = TsdIndex::Build(g, parallel_options);
  ASSERT_EQ(parallel.num_vertices(), sequential.num_vertices());
  EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
  EXPECT_EQ(parallel.max_weight(), sequential.max_weight());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(parallel.NumForestEdges(v), sequential.NumForestEdges(v));
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(parallel.Score(v, k), sequential.Score(v, k))
          << "v=" << v << " k=" << k;
    }
  }
}

TEST(ParallelBuildTest, GctParallelIdenticalToSequential) {
  Graph g = HolmeKim(400, 6, 0.6, 31);
  GctIndex sequential = GctIndex::Build(g);
  GctIndex::Options parallel_options;
  parallel_options.num_threads = 4;
  GctIndex parallel = GctIndex::Build(g, parallel_options);
  parallel.CheckInvariants();
  ASSERT_EQ(parallel.num_vertices(), sequential.num_vertices());
  EXPECT_EQ(parallel.SizeBytes(), sequential.SizeBytes());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(parallel.NumSupernodes(v), sequential.NumSupernodes(v));
    ASSERT_EQ(parallel.NumSuperedges(v), sequential.NumSuperedges(v));
    for (std::uint32_t k = 2; k <= 6; ++k) {
      ASSERT_EQ(parallel.Score(v, k), sequential.Score(v, k));
    }
    EXPECT_EQ(parallel.ScoreWithContexts(v, 3).contexts,
              sequential.ScoreWithContexts(v, 3).contexts);
  }
}

TEST(ParallelBuildTest, SingleChunkGraphSmallerThanThreads) {
  // More threads than vertices must still work.
  Graph g = PaperFigure1Graph();
  TsdIndex::Options options;
  options.num_threads = 32;
  TsdIndex parallel = TsdIndex::Build(g, options);
  TsdIndex sequential = TsdIndex::Build(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parallel.Score(v, 4), sequential.Score(v, 4));
  }
}

}  // namespace
}  // namespace tsd
