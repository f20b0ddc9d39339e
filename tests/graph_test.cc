// Unit tests for the CSR graph, builder, and edge-list I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>

#include "common/check.h"
#include "common/snapshot.h"
#include "graph/edge_list_io.h"
#include "graph/graph.h"

namespace tsd {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  Graph g = GraphBuilder().Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, IsolatedVerticesViaEnsureVertices) {
  GraphBuilder b;
  b.EnsureVertices(5);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(4), 0u);
}

TEST(GraphBuilderTest, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder b;
  b.AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).AddEdge(2, 2).AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_FALSE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphTest, NeighborsSortedAndDegreesCorrect) {
  // Star plus an extra edge.
  Graph g = Graph::FromEdges({{3, 0}, {1, 0}, {0, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.degree(0), 3u);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{1, 2, 3}));
}

TEST(GraphTest, EdgeIdsConsistentAcrossDirections) {
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = g.edge(eids[i]);
      EXPECT_TRUE((e.u == v && e.v == nbrs[i]) ||
                  (e.v == v && e.u == nbrs[i]));
      EXPECT_LT(e.u, e.v);
    }
  }
}

TEST(GraphTest, FindEdgeMatchesHasEdge) {
  std::mt19937 rng(5);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int i = 0; i < 200; ++i) {
    edges.emplace_back(rng() % 40, rng() % 40);
  }
  Graph g = Graph::FromEdges(edges, 40);
  for (VertexId u = 0; u < 40; ++u) {
    for (VertexId v = 0; v < 40; ++v) {
      const EdgeId e = g.FindEdge(u, v);
      EXPECT_EQ(e != kInvalidEdge, g.HasEdge(u, v));
      if (e != kInvalidEdge) {
        EXPECT_EQ(g.edge(e).u, std::min(u, v));
        EXPECT_EQ(g.edge(e).v, std::max(u, v));
      }
    }
  }
}

TEST(GraphTest, EdgesSortedByEndpoints) {
  Graph g = Graph::FromEdges({{5, 2}, {1, 0}, {3, 1}, {2, 0}});
  const auto& edges = g.edges();
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(GraphTest, MaxDegree) {
  Graph g = Graph::FromEdges({{0, 1}, {0, 2}, {0, 3}, {1, 2}});
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(GraphTest, OffsetsSpanConsistent) {
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  const auto offsets = g.offsets();
  ASSERT_EQ(offsets.size(), g.num_vertices() + 1u);
  EXPECT_EQ(offsets.back(), 2ull * g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(offsets[v + 1] - offsets[v], g.degree(v));
  }
}

// ---------------------------------------------------------------- I/O

class EdgeListIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
};

TEST_F(EdgeListIoTest, TextRoundTrip) {
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {0, 2}, {3, 4}}, 6);
  const std::string path = TempPath("tsd_graph_io.txt");
  SaveEdgeListText(g, path);
  Graph loaded = LoadEdgeListText(path);
  // Text format does not carry isolated trailing vertices (vertex 5).
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(loaded.HasEdge(e.u, e.v));
  std::filesystem::remove(path);
}

TEST_F(EdgeListIoTest, ParsesSnapStyleCommentsAndWhitespace) {
  const std::string path = TempPath("tsd_graph_snap.txt");
  {
    std::ofstream out(path);
    out << "# Directed graph (each unordered pair of nodes is saved once)\n"
        << "% another comment style\n"
        << "\n"
        << "0\t1\n"
        << "  2   3  \n"
        << "1 2\n";
  }
  Graph g = LoadEdgeListText(path);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(1, 2));
  std::filesystem::remove(path);
}

TEST_F(EdgeListIoTest, RejectsGarbageLines) {
  const std::string path = TempPath("tsd_graph_bad.txt");
  {
    std::ofstream out(path);
    out << "0 notanumber\n";
  }
  EXPECT_THROW(LoadEdgeListText(path), CheckError);
  std::filesystem::remove(path);
}

// Regression: "1 2x7" used to load silently as the edge (1, 2) — any
// non-numeric tail after the second id was ignored. Such lines must fail
// with a line-numbered parse error now.
TEST_F(EdgeListIoTest, RejectsTrailingGarbageAfterIds) {
  const std::string path = TempPath("tsd_graph_trailing.txt");
  for (const char* line : {"1 2x7", "1 2 junk", "1 2 3 4", "1 2 1.5suffix"}) {
    {
      std::ofstream out(path);
      out << "0 1\n" << line << "\n";
    }
    try {
      LoadEdgeListText(path);
      FAIL() << "accepted malformed line: '" << line << "'";
    } catch (const CheckError& e) {
      // The error names the file and the 1-based offending line.
      EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos)
          << e.what();
    }
  }
  std::filesystem::remove(path);
}

// An optional numeric third column (edge weight) stays loadable — weighted
// SNAP exports are common — but the weight itself is ignored.
TEST_F(EdgeListIoTest, AcceptsOptionalWeightColumn) {
  const std::string path = TempPath("tsd_graph_weighted.txt");
  {
    std::ofstream out(path);
    out << "# weighted graph\n"
        << "0 1 0.25\n"
        << "1 2 17\n"
        << "2 3 -3.5e2\n"
        << "3 4\t1.0\r\n";
  }
  const Graph g = LoadEdgeListText(path);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(3, 4));
  std::filesystem::remove(path);
}

TEST_F(EdgeListIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadEdgeListText("/nonexistent/really/not/here.txt"),
               CheckError);
}

TEST_F(EdgeListIoTest, SnapshotRoundTripPreservesTrailingIsolatedVertices) {
  // Unlike the text format, a snapshot carries the vertex count, so
  // vertices 6..8 (no edges, after the last endpoint) survive.
  Graph g = Graph::FromEdges({{0, 1}, {1, 2}, {4, 5}}, 9);
  const std::string path = TempPath("tsd_graph_io.snap");
  {
    SnapshotWriter writer(path);
    g.AppendToSnapshot(writer);
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  Graph loaded;
  ASSERT_TRUE(Graph::LoadFromSnapshot(reader, &loaded, &error)) << error;
  EXPECT_EQ(loaded.num_vertices(), 9u);
  EXPECT_EQ(loaded.num_edges(), 3u);
  for (const Edge& e : g.edges()) EXPECT_TRUE(loaded.HasEdge(e.u, e.v));
  for (VertexId v = 6; v < 9; ++v) EXPECT_EQ(loaded.degree(v), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tsd
