// Unit tests for the CSR graph, builder, and edge-list I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "graph/edge_list_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "reference_impls.h"

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

// The linear filter must build exactly the CSR that sorting the kept edges
// through the builder builds, isolated and emptied vertices included.
TEST(GraphTest, EdgeSubgraphMatchesRebuildFromKeptEdges) {
  std::mt19937 rng(11);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int i = 0; i < 400; ++i) edges.emplace_back(rng() % 60, rng() % 60);
  const Graph g = Graph::FromEdges(edges, 64);
  for (const unsigned keep_percent : {0u, 30u, 70u, 100u}) {
    std::vector<std::uint8_t> keep(g.num_edges());
    std::vector<std::pair<VertexId, VertexId>> kept;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      keep[e] = rng() % 100 < keep_percent ? 1 : 0;
      if (keep[e]) kept.emplace_back(g.edge(e).u, g.edge(e).v);
    }
    const Graph expected = Graph::FromEdges(kept, g.num_vertices());
    const Graph actual = g.EdgeSubgraph(keep);
    const auto as_vector = [](auto span) {
      return std::vector(span.begin(), span.end());
    };
    EXPECT_EQ(actual.num_vertices(), expected.num_vertices());
    EXPECT_EQ(actual.max_degree(), expected.max_degree());
    EXPECT_EQ(as_vector(actual.edges()), as_vector(expected.edges()));
    EXPECT_EQ(as_vector(actual.offsets()), as_vector(expected.offsets()));
    EXPECT_EQ(as_vector(actual.adjacency()), as_vector(expected.adjacency()));
    EXPECT_EQ(as_vector(actual.adjacency_edge_ids()),
              as_vector(expected.adjacency_edge_ids()));
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
  // A directory opens but cannot be read; it is not an empty graph.
  EXPECT_THROW(
      LoadEdgeListText(std::filesystem::temp_directory_path().string()),
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

// ------------------------------------------- Loader differential test

/// What loading one file gives: a graph, or the message of the CheckError
/// (the text after "— "; the check's own source location differs between
/// the loader and the oracle).
struct LoadOutcome {
  std::optional<Graph> graph;
  std::string error;
};

template <typename Loader>
LoadOutcome Load(Loader&& loader, const std::string& path) {
  LoadOutcome outcome;
  try {
    outcome.graph = loader(path);
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const std::size_t dash = what.find("— ");
    outcome.error = dash == std::string::npos ? what : what.substr(dash);
  }
  return outcome;
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_TRUE(std::ranges::equal(a.edges(), b.edges()));
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.adjacency(), b.adjacency()));
  EXPECT_TRUE(
      std::ranges::equal(a.adjacency_edge_ids(), b.adjacency_edge_ids()));
}

/// Loads `content` with LoadEdgeListText and with the getline oracle:
/// both must return the same graph, or both throw the same message.
/// Returns the loader's outcome.
LoadOutcome ExpectLoadersAgree(const std::string& content,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsd_loader_diff.txt")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  LoadOutcome actual = Load(LoadEdgeListText, path);
  const LoadOutcome expected = Load(testing::ReferenceLoadEdgeListText, path);
  std::filesystem::remove(path);
  EXPECT_EQ(actual.graph.has_value(), expected.graph.has_value())
      << "loader: '" << actual.error << "' oracle: '" << expected.error
      << "'";
  EXPECT_EQ(actual.error, expected.error);
  if (actual.graph && expected.graph) {
    ExpectSameGraph(*actual.graph, *expected.graph);
  }
  return actual;
}

/// One random line of a messy SNAP-style file. With `clean`, only forms
/// both loaders accept; otherwise, now and then a form they reject.
std::string RandomLine(Rng& rng, bool clean) {
  const auto pick = [&](std::initializer_list<std::string> options) {
    return options.begin()[rng.Uniform(options.size())];
  };
  const std::uint64_t kind = rng.Uniform(20);
  if (kind == 0) return pick({"# comment 1 2", "% comment", "#", "%%"});
  if (kind == 1) return pick({"", "   ", "\t", "\r"});
  const auto id = [&]() -> std::string {
    if (rng.Uniform(12) != 0) return std::to_string(rng.Uniform(60));
    // No accepted id near 2^32 here: a graph that large is not built in a
    // test (the edge cases parse one in a file rejected later).
    return clean ? pick({"+1", "007"})
                 : pick({"+1", "-1", "4294967295", "123456789012345678901",
                         "007", "x", ""});
  };
  std::string line = rng.Uniform(6) == 0 ? pick({" ", "\t", "  \t"}) : "";
  line += id();
  line += rng.Uniform(4) == 0 ? pick({"\t", "  ", " \t "}) : " ";
  line += id();
  if (rng.Uniform(5) == 0) {
    line += clean ? pick({" 0.25", "\t-3.5e2", " inf", " 17", " ", "\t"})
                  : pick({" 0.25", "\t-3.5e2", " inf", " 1.5suffix",
                          " 3 4", "x7", " junk", std::string("\0z", 2), " \t"});
  }
  if (!clean && rng.Uniform(40) == 0) line += std::string("\0tail", 5);
  return line;
}

TEST_F(EdgeListIoTest, LoaderMatchesGetlineOracleOnSeededCorpus) {
  Rng rng(2029);
  int accepted = 0;
  int rejected = 0;
  for (int file = 0; file < 400; ++file) {
    const bool clean = file % 2 == 0;
    std::string content;
    const std::uint64_t lines = rng.Uniform(40);
    for (std::uint64_t i = 0; i < lines; ++i) {
      content += RandomLine(rng, clean || rng.Uniform(8) != 0);
      content += rng.Uniform(3) == 0 ? "\r\n" : "\n";
    }
    if (rng.Uniform(4) == 0 && !content.empty()) content.pop_back();
    const LoadOutcome outcome =
        ExpectLoadersAgree(content, "file " + std::to_string(file));
    (outcome.graph ? accepted : rejected)++;
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 20);
}

TEST_F(EdgeListIoTest, LoaderMatchesGetlineOracleOnEdgeCases) {
  const std::string nul(1, '\0');
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty file", ""},
      {"no final newline", "0 1\n1 2"},
      {"tabs and spaces", "0\t1\n  1 2  \n\t2\t\t3\t\n"},
      {"crlf", "0 1\r\n1 2\r\n"},
      {"comments and blanks", "# c\n% c\n\n   \n0 1\n"},
      {"plus sign", "+1 2\n"},
      {"minus sign", "0 1\n-1 2\n"},
      {"largest id, then a rejected line", "4294967294 1\n0 x\n"},
      {"largest id with a weight, then a rejected line",
       "1 4294967294 0.5\n0 x\n"},
      {"id overflow", "4294967295 1\n"},
      {"twenty digits", "0 1\n12345678901234567890 1\n"},
      {"ten digits", "0000000001 0000000002\n"},
      {"weights", "0 1 0.25\n1 2 -3.5e2\n2 3 inf\n"},
      {"weight with suffix", "0 1 1.5suffix\n"},
      {"four columns", "0 1\n1 2 3 4\n"},
      {"embedded nul after edge", "0 1" + nul + "junk\n1 2\n"},
      {"embedded nul line", "0 1\n" + nul + "\n"},
      {"one id", "0 1\n7\n"},
      {"self-loop raises the vertex count", "0 1\n9 9\n"},
  };
  for (const auto& [label, content] : cases) {
    ExpectLoadersAgree(content, label);
  }
}

// The reader fills 64 KiB blocks: lines that straddle a block boundary,
// lines longer than a block, and line numbers past the first block.
TEST_F(EdgeListIoTest, LoaderMatchesGetlineOracleAcrossBlocks) {
  constexpr std::size_t kBlock = std::size_t{64} << 10;
  // A comment that ends 3 bytes before the boundary, then edge lines.
  const std::string pad = "#" + std::string(kBlock - 5, 'x') + "\n";
  ASSERT_EQ(pad.size(), kBlock - 3);
  for (const std::string& straddle :
       {std::string("123\t456\n"), std::string("123\t45x\n"),
        std::string("1 2 0.5\r\n")}) {
    ExpectLoadersAgree(pad + straddle + "7 8\n", "straddle " + straddle);
  }
  const std::string long_gap = "1" + std::string(3 * kBlock, ' ') + "2\n";
  ExpectLoadersAgree(long_gap + "2 3\n", "edge line longer than a block");
  ExpectLoadersAgree("# " + std::string(2 * kBlock, 'c') + "\n4 5",
                     "comment longer than a block, no final newline");
  ExpectLoadersAgree("0 1\n1 2 " + std::string(kBlock + 7, 'z') + "\n",
                     "garbage tail longer than a block");
  std::string many;
  for (int i = 0; i < 30000; ++i) {
    many += std::to_string(i) + "\t" + std::to_string(i + 1) + "\n";
  }
  ExpectLoadersAgree(many, "many blocks");
  const LoadOutcome bad = ExpectLoadersAgree(many + "1 x\n", "late error");
  EXPECT_NE(bad.error.find(":30001"), std::string::npos) << bad.error;
}

// Input out of (u, v) order, with both directions of every edge and
// duplicates, takes the builder's sort; a saved graph is already sorted.
TEST_F(EdgeListIoTest, UnsortedBothDirectionsLoadsLikeSortedInput) {
  const Graph g = HolmeKim(300, 4, 0.5, 7);
  std::vector<std::string> lines;
  for (const Edge& e : g.edges()) {
    lines.push_back(std::to_string(e.u) + " " + std::to_string(e.v));
    lines.push_back(std::to_string(e.v) + "\t" + std::to_string(e.u));
  }
  std::shuffle(lines.begin(), lines.end(), std::mt19937(11));
  std::string content;
  for (const std::string& line : lines) content += line + "\n";
  const LoadOutcome unsorted = ExpectLoadersAgree(content, "unsorted");
  ASSERT_TRUE(unsorted.graph.has_value());
  ExpectSameGraph(*unsorted.graph, g);

  const std::string path = TempPath("tsd_graph_sorted.txt");
  SaveEdgeListText(g, path);
  ExpectSameGraph(LoadEdgeListText(path), g);
  std::filesystem::remove(path);
}

TEST(GraphBuilderTest, SortedAndUnsortedInputBuildTheSameGraph) {
  const Graph g = HolmeKim(200, 3, 0.4, 5);
  GraphBuilder sorted;
  GraphBuilder reversed;
  for (const Edge& e : g.edges()) sorted.AddEdge(e.u, e.v);
  for (auto it = g.edges().rbegin(); it != g.edges().rend(); ++it) {
    reversed.AddEdge(it->v, it->u);
    reversed.AddEdge(it->u, it->u);  // self-loops are dropped either way
  }
  ExpectSameGraph(sorted.Build(), g);
  ExpectSameGraph(reversed.Build(), g);
}

}  // namespace
}  // namespace tsd
