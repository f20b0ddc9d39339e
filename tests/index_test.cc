// Tests specific to the TSD-index and GCT-index data structures:
// serialization round trips, structural invariants, build stats,
// and kernel-choice independence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/check.h"
#include "common/snapshot.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/tsd_index.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "reference_impls.h"

namespace tsd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The bytes of a single-index snapshot of `index`.
template <typename Index>
std::string SnapshotBytes(const Index& index, const std::string& name) {
  const std::string path = TempPath(name);
  index.Save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(TsdIndexTest, SaveLoadRoundTripPreservesAllScores) {
  Graph g = HolmeKim(300, 5, 0.6, 21);
  TsdIndex built = TsdIndex::Build(g);
  const std::string path = TempPath("tsd_index_roundtrip.bin");
  built.Save(path);
  TsdIndex loaded = TsdIndex::Load(path);
  ASSERT_EQ(loaded.num_vertices(), built.num_vertices());
  EXPECT_EQ(loaded.SizeBytes(), built.SizeBytes());
  EXPECT_EQ(loaded.max_weight(), built.max_weight());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      EXPECT_EQ(loaded.Score(v, k), built.Score(v, k));
    }
  }
  std::filesystem::remove(path);
}

TEST(TsdIndexTest, LoadRejectsCorruptFile) {
  const std::string path = TempPath("tsd_index_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage that is definitely not an index";
  }
  EXPECT_THROW(TsdIndex::Load(path), CheckError);
  std::filesystem::remove(path);
}

TEST(TsdIndexTest, ForestEdgesBoundedByMembers) {
  Graph g = HolmeKim(200, 5, 0.5, 23);
  TsdIndex index = TsdIndex::Build(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // A spanning forest of the ego-network has fewer than |N(v)| edges.
    EXPECT_LT(index.NumForestEdges(v), std::max(1u, g.degree(v) + 1));
  }
}

TEST(TsdIndexTest, IndexSizeIsLinearInGraph) {
  // O(m) index size claim (Theorem 3): forest edges <= sum of degrees.
  Graph g = MakeDataset("email-enron", "tiny");
  TsdIndex index = TsdIndex::Build(g);
  EXPECT_LE(index.SizeBytes(),
            (2ull * g.num_edges()) * 12 + (g.num_vertices() + 1) * 8 + 64);
}

TEST(TsdIndexTest, BuildStatsPopulated) {
  Graph g = HolmeKim(400, 5, 0.5, 29);
  TsdIndex index = TsdIndex::Build(g);
  const IndexBuildStats stats = index.build_stats();
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.extraction_seconds, 0.0);
  EXPECT_GT(stats.decomposition_seconds, 0.0);
  EXPECT_GT(stats.assembly_seconds, 0.0);
}

TEST(TsdIndexTest, BitmapBuildOptionProducesIdenticalIndex) {
  Graph g = HolmeKim(250, 6, 0.6, 31);
  TsdIndex::Options bitmap_options;
  bitmap_options.method = EgoTrussMethod::kBitmap;
  TsdIndex hash_built = TsdIndex::Build(g);
  TsdIndex bitmap_built = TsdIndex::Build(g, bitmap_options);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      EXPECT_EQ(hash_built.Score(v, k), bitmap_built.Score(v, k));
    }
  }
}

// ---------------------------------------------------------------- GCT

TEST(GctIndexTest, SaveLoadRoundTripPreservesScoresAndContexts) {
  Graph g = HolmeKim(300, 5, 0.6, 37);
  GctIndex built = GctIndex::Build(g);
  const std::string path = TempPath("gct_index_roundtrip.bin");
  built.Save(path);
  GctIndex loaded = GctIndex::Load(path);
  ASSERT_EQ(loaded.num_vertices(), built.num_vertices());
  EXPECT_EQ(loaded.SizeBytes(), built.SizeBytes());
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      EXPECT_EQ(loaded.Score(v, k), built.Score(v, k));
      EXPECT_EQ(loaded.ScoreWithContexts(v, k).contexts,
                built.ScoreWithContexts(v, k).contexts);
    }
  }
  std::filesystem::remove(path);
}

TEST(GctIndexTest, LoadRejectsTruncatedFile) {
  Graph g = HolmeKim(100, 4, 0.5, 38);
  GctIndex built = GctIndex::Build(g);
  const std::string path = TempPath("gct_index_trunc.bin");
  built.Save(path);
  // Truncate the file to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(GctIndex::Load(path), CheckError);
  std::filesystem::remove(path);
}

TEST(GctIndexTest, InvariantsHoldOnVariedGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Graph g = HolmeKim(200, 6, 0.7, seed);
    GctIndex index = GctIndex::Build(g);
    index.CheckInvariants();
  }
  GctIndex figure1 = GctIndex::Build(PaperFigure1Graph());
  figure1.CheckInvariants();
}

TEST(GctIndexTest, Figure1SupernodeStructure) {
  // For v's ego-network the GCT index should hold three 4-truss supernodes
  // (x-clique, y-clique, octahedron) and one weight-3 superedge joining the
  // x and y supernodes — exactly Figure 7 of the paper.
  Graph g = PaperFigure1Graph();
  GctIndex index = GctIndex::Build(g);
  EXPECT_EQ(index.NumSupernodes(0), 3u);
  EXPECT_EQ(index.NumSuperedges(0), 1u);
  EXPECT_EQ(index.Score(0, 4), 3u);
  EXPECT_EQ(index.Score(0, 3), 2u);
}

// Score indexes the per-vertex offset arrays with v and assumes k ≥ 2, so
// both are checked in every build mode rather than read out of bounds.
TEST(GctIndexTest, ScoreRejectsOutOfRangeArguments) {
  Graph g = PaperFigure1Graph();
  GctIndex index = GctIndex::Build(g);
  EXPECT_THROW(index.Score(0, 1), CheckError);
  EXPECT_THROW(index.Score(g.num_vertices(), 2), CheckError);
  EXPECT_THROW(index.Score(kInvalidVertex, 2), CheckError);
}

TEST(GctIndexTest, GctMuchSmallerThanTsdOnUniformContexts) {
  // Table 3's headline claim. The compression wins appear where social
  // contexts have uniform trussness (paper: socfb-konect 663MB -> 106MB,
  // NotreDame 45MB -> 20MB): a whole context collapses to one supernode
  // with a member list, while the TSD forest spells out M-1 weighted edges.
  CollaborationOptions options;
  options.num_authors = 4000;
  options.num_groups = 420;
  options.intra_group_probability = 1.0;  // pure cliques
  options.bridge_edges_per_author = 0.05;
  options.num_hubs = 10;
  const Graph g = Collaboration(options, 3).graph;
  TsdIndex tsd = TsdIndex::Build(g);
  GctIndex gct = GctIndex::Build(g);
  EXPECT_LT(gct.SizeBytes(), tsd.SizeBytes());
}

TEST(GctIndexTest, GctComparableToTsdOnDenseGraphs) {
  // On triangle-dense graphs with heterogeneous trussness the two indexes
  // are close (paper: wiki-vote 4.2MB -> 4.0MB; epinions 13.3 -> 13.1).
  Graph g = MakeDataset("wiki-vote", "tiny");
  TsdIndex tsd = TsdIndex::Build(g);
  GctIndex gct = GctIndex::Build(g);
  EXPECT_LT(gct.SizeBytes(), 2 * tsd.SizeBytes());
}

// The snapshot bytes, not just the scores, must not depend on the ego
// source, the ego truss kernel or the thread count.
TEST(GctIndexTest, HashKernelAndPerVertexExtractionProduceSameScores) {
  Graph g = HolmeKim(200, 5, 0.6, 41);
  const GctIndex reference = GctIndex::Build(g);
  const std::string reference_bytes =
      SnapshotBytes(reference, "gct_options_reference.bin");
  for (const bool listing : {true, false}) {
    for (const EgoTrussMethod method :
         {EgoTrussMethod::kBitmap, EgoTrussMethod::kHash}) {
      for (const std::uint32_t threads : {1U, 2U, 8U}) {
        SCOPED_TRACE(::testing::Message()
                     << "listing=" << listing << " hash="
                     << (method == EgoTrussMethod::kHash)
                     << " threads=" << threads);
        GctIndex::Options options;
        options.use_global_listing = listing;
        options.method = method;
        options.num_threads = threads;
        const GctIndex built = GctIndex::Build(g, options);
        EXPECT_EQ(SnapshotBytes(built, "gct_options.bin"), reference_bytes);
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          for (std::uint32_t k = 2; k <= 6; ++k) {
            EXPECT_EQ(built.Score(v, k), reference.Score(v, k));
          }
        }
      }
    }
  }
  const std::string tsd_bytes =
      SnapshotBytes(TsdIndex::Build(g), "tsd_threads_reference.bin");
  for (const std::uint32_t threads : {2U, 8U}) {
    TsdIndex::Options options;
    options.num_threads = threads;
    EXPECT_EQ(SnapshotBytes(TsdIndex::Build(g, options), "tsd_threads.bin"),
              tsd_bytes)
        << "threads=" << threads;
  }
}

// Two ego-networks that each hold a 4-clique through c plus a weight-3
// triangle a-b-c, with τ(c) = 4 > 3. Kruskal meets equal weights in ego edge
// order: at center 0 (a=1, b=2, c=3) edge a-b comes first and merges a and
// b; at center 10 (c=11, a=12, b=13) edges c-a and c-b come first, so a-b
// closes a cycle and a, b stay two supernodes.
Graph EqualWeightTieGraph() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  auto clique = [&](std::vector<VertexId> vertices) {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      for (std::size_t j = i + 1; j < vertices.size(); ++j) {
        edges.emplace_back(vertices[i], vertices[j]);
      }
    }
  };
  for (const VertexId center : {0U, 10U}) {
    const VertexId a = center == 0 ? 1 : 12;
    const VertexId b = center == 0 ? 2 : 13;
    const VertexId c = center == 0 ? 3 : 11;
    clique({c, center + 4, center + 5, center + 6});
    clique({a, b, c});
    for (const VertexId member :
         {a, b, c, center + 4, center + 5, center + 6}) {
      edges.emplace_back(center, member);
    }
  }
  return Graph::FromEdges(std::move(edges));
}

TEST(GctIndexTest, EqualWeightTieFollowsKruskalOrder) {
  const GctIndex index = GctIndex::Build(EqualWeightTieGraph());
  EXPECT_EQ(index.NumSupernodes(0), 2u);
  EXPECT_EQ(index.NumSuperedges(0), 1u);
  EXPECT_EQ(index.NumSupernodes(10), 3u);
  EXPECT_EQ(index.NumSuperedges(10), 2u);
}

// The contraction of the forest slices must reproduce Algorithm 8 array
// for array, as stored in the "gctx.*" snapshot sections.
TEST(GctIndexTest, SnapshotArraysMatchAlgorithm8Reference) {
  CollaborationOptions cliques;
  cliques.num_authors = 1500;
  cliques.num_groups = 160;
  cliques.intra_group_probability = 1.0;
  cliques.bridge_edges_per_author = 0.05;
  cliques.num_hubs = 5;
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("figure1", PaperFigure1Graph());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    graphs.emplace_back("holme-kim-" + std::to_string(seed),
                        HolmeKim(200, 6, 0.7, seed));
  }
  graphs.emplace_back("wiki-vote-tiny", MakeDataset("wiki-vote", "tiny"));
  graphs.emplace_back("cliques", Collaboration(cliques, 3).graph);
  graphs.emplace_back("equal-weight-tie", EqualWeightTieGraph());

  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const testing::GctArrays expected = testing::ReferenceGct(g);
    const std::string path = TempPath("gct_reference.bin");
    GctIndex::Build(g).Save(path);
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
    std::uint64_t meta[3] = {};
    ASSERT_TRUE(reader.ReadScalars(SnapshotTag("gctx.met"), meta, &error));
    EXPECT_EQ(meta[1], g.num_vertices());
    EXPECT_EQ(meta[2], expected.max_trussness);
    const std::pair<const char*, const std::vector<std::uint32_t>*> arrays[] =
        {{"gctx.sno", &expected.sn_offsets},
         {"gctx.tau", &expected.sn_tau},
         {"gctx.mof", &expected.member_offsets},
         {"gctx.mem", &expected.members},
         {"gctx.seo", &expected.se_offsets},
         {"gctx.sea", &expected.se_a},
         {"gctx.seb", &expected.se_b},
         {"gctx.sew", &expected.se_w}};
    for (const auto& [tag, want] : arrays) {
      std::span<const std::uint32_t> got;
      ASSERT_TRUE(reader.Read(SnapshotTag(tag), &got, &error)) << error;
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), *want)
          << tag;
    }
    std::filesystem::remove(path);
  }
}

TEST(GctIndexTest, MaxTrussnessMatchesEgoDecompositions) {
  Graph g = HolmeKim(150, 5, 0.6, 43);
  GctIndex index = GctIndex::Build(g);
  OnlineSearcher online(g);
  // max_trussness is the largest k with any nonzero score.
  const std::uint32_t max_k = index.max_trussness();
  bool any_at_max = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (index.Score(v, max_k) > 0) any_at_max = true;
    EXPECT_EQ(index.Score(v, max_k + 1), 0u);
  }
  EXPECT_TRUE(any_at_max);
}

}  // namespace
}  // namespace tsd
