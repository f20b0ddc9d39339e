// Tests specific to the TSD-index and GCT-index data structures:
// serialization round trips, structural invariants, build stats,
// and kernel-choice independence.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "core/gct_index.h"
#include "core/online_search.h"
#include "core/tsd_index.h"
#include "graph/datasets.h"
#include "graph/generators.h"

namespace tsd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
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

TEST(GctIndexTest, HashKernelAndPerVertexExtractionProduceSameScores) {
  Graph g = HolmeKim(200, 5, 0.6, 41);
  GctIndex::Options hash_opts;
  hash_opts.method = EgoTrussMethod::kHash;
  GctIndex::Options no_listing;
  no_listing.use_global_listing = false;
  GctIndex reference = GctIndex::Build(g);
  GctIndex hash_built = GctIndex::Build(g, hash_opts);
  GctIndex extract_built = GctIndex::Build(g, no_listing);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      EXPECT_EQ(reference.Score(v, k), hash_built.Score(v, k));
      EXPECT_EQ(reference.Score(v, k), extract_built.Score(v, k));
    }
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
