// The central correctness property of the library: all five search methods
// (online baseline, bound-pruned, TSD-index, GCT-index, Hybrid) return
// identical top-r rankings and identical social contexts for every (graph,
// k, r) combination, and agree with the literal naive definition.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "graph/datasets.h"
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
  cases.push_back({"er_small", ErdosRenyi(60, 300, 5)});
  cases.push_back({"er_dense", ErdosRenyi(40, 400, 6)});
  cases.push_back({"hk_clustered", HolmeKim(150, 6, 0.7, 7)});
  cases.push_back({"hk_sparse", HolmeKim(200, 3, 0.3, 8)});
  cases.push_back({"ba", BarabasiAlbert(150, 4, 9)});
  cases.push_back({"rmat", RMat(8, 6, 0.45, 0.2, 0.2, 10)});
  CollaborationOptions collab;
  collab.num_authors = 300;
  collab.num_groups = 30;
  collab.num_hubs = 3;
  cases.push_back({"collab", Collaboration(collab, 11).graph});
  return cases;
}

// Normalizes contexts for set comparison.
std::set<std::vector<VertexId>> ContextSet(
    const std::vector<SocialContext>& contexts) {
  return {contexts.begin(), contexts.end()};
}

class SearchEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(SearchEquivalenceTest, AllMethodsAgree) {
  const auto [graph_index, k] = GetParam();
  const GraphCase test_case = TestGraphs()[graph_index];
  const Graph& g = test_case.graph;

  OnlineSearcher online(g);
  BoundSearcher bound(g);
  TsdIndex tsd = TsdIndex::Build(g);
  GctIndex gct = GctIndex::Build(g);
  HybridSearcher hybrid(g, gct);

  std::vector<DiversitySearcher*> methods = {&online, &bound, &tsd, &gct,
                                             &hybrid};

  for (std::uint32_t r : {1u, 3u, 10u}) {
    const TopRResult reference = online.TopR(r, k);
    for (DiversitySearcher* method : methods) {
      const TopRResult result = method->TopR(r, k);
      ASSERT_EQ(result.entries.size(), reference.entries.size())
          << test_case.name << " method=" << method->name() << " k=" << k
          << " r=" << r;
      for (std::size_t i = 0; i < result.entries.size(); ++i) {
        EXPECT_EQ(result.entries[i].vertex, reference.entries[i].vertex)
            << test_case.name << " method=" << method->name() << " k=" << k
            << " r=" << r << " rank=" << i;
        EXPECT_EQ(result.entries[i].score, reference.entries[i].score)
            << test_case.name << " method=" << method->name() << " k=" << k
            << " r=" << r << " rank=" << i;
        EXPECT_EQ(ContextSet(result.entries[i].contexts),
                  ContextSet(reference.entries[i].contexts))
            << test_case.name << " method=" << method->name() << " k=" << k
            << " r=" << r << " rank=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndK, SearchEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(2u, 3u, 4u, 5u, 6u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint32_t>>& info) {
      return TestGraphs()[std::get<0>(info.param)].name + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// Per-vertex score equivalence against the literal naive definition, for
// every vertex and every k from 2 to one past the largest forest weight
// (thresholds between the score profile's levels and above all of them), on
// small graphs. Every TSD score-profile producer is checked directly against
// the definition: Build, snapshot load, the dynamic index after an update
// stream, and its Freeze().
class NaiveScoreTest : public ::testing::TestWithParam<int> {};

// Expects `index`'s score and contexts at (v, k) to match the naive ones.
template <typename Index>
void ExpectMatchesNaive(const Index& index, const std::string& label,
                        VertexId v, std::uint32_t k, std::uint32_t naive_score,
                        const std::set<std::vector<VertexId>>& naive_set) {
  EXPECT_EQ(index.Score(v, k), naive_score)
      << label << " v=" << v << " k=" << k;
  EXPECT_EQ(ContextSet(index.ScoreWithContexts(v, k).contexts), naive_set)
      << label << " v=" << v << " k=" << k;
}

TEST_P(NaiveScoreTest, IndexScoresMatchNaiveDefinition) {
  const GraphCase test_case = TestGraphs()[GetParam()];
  const Graph& g = test_case.graph;
  if (g.num_vertices() > 160) GTEST_SKIP() << "naive too slow";

  TsdIndex tsd = TsdIndex::Build(g);
  GctIndex gct = GctIndex::Build(g);
  OnlineSearcher online(g);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("naive_score_" + test_case.name + ".snap"))
          .string();
  tsd.Save(path);
  const TsdIndex loaded = TsdIndex::Load(path);
  std::filesystem::remove(path);

  for (std::uint32_t k = 2; k <= tsd.max_weight() + 1; ++k) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto [naive_score, naive_contexts] = testing::NaiveScore(g, v, k);
      const auto naive_set =
          std::set<std::vector<VertexId>>(naive_contexts.begin(),
                                          naive_contexts.end());
      ExpectMatchesNaive(tsd, test_case.name + " TSD", v, k, naive_score,
                         naive_set);
      ExpectMatchesNaive(loaded, test_case.name + " TSD loaded", v, k,
                         naive_score, naive_set);
      ExpectMatchesNaive(gct, test_case.name + " GCT", v, k, naive_score,
                         naive_set);
      const ScoreResult online_score = online.ScoreVertex(v, k, true);
      EXPECT_EQ(online_score.score, naive_score)
          << test_case.name << " online v=" << v << " k=" << k;
      EXPECT_EQ(ContextSet(online_score.contexts), naive_set)
          << test_case.name << " online v=" << v << " k=" << k;
    }
  }

  // A seeded stream of inserts of random pairs and removals of present
  // edges; the dynamic index and its frozen copy are checked against the
  // naive definition on the index's current graph.
  DynamicTsdIndex dynamic(g);
  Rng rng(Hash64(0x5eedULL, static_cast<std::uint64_t>(GetParam())));
  const VertexId n = g.num_vertices();
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto nbrs = dynamic.graph().neighbors(u);
    if (rng.Uniform(3) == 0 && !nbrs.empty()) {
      dynamic.RemoveEdge(u, nbrs[rng.Uniform(nbrs.size())]);
    } else {
      dynamic.InsertEdge(u, static_cast<VertexId>(rng.Uniform(n)));
    }
  }
  const Graph current = dynamic.graph().ToGraph();
  const TsdIndex frozen = dynamic.Freeze();
  for (std::uint32_t k = 2; k <= frozen.max_weight() + 1; ++k) {
    for (VertexId v = 0; v < n; ++v) {
      const auto [naive_score, naive_contexts] =
          testing::NaiveScore(current, v, k);
      const auto naive_set =
          std::set<std::vector<VertexId>>(naive_contexts.begin(),
                                          naive_contexts.end());
      ExpectMatchesNaive(dynamic, test_case.name + " dynamic", v, k,
                         naive_score, naive_set);
      ExpectMatchesNaive(frozen, test_case.name + " frozen", v, k,
                         naive_score, naive_set);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, NaiveScoreTest, ::testing::Range(0, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return TestGraphs()[info.param].name;
                         });

// The paper's running example, end to end (Example 2 / Example 3).
TEST(PaperExampleTest, Figure1TopSearchAllMethods) {
  Graph g = PaperFigure1Graph();
  OnlineSearcher online(g);

  const TopRResult top = online.TopR(1, 4);
  ASSERT_EQ(top.entries.size(), 1u);
  EXPECT_EQ(top.entries[0].vertex, 0u);  // v
  EXPECT_EQ(top.entries[0].score, 3u);
  const auto contexts = ContextSet(top.entries[0].contexts);
  const std::set<std::vector<VertexId>> expected = {
      {1, 2, 3, 4},             // x1..x4
      {5, 6, 7, 8},             // y1..y4
      {9, 10, 11, 12, 13, 14},  // r1..r6
  };
  EXPECT_EQ(contexts, expected);
}

// Example 3: the bound search on Figure 1 with k=4, r=1 computes the exact
// score of only one vertex (v itself) thanks to the upper bound.
TEST(PaperExampleTest, Figure1BoundSearchSpaceIsOne) {
  Graph g = PaperFigure1Graph();
  BoundSearcher bound(g);
  const TopRResult top = bound.TopR(1, 4);
  ASSERT_EQ(top.entries.size(), 1u);
  EXPECT_EQ(top.entries[0].vertex, 0u);
  EXPECT_EQ(top.entries[0].score, 3u);
  EXPECT_EQ(top.stats.vertices_scored, 1u);
}

// Score values on Figure 1 across all thresholds.
TEST(PaperExampleTest, Figure1ScoreByK) {
  Graph g = PaperFigure1Graph();
  GctIndex gct = GctIndex::Build(g);
  // k=2: ego of v has two components ({x,y} merged via bridges, {r}).
  EXPECT_EQ(gct.Score(0, 2), 2u);
  // k=3: bridges survive (trussness 3), so still two contexts.
  EXPECT_EQ(gct.Score(0, 3), 2u);
  // k=4: H1 splits into H3, H4; plus the octahedron H2 -> three contexts.
  EXPECT_EQ(gct.Score(0, 4), 3u);
  // k=5: nothing survives.
  EXPECT_EQ(gct.Score(0, 5), 0u);
}

// The Lemma 2 bound divides by k(k-1)/2, so k < 2 must be rejected in every
// build mode rather than divide by zero.
TEST(PaperExampleTest, UpperBoundRejectsKBelowTwo) {
  Graph g = PaperFigure1Graph();
  EXPECT_THROW(BoundSearcher::UpperBound(g.degree(0), 10, 1), CheckError);
  EXPECT_THROW(BoundSearcher::UpperBound(g.degree(0), 10, 0), CheckError);
}

}  // namespace
}  // namespace tsd
