// Model-level property tests: invariants that must hold for the
// truss-based structural diversity model on ANY graph, checked over a
// parameterized sweep of generators, sizes, and thresholds.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/gct_index.h"
#include "core/tsd_index.h"
#include "graph/generators.h"
#include "truss/ego_truss.h"
#include "truss/k_truss.h"
#include "graph/triangle.h"
#include "truss/truss_decomposition.h"

namespace tsd {
namespace {

struct PropertyCase {
  std::string name;
  Graph graph;
};

const std::vector<PropertyCase>& Cases() {
  static const std::vector<PropertyCase>* cases = [] {
    auto* v = new std::vector<PropertyCase>();
    v->push_back({"figure1", PaperFigure1Graph()});
    v->push_back({"hk_dense", HolmeKim(250, 8, 0.8, 51)});
    v->push_back({"hk_sparse", HolmeKim(300, 3, 0.2, 52)});
    v->push_back({"er", ErdosRenyi(120, 700, 53)});
    v->push_back({"rmat", RMat(8, 8, 0.5, 0.2, 0.2, 54)});
    return v;
  }();
  return *cases;
}

class ModelPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  const Graph& graph() const { return Cases()[GetParam()].graph; }
};

// Every social context at threshold k has at least k members (the smallest
// k-truss is the k-clique).
TEST_P(ModelPropertyTest, ContextsHaveAtLeastKMembers) {
  GctIndex index = GctIndex::Build(graph());
  for (VertexId v = 0; v < graph().num_vertices(); v += 3) {
    for (std::uint32_t k = 2; k <= 6; ++k) {
      for (const SocialContext& context :
           index.ScoreWithContexts(v, k).contexts) {
        EXPECT_GE(context.size(), k) << "v=" << v << " k=" << k;
      }
    }
  }
}

// Contexts at a level partition a subset of the ego-network members:
// no vertex appears in two contexts, and none equals the center.
TEST_P(ModelPropertyTest, ContextsAreDisjointAndExcludeCenter) {
  GctIndex index = GctIndex::Build(graph());
  for (VertexId v = 0; v < graph().num_vertices(); v += 3) {
    for (std::uint32_t k = 2; k <= 5; ++k) {
      std::set<VertexId> seen;
      for (const SocialContext& context :
           index.ScoreWithContexts(v, k).contexts) {
        for (VertexId member : context) {
          EXPECT_NE(member, v);
          EXPECT_TRUE(seen.insert(member).second)
              << "member " << member << " in two contexts, v=" << v;
        }
      }
    }
  }
}

// Refinement: every (k+1)-context is fully contained in exactly one
// k-context (k-trusses are nested, and connectivity only coarsens as k
// drops).
TEST_P(ModelPropertyTest, ContextsRefineAsKGrows) {
  GctIndex index = GctIndex::Build(graph());
  for (VertexId v = 0; v < graph().num_vertices(); v += 5) {
    for (std::uint32_t k = 2; k <= 5; ++k) {
      const auto coarse = index.ScoreWithContexts(v, k).contexts;
      const auto fine = index.ScoreWithContexts(v, k + 1).contexts;
      for (const SocialContext& fine_context : fine) {
        int containing = 0;
        for (const SocialContext& coarse_context : coarse) {
          if (std::includes(coarse_context.begin(), coarse_context.end(),
                            fine_context.begin(), fine_context.end())) {
            ++containing;
          }
        }
        EXPECT_EQ(containing, 1)
            << "v=" << v << " k=" << k << ": a (k+1)-context not nested";
      }
    }
  }
}

// Context members' union is exactly the non-isolated k-truss vertex set of
// the ego-network (cross-check GCT contexts against a direct ego
// decomposition).
TEST_P(ModelPropertyTest, ContextUnionMatchesDirectDecomposition) {
  GctIndex index = GctIndex::Build(graph());
  EgoNetworkExtractor extractor(graph());
  EgoTrussDecomposer decomposer;
  for (VertexId v = 0; v < graph().num_vertices(); v += 7) {
    EgoNetwork ego = extractor.Extract(v);
    const auto trussness = decomposer.Compute(ego);
    for (std::uint32_t k : {3u, 4u}) {
      std::set<VertexId> expected;
      for (EdgeId e = 0; e < ego.num_edges(); ++e) {
        if (trussness[e] >= k) {
          expected.insert(ego.ToGlobal(ego.edges[e].u));
          expected.insert(ego.ToGlobal(ego.edges[e].v));
        }
      }
      std::set<VertexId> actual;
      for (const SocialContext& context :
           index.ScoreWithContexts(v, k).contexts) {
        actual.insert(context.begin(), context.end());
      }
      EXPECT_EQ(actual, expected) << "v=" << v << " k=" << k;
    }
  }
}

// Global k-trusses are nested: the (k+1)-truss edge set is a subset of the
// k-truss edge set.
TEST_P(ModelPropertyTest, GlobalTrussesNested) {
  TrussDecomposition td(graph());
  for (std::uint32_t k = 2; k < td.max_trussness(); ++k) {
    const auto outer = KTrussEdges(graph(), td.edge_trussness(), k);
    const auto inner = KTrussEdges(graph(), td.edge_trussness(), k + 1);
    EXPECT_TRUE(std::includes(outer.begin(), outer.end(), inner.begin(),
                              inner.end()));
  }
}

// Property 1: an edge inside any ego k-truss has global trussness >= k+1.
TEST_P(ModelPropertyTest, Property1SparsificationSafety) {
  TrussDecomposition global_truss(graph());
  EgoNetworkExtractor extractor(graph());
  EgoTrussDecomposer decomposer;
  for (VertexId v = 0; v < graph().num_vertices(); v += 5) {
    EgoNetwork ego = extractor.Extract(v);
    const auto trussness = decomposer.Compute(ego);
    for (EdgeId e = 0; e < ego.num_edges(); ++e) {
      const EdgeId global_edge = graph().FindEdge(
          ego.ToGlobal(ego.edges[e].u), ego.ToGlobal(ego.edges[e].v));
      ASSERT_NE(global_edge, kInvalidEdge);
      // τ_G(e) >= τ_ego(e) + 1 whenever the edge is in an ego k-truss with
      // k = τ_ego(e) >= 2 (adding the center upgrades the truss by one).
      if (trussness[e] >= 3) {
        EXPECT_GE(global_truss.trussness(global_edge), trussness[e] + 1)
            << "v=" << v << " edge=" << e;
      }
    }
  }
}

// Ego-network trussness never exceeds global trussness... in fact the
// maximum ego trussness over all ego-networks is τ*_G - 1 or lower
// (Table 1's τ*_ego column is always τ*_G - 1 in the paper).
TEST_P(ModelPropertyTest, MaxEgoTrussnessBelowGlobal) {
  TrussDecomposition global_truss(graph());
  GctIndex index = GctIndex::Build(graph());
  EXPECT_LT(index.max_trussness(), global_truss.max_trussness());
}

INSTANTIATE_TEST_SUITE_P(Graphs, ModelPropertyTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return Cases()[info.param].name;
                         });

}  // namespace
}  // namespace tsd
