// Prior-work structural diversity models, reimplemented as baselines:
//
//  * CompDivSearcher — component-based structural diversity [7], [21]:
//    a social context is a connected component of the ego-network with at
//    least k vertices.
//  * CoreDivSearcher — core-based structural diversity [20]: a social
//    context is a maximal connected k-core of the ego-network.
//  * RandomSelect — uniform random vertex pick (effectiveness control).
//
// Both searchers use the same top-r framework as the truss model with the
// model-appropriate degree upper bounds (⌊d(v)/k⌋ components of size ≥ k;
// ⌊d(v)/(k+1)⌋ k-cores, each having ≥ k+1 vertices). They accept k ≥ 1
// and have no amortized batch path: SearchBatch answers its queries one
// at a time, each with its own bound-ordered scan and per-query stats.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/query_session.h"
#include "core/types.h"
#include "graph/graph.h"

namespace tsd {

class CompDivSearcher : public DiversitySearcher {
 public:
  explicit CompDivSearcher(const Graph& graph) : graph_(graph) {}
  using DiversitySearcher::SearchBatch;
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;
  std::string name() const override { return "Comp-Div"; }

 private:
  const Graph& graph_;
};

class CoreDivSearcher : public DiversitySearcher {
 public:
  explicit CoreDivSearcher(const Graph& graph) : graph_(graph) {}
  using DiversitySearcher::SearchBatch;
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;
  std::string name() const override { return "Core-Div"; }

 private:
  const Graph& graph_;
};

/// r distinct uniformly random vertices (deterministic for a given seed).
std::vector<VertexId> RandomSelect(const Graph& graph, std::uint32_t r,
                                   std::uint64_t seed);

}  // namespace tsd
