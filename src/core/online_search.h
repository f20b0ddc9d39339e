// The online (baseline) top-r search — Algorithm 3 of the paper.
//
// Computes score(v) for every vertex from scratch (ego-network extraction +
// truss decomposition per vertex, Algorithm 2) and keeps the r best. No
// pruning; this is the reference implementation every optimized method is
// tested against, and the "baseline" row of Table 2. Runs on the shared
// QueryPipeline, so it honours QueryOptions like every other searcher.
#pragma once

#include <cstdint>

#include "core/query_session.h"
#include "core/scoring.h"
#include "core/types.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Immutable after construction; all query scratch lives in the session.
class OnlineSearcher : public DiversitySearcher {
 public:
  /// `method` selects the ego truss decomposition kernel (the paper's
  /// baseline uses the hash kernel).
  explicit OnlineSearcher(const Graph& graph,
                          EgoTrussMethod method = EgoTrussMethod::kHash)
      : graph_(graph), method_(method) {}

  using DiversitySearcher::SearchBatch;

  /// One ego decomposition per vertex feeds every query's collector.
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "baseline"; }

  /// Computes score(v) and contexts for a single vertex (Algorithm 2). The
  /// convenience overload runs on the default session.
  ScoreResult ScoreVertex(VertexId v, std::uint32_t k, bool want_contexts,
                          QuerySession& session) const;
  ScoreResult ScoreVertex(VertexId v, std::uint32_t k, bool want_contexts) {
    return ScoreVertex(v, k, want_contexts, default_session());
  }

 private:
  QueryPipeline& Pipeline(QuerySession& session) const {
    return session.PipelineFor(graph_, method_);
  }

  const Graph& graph_;
  const EgoTrussMethod method_;
};

}  // namespace tsd
