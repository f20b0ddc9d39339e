// Per-client query-time state, split out of the searchers.
//
// The contract after this refactor: **searchers are immutable after build;
// all query scratch lives in sessions.** A DiversitySearcher holds only the
// built artifact (graph reference, index arrays, precomputed rankings) and
// its query entry points are const — any number of threads may query one
// shared searcher concurrently, each through its own QuerySession. The
// session owns everything a query mutates: the QueryPipeline's per-worker
// workspaces (extractor + decomposer + ego + trussness + IndexQueryScratch +
// MultiKEgoScorer), cached across queries so the steady state allocates
// nothing new, and the pipeline knobs (QueryOptions) the pipelines are built
// against. Per-call scratch that is born from the query itself —
// BatchQueryRunner, TopRCollectors, bound arrays — lives on the stack of the
// session's call frame.
//
// A QuerySession is NOT thread-safe: one session, one thread at a time.
// Concurrency comes from many sessions sharing one searcher, exactly the
// index-serving shape of the TCF-style systems (one immutable index artifact
// queried through per-session scratch).
//
// One kind of searcher state is filled in at query time: data derived from
// the index alone, such as GctIndex's per-k rankings (core/score_ranking.h).
// It belongs to the searcher, not to a session: it is built once, by
// whichever session first needs it, is thread-safe, and is shared by every
// session. Results never depend on which session built it or when.
#pragma once

#include <cstdint>
#include <memory>

#include "core/query_pipeline.h"
#include "core/types.h"
#include "graph/graph.h"
#include "truss/ego_truss.h"

namespace tsd {

class QuerySession {
 public:
  QuerySession() = default;
  explicit QuerySession(const QueryOptions& options) : options_(options) {}

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  const QueryOptions& options() const { return options_; }

  /// Changes the pipeline knobs. Cached pipelines are rebuilt lazily on the
  /// next query that needs them.
  void set_options(const QueryOptions& options) { options_ = options; }

  /// Pipeline whose workspaces can extract ego-networks of `graph`, cached
  /// per (graph, method, options) so repeated queries reuse all scratch.
  /// Used by the searchers that decompose ego-networks at query time
  /// (online, bound, hybrid's context phase, the baselines).
  QueryPipeline& PipelineFor(const Graph& graph, EgoTrussMethod method) {
    return full_.For(graph, method, options_);
  }

  /// Index-only pipeline (workspaces carry no extractor), cached per
  /// options. Used by the TSD / GCT / dynamic index scans, whose kernels
  /// only read prebuilt per-vertex slices.
  QueryPipeline& IndexPipeline() {
    if (index_ == nullptr || index_options_ != options_) {
      index_ = std::make_unique<QueryPipeline>(options_);
      index_options_ = options_;
    }
    return *index_;
  }

 private:
  QueryOptions options_;
  PipelineCache full_;                    // graph-backed pipelines
  std::unique_ptr<QueryPipeline> index_;  // index-only pipeline
  QueryOptions index_options_;
};

}  // namespace tsd
