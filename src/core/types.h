// Shared result types for all structural diversity searchers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.h"  // TrussPlanAlgorithm
#include "graph/graph.h"

namespace tsd {

class QuerySession;  // core/query_session.h: per-client query scratch

/// A social context: the sorted vertex set of one maximal connected k-truss
/// (or k-core / component, for the baseline models) in an ego-network.
using SocialContext = std::vector<VertexId>;

/// One ranked answer of a top-r search.
struct TopREntry {
  VertexId vertex = kInvalidVertex;
  std::uint32_t score = 0;
  /// Social contexts SC(vertex), sorted by smallest member.
  std::vector<SocialContext> contexts;
};

/// Execution knobs for the shared per-vertex query pipeline. Every searcher
/// honours these via DiversitySearcher::set_query_options; rankings are
/// bit-identical at any thread count.
struct QueryOptions {
  /// Worker threads for per-vertex scoring and context materialization.
  std::uint32_t num_threads = 1;
  /// Chunks the candidate range is split into (0 = auto: one chunk when
  /// sequential, 8 per thread otherwise, matching the index builders).
  std::uint32_t num_chunks = 0;
  /// Truss-decomposition kernel for callers that run a global
  /// decomposition on these knobs (tsdtool stats). Every plan yields
  /// bit-identical trussness — this is a performance knob (tsdtool --plan).
  /// No searcher reads it: the bound searcher peels its (k+1)-truss
  /// directly (truss/k_truss.h).
  TrussPlanAlgorithm truss_plan = TrussPlanAlgorithm::kAuto;

  bool operator==(const QueryOptions&) const = default;
};

/// Instrumentation reported by every searcher; feeds Tables 2–4 and Fig. 9.
struct SearchStats {
  /// Number of vertices whose exact structural diversity was computed
  /// (the paper's "search space"). GCT and Hybrid read their answers off a
  /// per-k ranking; for them it counts the answers read.
  std::uint64_t vertices_scored = 0;
  /// End-to-end query wall time in seconds.
  double total_seconds = 0;
  /// Time spent in preprocessing (sparsification / bound computation).
  double preprocess_seconds = 0;
  /// Time spent computing exact scores.
  double score_seconds = 0;
  /// Time spent materializing the winners' social contexts.
  double context_seconds = 0;
  /// Worker threads the query pipeline ran with (Fig. 8/15 speedup reports).
  std::uint32_t threads_used = 1;
  /// Edges the bound searcher's sparsification drops: those outside the
  /// (k+1)-truss, m − |E(T)| (for a batch, k is its smallest threshold).
  /// 0 for searchers that do not sparsify.
  std::uint64_t edges_pruned = 0;
};

/// Result of a top-r structural diversity search: entries sorted by
/// (score descending, vertex id ascending) — the library-wide total order
/// that makes every search method return bit-identical rankings.
struct TopRResult {
  std::vector<TopREntry> entries;
  SearchStats stats;
};

/// One query of a batch: top-r at trussness threshold k. A vertex's ego
/// trussness decomposition determines its score for every k simultaneously,
/// so a batch of queries can amortize one decomposition pass.
struct BatchQuery {
  std::uint32_t k = 2;
  std::uint32_t r = 10;
};

/// Abstract interface implemented by every search method
/// (online / bound / TSD / GCT / Hybrid and the Comp-/Core-Div baselines).
///
/// Searchers are **immutable after build**: the session-taking query entry
/// points are const and touch no searcher state, so one shared searcher
/// instance may answer concurrent queries from any number of threads, each
/// thread bringing its own QuerySession (which owns all mutable query
/// scratch — see core/query_session.h). Results are a pure function of
/// (searcher, query): bit-identical across sessions, thread counts, and
/// batching.
class DiversitySearcher {
 public:
  DiversitySearcher();
  virtual ~DiversitySearcher();
  // Searchers move (TsdIndex::Build/Load return by value); the moved-from
  // default session just re-creates lazily.
  DiversitySearcher(DiversitySearcher&&) noexcept;
  DiversitySearcher& operator=(DiversitySearcher&&) noexcept;

  /// Answers many (k, r) queries in one call: per query, the r vertices
  /// with the highest structural diversity at trussness threshold k (k ≥ 2,
  /// or k ≥ 1 for the Comp-/Core-Div baselines; r ≥ 1; both checked) with
  /// their social contexts, in query order, using `session`'s scratch.
  /// Deterministic: ties broken by ascending vertex id, entries
  /// bit-identical at any thread count and for any batch composition. This
  /// is every searcher's one query path: the amortized searchers run one
  /// ego-decomposition (or index) pass that feeds every query, so
  /// per-batch stats (vertices_scored, timings) describe the whole batch
  /// and are copied into every result. Thread-safe against concurrent
  /// queries on other sessions.
  virtual std::vector<TopRResult> SearchBatch(
      std::span<const BatchQuery> queries, QuerySession& session) const = 0;

  /// One top-r query: SearchBatch over the one-element batch {k, r}, so it
  /// returns exactly that query's batch answer. Virtual only because a
  /// wrapper overrides it to trace single queries (perfbench's
  /// TracedSearcher, perfbench/src/layers.h); no searcher overrides it.
  virtual TopRResult TopR(std::uint32_t r, std::uint32_t k,
                          QuerySession& session) const;

  /// Convenience overloads running on a lazily-created default session that
  /// tracks query_options(). Source-compatible with the pre-session API; NOT
  /// thread-safe (the default session is shared per searcher instance) —
  /// concurrent callers must use the session overloads above.
  TopRResult TopR(std::uint32_t r, std::uint32_t k);
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries);

  /// Method name for logs and benchmark tables.
  virtual std::string name() const = 0;

  /// Sets the pipeline knobs the *default session* runs with. Sessions own
  /// their knobs (QuerySession::set_options); this only affects the
  /// convenience overloads. The ranking is bit-identical at any thread
  /// count; only wall time (and, for the bound-pruned methods, the number
  /// of exactly-scored candidates — parallel rounds prune at batch
  /// granularity) may differ.
  void set_query_options(const QueryOptions& options) {
    query_options_ = options;
  }
  const QueryOptions& query_options() const { return query_options_; }

 protected:
  /// The default session backing the convenience overloads, created on
  /// first use and re-synced to query_options() on every call.
  QuerySession& default_session();

 private:
  QueryOptions query_options_;
  std::unique_ptr<QuerySession> default_session_;
};

/// Comparator for the library-wide ranking order: true if (score_a, a)
/// ranks strictly better than (score_b, b).
inline bool RanksBefore(std::uint32_t score_a, VertexId a,
                        std::uint32_t score_b, VertexId b) {
  if (score_a != score_b) return score_a > score_b;
  return a < b;
}

}  // namespace tsd
