// The shared per-vertex query engine behind every DiversitySearcher.
//
// The full paper (arXiv:2007.05437) stresses that per-vertex ego-truss work
// is embarrassingly parallel; before this engine only the index *builders*
// exploited that. QueryPipeline owns one reusable workspace per worker
// thread (ego-network extractor + truss decomposer + scratch EgoNetwork +
// trussness buffer) and runs candidate vertices through a caller-supplied
// scoring kernel via the chunked parallel-for in common/parallel.h. The
// steady-state hot path performs no heap allocation: every buffer a kernel
// needs lives in the workspace and is reused vertex to vertex.
//
// Determinism: the top-r answer set under the library-wide total order
// (score desc, id asc) is unique, so per-worker collectors merged in worker
// order yield rankings bit-identical to the sequential scan at any thread
// count. A range scan with a skip predicate keeps collectors per chunk
// instead, over chunks fixed independently of the thread count, so even
// its count of scored candidates is the same at every thread count.
// Bound-ordered scans prune conservatively — a parallel round only
// skips candidates the sequential scan would also have skipped — so
// rankings match there too; only the number of exactly-scored candidates
// (SearchStats::vertices_scored) can grow, because parallel rounds prune at
// batch rather than per-vertex granularity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "core/query_scratch.h"
#include "core/top_r_collector.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "truss/ego_truss.h"

namespace tsd {

/// The default skip predicate of QueryPipeline::ScoreRangeMulti: scores
/// every candidate.
struct ScoreEveryCandidate {
  bool operator()(VertexId /*v*/,
                  std::span<const TopRCollector> /*collectors*/) const {
    return false;
  }
};

/// Per-worker scratch: everything a scoring kernel needs, reused across
/// vertices and across queries. Not thread-safe; the pipeline hands each
/// worker its own instance.
class QueryWorkspace {
 public:
  /// `graph` may be null for index-only pipelines (TSD/GCT scans, which
  /// never touch an ego-network).
  QueryWorkspace(const Graph* graph, EgoTrussMethod method);

  /// Retargets the extractor to another graph, reusing scratch.
  void Rebind(const Graph& graph);

  /// Extracts G_N(v) into the reusable scratch ego and returns it.
  EgoNetwork& ExtractEgo(VertexId v);

  /// ExtractEgo + truss decomposition; trussness() is parallel to the
  /// returned ego's edges.
  EgoNetwork& DecomposeEgo(VertexId v);

  const std::vector<std::uint32_t>& trussness() const { return trussness_; }
  EgoNetwork& ego() { return ego_; }
  EgoTrussDecomposer& decomposer() { return decomposer_; }

  /// Reusable scratch for index context kernels (TSD and GCT context
  /// grouping) — no steady-state allocation across queries.
  IndexQueryScratch& index_scratch() { return index_scratch_; }

  /// Reusable multi-threshold scorer for batch queries.
  MultiKEgoScorer& multi_scorer() { return multi_scorer_; }

  /// Generic per-worker u32 buffer (per-threshold score staging in batch
  /// kernels).
  std::vector<std::uint32_t>& u32_scratch() { return u32_scratch_; }

  /// Bytes currently reserved by the reusable scratch structures; exposed
  /// so tests can assert the steady state allocates nothing new.
  std::size_t scratch_capacity_bytes() const {
    return index_scratch_.capacity_bytes() + multi_scorer_.capacity_bytes() +
           trussness_.capacity() * sizeof(std::uint32_t) +
           u32_scratch_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::optional<EgoNetworkExtractor> extractor_;
  EgoTrussDecomposer decomposer_;
  EgoNetwork ego_;
  std::vector<std::uint32_t> trussness_;
  IndexQueryScratch index_scratch_;
  MultiKEgoScorer multi_scorer_;
  std::vector<std::uint32_t> u32_scratch_;
};

/// Reusable parallel engine for per-vertex scoring and context
/// materialization. Construct once per (graph, method, options) and share
/// across queries; all entry points are deterministic at any thread count.
///
/// Kernels receive (QueryWorkspace&, VertexId) and must not touch state
/// outside their workspace; the pipeline never runs one workspace on two
/// threads at once.
class QueryPipeline {
 public:
  /// Full pipeline whose workspaces can extract ego-networks of `graph`.
  QueryPipeline(const Graph& graph, EgoTrussMethod method,
                const QueryOptions& options);

  /// Index-only pipeline: kernels read a prebuilt index and never need an
  /// extractor (TSD / GCT query scans).
  explicit QueryPipeline(const QueryOptions& options);

  /// Retargets every workspace to another graph (same or smaller id space
  /// reuses all scratch). Used by the bound search for its per-query
  /// sparsified subgraph.
  void Rebind(const Graph& graph);

  std::uint32_t num_threads() const { return options_.num_threads; }

  /// Direct access to one worker's scratch, for single-vertex entry points
  /// (tsdtool score, HybridSearcher's per-winner recomputation) that want
  /// workspace reuse without a full scan. Caller must not be inside a
  /// pipeline run.
  QueryWorkspace& workspace(std::uint32_t worker) {
    TSD_DCHECK(worker < workspaces_.size());
    return *workspaces_[worker];
  }

  /// Bound-ordered scan with early termination (Algorithm 4 discipline):
  /// visits `order` front to back — candidates sorted by non-increasing
  /// `bounds[v]`, where bounds[v] must upper-bound v's score for EVERY
  /// collector's query — scores each visited candidate for all queries
  /// with `fn(workspace, v, scores)` (scores[q] per collector), and stops
  /// once every collector can prune the remaining range: no remaining
  /// candidate could displace any query's r-th answer, so each collector
  /// ends bit-identical to a full ScoreRangeMulti pass. Sequential runs
  /// prune per vertex; parallel runs prune between rounds of at most one
  /// chunk per worker. Returns the number of candidates exactly scored.
  template <typename MultiScoreFn>
  std::uint64_t ScoreOrderedMulti(std::span<const VertexId> order,
                                  std::span<const std::uint32_t> bounds,
                                  std::span<TopRCollector* const> collectors,
                                  MultiScoreFn&& fn);

  /// One pass over [0, num_candidates) scoring every vertex for all
  /// queries at once. `fn(workspace, v, scores)` fills scores[q] for each q
  /// in [0, collectors.size()); each score is offered into collectors[q].
  /// Because the top-r set under the total order is unique, each collector
  /// ends bit-identical to a sequential pass offering the same per-vertex
  /// scores, at any thread count.
  ///
  /// `skip(v, locals)` may return true only if v cannot enter any of
  /// `locals`, one collector per query in query order, each holding the
  /// top of a set of candidates already scored; v is then neither scored
  /// nor offered. Such a v ranks below r real answers of every query, so
  /// entries do not change. With a skip predicate the range is split into
  /// chunks that do not depend on the thread count. The first chunk, at
  /// least as large as the largest collector, runs alone; every other
  /// chunk's collectors start as a copy of its answers.
  /// So what `locals` holds, and the returned count of scored candidates,
  /// do not depend on the thread count either.
  template <typename MultiScoreFn, typename SkipFn = ScoreEveryCandidate>
  std::uint64_t ScoreRangeMulti(VertexId num_candidates,
                                std::span<TopRCollector* const> collectors,
                                MultiScoreFn&& fn, SkipFn&& skip = {});

  /// Parallel per-vertex map `fn(workspace, v) -> std::uint32_t` into
  /// `(*out)[v]` for v in [0, num_candidates) — the bound-computation pass.
  template <typename MapFn>
  void MapScores(VertexId num_candidates, std::vector<std::uint32_t>* out,
                 MapFn&& fn);

  /// Parallel loop `fn(workspace, i)` over i in [0, num_items) with one
  /// workspace per worker. Deterministic as long as distinct items write
  /// disjoint output slots (the grouped context-materialization pattern of
  /// the batch searchers).
  template <typename ItemFn>
  void ForEach(std::uint64_t num_items, ItemFn&& fn);

  /// Materializes one query's TopREntry list (the context phase of the
  /// Comp-Div and Core-Div baselines): for each (vertex, score) of
  /// `ranked`, in rank order, fills entry i with contexts from
  /// `fn(workspace, vertex) -> std::vector<SocialContext>`.
  template <typename ContextFn>
  void MaterializeEntries(
      const std::vector<std::pair<VertexId, std::uint32_t>>& ranked,
      std::vector<TopREntry>* entries, ContextFn&& fn);

 private:
  // Round schedule of the bound-ordered parallel scan (ScoreOrderedMulti):
  // the first round scores max(num_threads * kRampBasePerThread, r)
  // candidates and each next round kRampGrowth times more, capped at one
  // chunk per worker. Small early rounds stop cheaply when the bound order
  // prunes early (Example 3 scores exactly one vertex); the geometric growth
  // bounds the number of round barriers when it does not. Rankings are
  // identical for any schedule; only wall time and vertices_scored move.
  // Values picked by the former bench_ablation_parallel ramp sweep.
  static constexpr std::uint64_t kRampBasePerThread = 4;
  static constexpr std::uint64_t kRampGrowth = 2;
  struct RoundRamp {
    std::uint64_t size;      // candidates in the current round
    std::uint64_t max_size;  // one chunk per worker
    void Grow() { size = std::min(max_size, size * kRampGrowth); }
  };
  /// The first round of a scan over `total` candidates whose largest
  /// collector holds `capacity` entries.
  RoundRamp StartRamp(std::uint64_t total, std::uint64_t capacity) const;

  /// The largest capacity among `collectors`.
  static std::uint64_t MaxCapacity(std::span<TopRCollector* const> collectors);

  // Chunks of a ScoreRangeMulti scan with a skip predicate when --chunks is
  // unset, at every thread count. The first chunk runs on one thread, so
  // more chunks keep more of the scan parallel.
  static constexpr std::uint32_t kSkipScanChunks = 16;

  std::uint32_t ResolveChunks(std::uint64_t total) const;
  std::uint32_t ResolveSkipScanChunks(std::uint64_t total) const;

  QueryOptions options_;
  // unique_ptr keeps workspace addresses stable and sidesteps copying the
  // non-copyable scratch when the vector is built.
  std::vector<std::unique_ptr<QueryWorkspace>> workspaces_;
};

/// Lazily builds (and caches) a pipeline so a searcher can keep one set of
/// workspaces alive across queries and rebuild only when the requested
/// options change.
class PipelineCache {
 public:
  QueryPipeline& For(const Graph& graph, EgoTrussMethod method,
                     const QueryOptions& options);

 private:
  std::unique_ptr<QueryPipeline> pipeline_;
  QueryOptions cached_options_;
  const Graph* cached_graph_ = nullptr;
  EgoTrussMethod cached_method_ = EgoTrussMethod::kAuto;
};

/// Reads the canonical --threads / --chunks pipeline knobs (shared by
/// tsdtool and every query benchmark; values clamped to sane ranges).
QueryOptions QueryOptionsFromFlags(const Flags& flags);

/// The preprocessing-layer view of the same knobs: graph/truss kernels
/// (global truss decomposition, triangle counting, the global ego listing)
/// take a common/ ParallelConfig so they stay below core/ in the layering.
inline ParallelConfig ToParallelConfig(const QueryOptions& options) {
  return ParallelConfig{options.num_threads, options.num_chunks};
}

// ---------------------------------------------------------------------------
// Template implementations.

template <typename MultiScoreFn>
std::uint64_t QueryPipeline::ScoreOrderedMulti(
    std::span<const VertexId> order, std::span<const std::uint32_t> bounds,
    std::span<TopRCollector* const> collectors, MultiScoreFn&& fn) {
  const std::size_t num_queries = collectors.size();
  if (num_queries == 0) return 0;
  const auto all_can_prune = [&](VertexId v) {
    for (TopRCollector* collector : collectors) {
      if (!collector->CanPrune(bounds[v], v)) return false;
    }
    return true;
  };

  std::uint64_t scored = 0;
  if (options_.num_threads == 1) {
    QueryWorkspace& ws = *workspaces_[0];
    std::vector<std::uint32_t> scores(num_queries);
    for (VertexId v : order) {
      if (all_can_prune(v)) break;  // early termination for the whole batch
      fn(ws, v, scores.data());
      for (std::size_t q = 0; q < num_queries; ++q) {
        collectors[q]->Offer(v, scores[q]);
      }
      ++scored;
    }
    return scored;
  }

  // Rounds of work split across the workers, with the per-(worker, query)
  // local collectors of ScoreRangeMulti; the termination check runs
  // between rounds and asks every collector before continuing. Candidates
  // are bound-sorted, so checking the first candidate of a round covers
  // the whole round. Round sizes follow the RoundRamp schedule.
  const std::uint32_t num_threads = options_.num_threads;
  const std::uint64_t total = order.size();
  RoundRamp ramp = StartRamp(total, MaxCapacity(collectors));

  std::vector<std::vector<TopRCollector>> locals(num_threads);
  std::vector<std::vector<std::uint32_t>> scores(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) scores[t].resize(num_queries);
  std::uint64_t round_begin = 0;
  while (round_begin < total) {
    const VertexId first = order[round_begin];
    if (all_can_prune(first)) break;
    const std::uint64_t round_end = std::min(total, round_begin + ramp.size);
    for (std::uint32_t t = 0; t < num_threads; ++t) {
      locals[t].clear();
      for (std::size_t q = 0; q < num_queries; ++q) {
        locals[t].emplace_back(collectors[q]->capacity());
      }
    }
    ParallelForChunksIndexed(
        round_end - round_begin, num_threads, num_threads,
        [&](std::uint32_t worker, std::uint32_t /*chunk*/,
            std::uint64_t begin, std::uint64_t end) {
          QueryWorkspace& ws = *workspaces_[worker];
          for (std::uint64_t i = begin; i < end; ++i) {
            const VertexId v = order[round_begin + i];
            fn(ws, v, scores[worker].data());
            for (std::size_t q = 0; q < num_queries; ++q) {
              locals[worker][q].Offer(v, scores[worker][q]);
            }
          }
        });
    for (std::size_t q = 0; q < num_queries; ++q) {
      for (std::uint32_t t = 0; t < num_threads; ++t) {
        for (const auto& [vertex, score] : locals[t][q].TakeRanked()) {
          collectors[q]->Offer(vertex, score);
        }
      }
    }
    scored += round_end - round_begin;
    round_begin = round_end;
    ramp.Grow();
  }
  return scored;
}

template <typename MultiScoreFn, typename SkipFn>
std::uint64_t QueryPipeline::ScoreRangeMulti(
    VertexId num_candidates, std::span<TopRCollector* const> collectors,
    MultiScoreFn&& fn, SkipFn&& skip) {
  const std::size_t num_queries = collectors.size();
  if (num_queries == 0) return 0;
  constexpr bool kSkips =
      !std::is_same_v<std::decay_t<SkipFn>, ScoreEveryCandidate>;
  if (!kSkips && options_.num_threads == 1) {
    QueryWorkspace& ws = *workspaces_[0];
    std::vector<std::uint32_t> scores(num_queries);
    for (VertexId v = 0; v < num_candidates; ++v) {
      fn(ws, v, scores.data());
      for (std::size_t q = 0; q < num_queries; ++q) {
        collectors[q]->Offer(v, scores[q]);
      }
    }
    return num_candidates;
  }

  // One local collector per (slot, query); scores staged per worker. A slot
  // is a worker, or a chunk when skipping: a skip then depends only on the
  // first chunk and its own, never on which worker ran which chunk.
  const std::uint32_t num_chunks = kSkips
                                       ? ResolveSkipScanChunks(num_candidates)
                                       : ResolveChunks(num_candidates);
  const std::uint32_t num_slots = kSkips ? num_chunks : options_.num_threads;
  std::vector<std::vector<TopRCollector>> locals(num_slots);
  for (std::vector<TopRCollector>& slot : locals) {
    slot.reserve(num_queries);
    for (std::size_t q = 0; q < num_queries; ++q) {
      slot.emplace_back(collectors[q]->capacity());
    }
  }
  std::vector<std::vector<std::uint32_t>> scores(options_.num_threads);
  for (std::vector<std::uint32_t>& staged : scores) staged.resize(num_queries);
  std::vector<std::uint64_t> scored(num_slots, 0);
  const auto scan = [&](std::uint32_t worker, std::uint32_t slot,
                        std::uint64_t begin, std::uint64_t end) {
    QueryWorkspace& ws = *workspaces_[worker];
    std::vector<TopRCollector>& local = locals[slot];
    std::uint32_t* staged = scores[worker].data();
    std::uint64_t count = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto v = static_cast<VertexId>(i);
      if (skip(v, std::span<const TopRCollector>(local))) continue;
      fn(ws, v, staged);
      for (std::size_t q = 0; q < num_queries; ++q) {
        local[q].Offer(v, staged[q]);
      }
      ++count;
    }
    scored[slot] += count;
  };
  if constexpr (kSkips) {
    // The first chunk runs alone, and every other chunk's collectors start
    // from its answers, so the other chunks skip from their first
    // candidate on instead of scoring until their own collectors fill. It
    // holds at least as many candidates as the largest collector, or it
    // could not fill it. Its size depends only on the candidates, the
    // chunks and the collectors, never on the thread count.
    const std::uint64_t first_end = std::min<std::uint64_t>(
        num_candidates,
        std::max((std::uint64_t{num_candidates} + num_chunks - 1) / num_chunks,
                 MaxCapacity(collectors)));
    scan(0, 0, 0, first_end);
    for (std::uint32_t slot = 1; slot < num_slots; ++slot) {
      locals[slot] = locals[0];
    }
    if (num_chunks > 1) {
      ParallelForChunksIndexed(
          num_candidates - first_end, num_chunks - 1, options_.num_threads,
          [&](std::uint32_t worker, std::uint32_t chunk, std::uint64_t begin,
              std::uint64_t end) {
            scan(worker, chunk + 1, first_end + begin, first_end + end);
          });
    }
  } else {
    ParallelForChunksIndexed(
        num_candidates, num_chunks, options_.num_threads,
        [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
            std::uint64_t end) { scan(worker, worker, begin, end); });
  }
  std::uint64_t total = 0;
  for (std::uint32_t slot = 0; slot < num_slots; ++slot) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      for (const auto& [vertex, score] : locals[slot][q].TakeRanked()) {
        collectors[q]->Offer(vertex, score);
      }
    }
    total += scored[slot];
  }
  return total;
}

template <typename MapFn>
void QueryPipeline::MapScores(VertexId num_candidates,
                              std::vector<std::uint32_t>* out, MapFn&& fn) {
  out->resize(num_candidates);
  if (options_.num_threads == 1) {
    QueryWorkspace& ws = *workspaces_[0];
    for (VertexId v = 0; v < num_candidates; ++v) (*out)[v] = fn(ws, v);
    return;
  }
  ParallelForChunksIndexed(
      num_candidates, ResolveChunks(num_candidates), options_.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        QueryWorkspace& ws = *workspaces_[worker];
        for (std::uint64_t v = begin; v < end; ++v) {
          (*out)[v] = fn(ws, static_cast<VertexId>(v));
        }
      });
}

template <typename ItemFn>
void QueryPipeline::ForEach(std::uint64_t num_items, ItemFn&& fn) {
  if (options_.num_threads == 1 || num_items < 2) {
    QueryWorkspace& ws = *workspaces_[0];
    for (std::uint64_t i = 0; i < num_items; ++i) fn(ws, i);
    return;
  }
  ParallelForChunksIndexed(
      num_items, ResolveChunks(num_items), options_.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        QueryWorkspace& ws = *workspaces_[worker];
        for (std::uint64_t i = begin; i < end; ++i) fn(ws, i);
      });
}

template <typename ContextFn>
void QueryPipeline::MaterializeEntries(
    const std::vector<std::pair<VertexId, std::uint32_t>>& ranked,
    std::vector<TopREntry>* entries, ContextFn&& fn) {
  entries->resize(ranked.size());
  // Each winner fills its own rank slot, so output order is deterministic
  // regardless of which worker materializes which entry.
  auto fill = [&](QueryWorkspace& ws, std::size_t i) {
    TopREntry& entry = (*entries)[i];
    entry.vertex = ranked[i].first;
    entry.score = ranked[i].second;
    entry.contexts = fn(ws, ranked[i].first);
  };
  if (options_.num_threads == 1 || ranked.size() < 2) {
    QueryWorkspace& ws = *workspaces_[0];
    for (std::size_t i = 0; i < ranked.size(); ++i) fill(ws, i);
    return;
  }
  ParallelForChunksIndexed(
      ranked.size(), ResolveChunks(ranked.size()), options_.num_threads,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, std::uint64_t begin,
          std::uint64_t end) {
        QueryWorkspace& ws = *workspaces_[worker];
        for (std::uint64_t i = begin; i < end; ++i) fill(ws, i);
      });
}

}  // namespace tsd
