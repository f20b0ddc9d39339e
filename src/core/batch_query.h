// Batch query engine: answers many (k, r) queries from one pipeline pass.
//
// The paper's workload is parameterized by k, yet a vertex's ego trussness
// decomposition determines its score for *every* k simultaneously (the
// parameter-free view of Huang et al. 2019 makes the all-k answer the
// primary object). BatchQueryRunner exploits that: it owns one TopRCollector
// per query, deduplicates the requested thresholds into one descending list,
// and drives a single deterministic QueryPipeline scan in which each worker
// extracts and decomposes every candidate's ego network ONCE and derives the
// per-k component counts from the trussness array for all requested k — one
// ego decomposition per candidate vertex instead of one per (vertex, k).
//
// Determinism: every query's collector receives exactly the (vertex, score)
// offers its dedicated per-query scan would have produced, and the top-r set
// under the library-wide total order is unique, so SearchBatch entries are
// bit-identical to per-query TopR at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/query_pipeline.h"
#include "core/top_r_collector.h"
#include "core/types.h"

namespace tsd {

/// Copies the per-batch aggregate stats into every query's result: a batch
/// runs one shared scan, so vertices_scored and the timings describe the
/// whole batch, not a single query.
void FillBatchStats(std::vector<TopRResult>* results, const SearchStats& stats);

class BatchQueryRunner {
 public:
  /// Validates the queries (k ≥ 2, r ≥ 1) and builds one collector per
  /// query plus the deduplicated descending threshold list.
  explicit BatchQueryRunner(std::span<const BatchQuery> queries);

  std::size_t num_queries() const { return queries_.size(); }
  const BatchQuery& query(std::size_t q) const { return queries_[q]; }

  /// Distinct requested thresholds, sorted strictly descending.
  std::span<const std::uint32_t> thresholds() const { return thresholds_; }

  /// Index into thresholds() of query q's k.
  std::uint32_t threshold_index(std::size_t q) const { return k_index_[q]; }

  TopRCollector& collector(std::size_t q) { return collectors_[q]; }

  /// One deterministic pass over [0, num_candidates): `fn(ws, v, scores)`
  /// fills scores[t] for each t in [0, thresholds().size()); the runner
  /// fans the per-threshold scores out to every query's collector. Returns
  /// the number of vertices scanned.
  template <typename ThresholdScoreFn>
  std::uint64_t Scan(QueryPipeline& pipeline, VertexId num_candidates,
                     ThresholdScoreFn&& fn) {
    return pipeline.ScoreRangeMulti(
        num_candidates, collector_ptrs_,
        [this, &fn](QueryWorkspace& ws, VertexId v, std::uint32_t* scores) {
          std::vector<std::uint32_t>& per_k = ws.u32_scratch();
          per_k.resize(thresholds_.size());
          fn(ws, v, per_k.data());
          for (std::size_t q = 0; q < queries_.size(); ++q) {
            scores[q] = per_k[k_index_[q]];
          }
        });
  }

  /// Bound-ordered variant of Scan (the Algorithm 4 discipline for the
  /// whole batch): `bounds[v]` must upper-bound v's score at EVERY
  /// requested threshold — the bound evaluated at the smallest requested k
  /// suffices, because Lemma 2's min(d/k, m_v/C(k,2)) is non-increasing in
  /// k, even though scores themselves are not monotone (contexts can split
  /// as k grows) — and `order` must visit candidates
  /// by non-increasing bound. The scan stops as soon as every
  /// query's collector can prune the remaining range. Entries are
  /// bit-identical to Scan (pruning is conservative per collector); only
  /// the number of scored candidates changes.
  template <typename ThresholdScoreFn>
  std::uint64_t ScanOrdered(QueryPipeline& pipeline,
                            std::span<const VertexId> order,
                            std::span<const std::uint32_t> bounds,
                            ThresholdScoreFn&& fn) {
    return pipeline.ScoreOrderedMulti(
        order, bounds, collector_ptrs_,
        [this, &fn](QueryWorkspace& ws, VertexId v, std::uint32_t* scores) {
          std::vector<std::uint32_t>& per_k = ws.u32_scratch();
          per_k.resize(thresholds_.size());
          fn(ws, v, per_k.data());
          for (std::size_t q = 0; q < queries_.size(); ++q) {
            scores[q] = per_k[k_index_[q]];
          }
        });
  }

  /// Sum of every query's r — the bound search's gate for whether the
  /// bound-ordered scan's bound pass and ordering can pay for themselves.
  std::uint64_t total_r() const {
    std::uint64_t total = 0;
    for (const BatchQuery& query : queries_) total += query.r;
    return total;
  }

  /// The amortized ego scan: decompose each candidate's ego network once
  /// and score it at every requested threshold in one sweep. Requires a
  /// full (extractor-carrying) pipeline.
  std::uint64_t RunEgoScan(QueryPipeline& pipeline, VertexId num_candidates) {
    return Scan(pipeline, num_candidates,
                [this](QueryWorkspace& ws, VertexId v, std::uint32_t* out) {
                  EgoNetwork& ego = ws.DecomposeEgo(v);
                  ws.multi_scorer().Compute(ego, ws.trussness(), thresholds_,
                                            out);
                });
  }

  /// Materializes every query's winners into `(*results)[q].entries`,
  /// grouping tasks by winner vertex so each distinct winner is prepared
  /// (e.g. ego-decomposed) once even when it ranks in several queries.
  /// `prep(ws, vertex)` runs once per distinct vertex; `fn(ws, vertex, k)`
  /// returns the contexts for one (vertex, threshold) pair. Each task fills
  /// its own (query, rank) slot, so output order is deterministic. Consumes
  /// the collectors.
  template <typename PrepFn, typename ContextFn>
  void MaterializeGrouped(QueryPipeline& pipeline,
                          std::vector<TopRResult>* results, PrepFn&& prep,
                          ContextFn&& fn) {
    struct Task {
      VertexId vertex;
      std::uint32_t score;
      std::uint32_t query;
      std::uint32_t rank;
    };
    std::vector<Task> tasks;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      const auto ranked = collectors_[q].TakeRanked();
      (*results)[q].entries.resize(ranked.size());
      for (std::uint32_t i = 0; i < ranked.size(); ++i) {
        tasks.push_back({ranked[i].first, ranked[i].second,
                         static_cast<std::uint32_t>(q), i});
      }
    }
    std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
      if (a.vertex != b.vertex) return a.vertex < b.vertex;
      if (a.query != b.query) return a.query < b.query;
      return a.rank < b.rank;
    });
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t i = 0; i < tasks.size();) {
      std::size_t j = i + 1;
      while (j < tasks.size() && tasks[j].vertex == tasks[i].vertex) ++j;
      groups.emplace_back(i, j);
      i = j;
    }
    pipeline.ForEach(groups.size(), [&](QueryWorkspace& ws, std::uint64_t g) {
      const auto [begin, end] = groups[g];
      prep(ws, tasks[begin].vertex);
      for (std::size_t i = begin; i < end; ++i) {
        const Task& task = tasks[i];
        TopREntry& entry = (*results)[task.query].entries[task.rank];
        entry.vertex = task.vertex;
        entry.score = task.score;
        entry.contexts = fn(ws, task.vertex, queries_[task.query].k);
      }
    });
  }

 private:
  std::vector<BatchQuery> queries_;
  std::vector<std::uint32_t> thresholds_;  // distinct ks, descending
  std::vector<std::uint32_t> k_index_;     // per query, into thresholds_
  std::vector<TopRCollector> collectors_;  // one per query
  std::vector<TopRCollector*> collector_ptrs_;
};

}  // namespace tsd
