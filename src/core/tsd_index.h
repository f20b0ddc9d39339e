// TSD-index — the paper's Section 5 contribution.
//
// For every vertex v, the index stores the *maximum spanning forest* of the
// trussness-weighted ego-network WG_v (edge weight = trussness of the edge
// inside G_N(v)). By the max-spanning-forest cut property, two members of
// G_N(v) lie in the same maximal connected k-truss iff the forest connects
// them through edges of weight ≥ k, so the forest preserves the full
// structural diversity information of every ego-network in O(Σ_v n_v) ⊆
// O(m) total space (Observations 2 and 3).
//
// Queries for any (k, r) run against the index alone:
//   score(v)      — count components of the weight-≥k forest prefix.
//   s̃core(v)     — ⌊(#forest edges of weight ≥ k) / (k-1)⌋, the TSD upper
//                   bound used for top-r pruning (Section 5.2).
//   TopR(r, k)    — bound-ordered scan with early termination.
// The kernels and both query drivers live in core/forest_slice.h, shared
// with DynamicTsdIndex; this class stores the slices flattened.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/mmap_file.h"
#include "common/snapshot.h"
#include "core/forest_slice.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/scoring.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "truss/ego_truss.h"

namespace tsd {

/// Timing breakdown of index construction (feeds Tables 3 and 4).
struct IndexBuildStats {
  double extraction_seconds = 0;     // ego-network extraction
  double decomposition_seconds = 0;  // ego-network truss decomposition
  double assembly_seconds = 0;       // forest / supernode assembly
  double total_seconds = 0;
};

class TsdIndex : public DiversitySearcher {
 public:
  struct Options {
    /// Kernel for the per-ego truss decompositions during construction.
    /// The paper's TSD uses per-vertex extraction + hash decomposition;
    /// the GCT improvements live in GctIndex.
    EgoTrussMethod method = EgoTrussMethod::kHash;
    /// Worker threads for construction. Per-vertex forests are independent,
    /// so the build parallelizes embarrassingly; results are bit-identical
    /// to the sequential build. With >1 threads the per-phase timing
    /// breakdown in build_stats() is summed across workers (CPU time, not
    /// wall time).
    std::uint32_t num_threads = 1;
  };

  /// Builds the TSD-index of `graph` (Algorithm 5). O(ρ(m+T)) time.
  static TsdIndex Build(const Graph& graph, const Options& options);
  static TsdIndex Build(const Graph& graph) { return Build(graph, Options()); }

  /// Structural diversity score of v at threshold k, via Algorithm 6.
  /// The scratch overload is allocation-free in the steady state; the
  /// convenience overload allocates a throwaway scratch per call.
  std::uint32_t Score(VertexId v, std::uint32_t k,
                      IndexQueryScratch& scratch) const;
  std::uint32_t Score(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return Score(v, k, scratch);
  }

  /// Score plus materialized social contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const;
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  /// The s̃core(v) upper bound (Section 5.2). Always ≥ Score(v, k).
  std::uint32_t ScoreUpperBound(VertexId v, std::uint32_t k) const;

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  /// Index-based top-r search with s̃core pruning. The index is immutable,
  /// so concurrent sessions may query one shared instance.
  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// Amortized batch path: one forest-slice sweep per vertex scores every
  /// requested threshold over the full vertex range (bit-identical to
  /// per-query TopR).
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "TSD"; }

  /// Forest edges stored for v: parallel spans of (u, v, weight).
  std::uint32_t NumForestEdges(VertexId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Serialized/in-memory index size in bytes (Table 3).
  std::size_t SizeBytes() const;

  IndexBuildStats build_stats() const { return build_stats_; }

  /// Maximum forest edge weight anywhere (== max ego-network trussness).
  std::uint32_t max_weight() const { return max_weight_; }

  /// Saves a single-object snapshot (common/snapshot.h container) holding
  /// just this index. Load() throws tsd::CheckError on any malformed file —
  /// legacy semantics kept for callers that treat the path as trusted.
  void Save(const std::string& path) const;
  static TsdIndex Load(const std::string& path);

  /// Writes the forest arrays into an open snapshot ("tsdx.*" tags), for
  /// combined files that also carry the graph and/or other indexes.
  void AppendToSnapshot(SnapshotWriter& writer) const;

  /// Binds an index to the "tsdx.*" sections of a mapped snapshot —
  /// zero-copy, validated; false + `*error` on any inconsistency.
  [[nodiscard]] static bool LoadFromSnapshot(const SnapshotReader& reader,
                                             TsdIndex* out,
                                             std::string* error);

  /// True when the forest arrays are views into a mapped snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

 private:
  friend class DynamicTsdIndex;

  /// v's forest slice as a view into the flat arrays (checks v's range).
  ForestSliceView Slice(VertexId v) const;

  // Per-vertex forest edges, flattened; each vertex's slice is sorted by
  // weight descending. Endpoints are global vertex ids.
  FlatArray<std::uint64_t> offsets_;  // size n+1
  FlatArray<VertexId> edge_u_;
  FlatArray<VertexId> edge_v_;
  FlatArray<std::uint32_t> weight_;
  std::uint32_t max_weight_ = 0;
  IndexBuildStats build_stats_;
  // Keeps the snapshot mapping alive while the arrays view into it.
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace tsd
