// GCT-index — the paper's Section 6 contribution.
//
// GCT compresses the TSD forest of every ego-network into supernodes and
// superedges: a supernode groups the member vertices that are connected via
// edges of one trussness level inside one social context; superedges record
// how contexts of different levels attach to each other. Construction uses
// the two Section 6.2 accelerations — one-shot global triangle listing for
// ego-network extraction and bitmap-based truss decomposition — and queries
// reduce to Lemma 3:
//
//     score(v) = N_k − M_k
//
// where N_k / M_k count supernodes with trussness ≥ k and superedges with
// weight ≥ k. Both slices are stored sorted descending, so one vertex's
// score is two binary searches.
//
// Top-r queries do not scan the vertices. The ranking at threshold k (the
// vertices with positive score, by score desc, id asc) depends only on the
// index and k, so the first query at k builds it with one O(n) scoring pass
// and every later query at k, from any session, reads its answers off the
// front (core/score_ranking.h). Score(v, k) > 0 exactly when v's top
// supernode has trussness ≥ k (N_k ≥ 1 gives at least one forest
// component), which makes a ranking hold Σ_v (top trussness of v − 1)
// entries over all k. That is at most the member-array length, because v's
// top supernode spans a whole truss component of its ego-network and so has
// at least that many members: the rankings never outgrow the index. Above
// max_trussness() every score is 0, so such a query answers ids
// 0..min(r, n)−1 with score 0 and builds nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/mmap_file.h"
#include "common/snapshot.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/score_ranking.h"
#include "core/scoring.h"
#include "core/tsd_index.h"
#include "core/types.h"
#include "graph/ego_network.h"
#include "truss/ego_truss.h"

namespace tsd {

class GctIndex : public DiversitySearcher {
 public:
  struct Options {
    /// Ego truss decomposition kernel. The paper's GCT uses the bitmap
    /// kernel; kHash is kept for the Table 4 ablation.
    EgoTrussMethod method = EgoTrussMethod::kBitmap;
    /// Use the one-shot global triangle listing for ego-network extraction
    /// (Section 6.2). Disable for the Table 4 ablation.
    bool use_global_listing = true;
    /// Worker threads for construction (per-vertex work is independent;
    /// the result is bit-identical to the sequential build). With >1
    /// threads the per-phase timings in build_stats() are summed across
    /// workers (CPU time, not wall time).
    std::uint32_t num_threads = 1;
  };

  /// Builds the GCT-index of `graph` (Algorithms 7 + 8).
  static GctIndex Build(const Graph& graph, const Options& options);
  static GctIndex Build(const Graph& graph) { return Build(graph, Options()); }

  /// score(v) at threshold k via Lemma 3 (two binary searches).
  std::uint32_t Score(VertexId v, std::uint32_t k) const;

  /// Largest supernode trussness at v (0 if v has no supernode): score(v, k)
  /// is positive exactly for k in [2, TopTrussness(v)].
  std::uint32_t TopTrussness(VertexId v) const {
    return sn_offsets_[v] == sn_offsets_[v + 1] ? 0 : sn_tau_[sn_offsets_[v]];
  }

  /// Score plus materialized social contexts (union of supernode member
  /// lists over the superedge forest). The scratch overload is
  /// allocation-free in the steady state apart from the returned contexts.
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k,
                                IndexQueryScratch& scratch) const;
  ScoreResult ScoreWithContexts(VertexId v, std::uint32_t k) const {
    IndexQueryScratch scratch;
    return ScoreWithContexts(v, k, scratch);
  }

  using DiversitySearcher::SearchBatch;
  using DiversitySearcher::TopR;

  /// Index-based top-r search: the answers are the front of the ranking at
  /// k (built on the first query at k), so a warm query costs O(r) plus
  /// its contexts. The index is immutable apart from the shared rankings,
  /// which are thread-safe, so concurrent sessions may query one shared
  /// instance. stats.vertices_scored counts the answers read from the
  /// ranking (zero-score padding included), not vertices scanned.
  TopRResult TopR(std::uint32_t r, std::uint32_t k,
                  QuerySession& session) const override;

  /// Batch path: every query reads its answers from the ranking at its k;
  /// winners shared by several queries are materialized together
  /// (bit-identical to per-query TopR).
  std::vector<TopRResult> SearchBatch(std::span<const BatchQuery> queries,
                                      QuerySession& session) const override;

  std::string name() const override { return "GCT"; }

  VertexId num_vertices() const {
    return static_cast<VertexId>(sn_offsets_.size() - 1);
  }

  std::uint32_t NumSupernodes(VertexId v) const {
    return static_cast<std::uint32_t>(sn_offsets_[v + 1] - sn_offsets_[v]);
  }
  std::uint32_t NumSuperedges(VertexId v) const {
    return static_cast<std::uint32_t>(se_offsets_[v + 1] - se_offsets_[v]);
  }

  /// Maximum supernode trussness anywhere (== max ego-network trussness).
  std::uint32_t max_trussness() const { return max_trussness_; }

  /// Length of the supernode member array (the bound on
  /// ranking_entries()).
  std::size_t num_members() const { return members_.size(); }

  /// Entries held by the per-k rankings built so far (derived query data;
  /// not part of SizeBytes() or of a snapshot).
  std::uint64_t ranking_entries() const {
    return rankings_ == nullptr ? 0 : rankings_->num_entries();
  }

  std::size_t SizeBytes() const;
  IndexBuildStats build_stats() const { return build_stats_; }

  /// Saves a single-object snapshot (common/snapshot.h container) holding
  /// just this index. Load() throws tsd::CheckError on any malformed file —
  /// legacy semantics kept for callers that treat the path as trusted.
  void Save(const std::string& path) const;
  static GctIndex Load(const std::string& path);

  /// Writes the supernode/superedge arrays into an open snapshot ("gctx.*"
  /// tags), for combined files that also carry the graph and/or the TSD.
  void AppendToSnapshot(SnapshotWriter& writer) const;

  /// Binds an index to the "gctx.*" sections of a mapped snapshot —
  /// zero-copy, validated; false + `*error` on any inconsistency.
  [[nodiscard]] static bool LoadFromSnapshot(const SnapshotReader& reader,
                                             GctIndex* out,
                                             std::string* error);

  /// True when the index arrays are views into a mapped snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

  /// Internal invariant check, exposed for tests: verifies per-vertex
  /// supernode/superedge ordering, forest acyclicity, and that superedge
  /// weights are ≤ both endpoint trussnesses and < at least one of them.
  void CheckInvariants() const;

 private:
  /// The top-r (vertex, score) answers at k, zero-score padded to
  /// min(r, n) entries; builds the ranking at k with `pipeline` on first
  /// use.
  ScoreRanking Answers(std::uint32_t r, std::uint32_t k,
                       QueryPipeline& pipeline) const;

  // Supernodes, flattened vertex-major; each vertex's slice is sorted by
  // trussness descending (ties: ascending smallest member). All offset
  // arrays are 32-bit — the totals are bounded by 2m, which the build
  // checks — which is what makes GCT the compact index of the pair.
  FlatArray<std::uint32_t> sn_offsets_;      // size n+1, into sn_tau_
  FlatArray<std::uint32_t> sn_tau_;          // trussness per supernode
  FlatArray<std::uint32_t> member_offsets_;  // size |sn_tau_|+1
  FlatArray<VertexId> members_;              // sorted global ids

  // Superedges, flattened vertex-major; each slice sorted by weight
  // descending. Endpoints are indices into the vertex's supernode slice.
  FlatArray<std::uint32_t> se_offsets_;  // size n+1
  FlatArray<std::uint32_t> se_a_;
  FlatArray<std::uint32_t> se_b_;
  FlatArray<std::uint32_t> se_w_;

  std::uint32_t max_trussness_ = 0;
  IndexBuildStats build_stats_;
  // Rankings for k in [2, max_trussness_], sized at Build/LoadFromSnapshot.
  // Behind a pointer so the index stays movable.
  std::shared_ptr<RankingMemo> rankings_;
  // Keeps the snapshot mapping alive while the arrays view into it.
  std::shared_ptr<const MappedFile> mapping_;
};

}  // namespace tsd
