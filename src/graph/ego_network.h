// Ego-network extraction (Definition 1 of the paper).
//
// The ego-network G_N(v) is the subgraph induced by v's neighbors, with v
// itself excluded. Two extraction strategies are implemented:
//
//  * EgoNetworkExtractor — per-vertex extraction by marking N(v) and
//    scanning each member's adjacency (used by the online algorithms and by
//    every TSD forest-slice build, static or dynamic; each triangle at v is
//    touched independently per center).
//  * GlobalEgoNetworks — the Section 6.2 optimization: one global triangle
//    listing pass distributes every triangle (u,v,w) to the three
//    ego-networks it belongs to, so each triangle is enumerated 3 times
//    instead of 6. Used by GCT-index construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"

namespace tsd {

/// A materialized ego-network with local vertex ids.
///
/// Local id i corresponds to global vertex members[i]; members is sorted
/// ascending. Edges use local ids (Edge.u < Edge.v). The local CSR arrays
/// (offsets/adj/adj_edge_ids) are filled by BuildCsr().
struct EgoNetwork {
  VertexId center = kInvalidVertex;
  std::vector<VertexId> members;  // global ids of N(center), sorted
  std::vector<Edge> edges;        // local-id pairs, sorted by (u, v)

  // Local CSR (valid after BuildCsr()).
  std::vector<std::uint32_t> offsets;
  std::vector<VertexId> adj;
  std::vector<EdgeId> adj_edge_ids;

  std::uint32_t num_members() const {
    return static_cast<std::uint32_t>(members.size());
  }
  std::uint32_t num_edges() const {
    return static_cast<std::uint32_t>(edges.size());
  }

  VertexId ToGlobal(std::uint32_t local) const { return members[local]; }

  /// Local id of a global vertex, or kInvalidVertex if absent. O(log).
  std::uint32_t ToLocal(VertexId global) const;

  /// Builds the local CSR arrays from `edges`. Idempotent.
  void BuildCsr();

  std::uint32_t LocalDegree(std::uint32_t local) const {
    return offsets[local + 1] - offsets[local];
  }
  std::span<const VertexId> LocalNeighbors(std::uint32_t local) const {
    return {adj.data() + offsets[local], adj.data() + offsets[local + 1]};
  }
};

/// Per-vertex ego-network extraction with reusable scratch buffers, over
/// any adjacency whose neighbors(v) are sorted ascending: the immutable
/// Graph and the mutable DynamicGraph. The mark array follows the graph's
/// id space, so a DynamicGraph may grow between calls.
/// Not thread-safe; create one extractor per thread.
template <typename Adjacency>
class BasicEgoNetworkExtractor {
 public:
  /// The mark array is sized on the first extraction.
  explicit BasicEgoNetworkExtractor(const Adjacency& graph) : graph_(&graph) {}

  /// Retargets the extractor to another graph, reusing the scratch buffers
  /// (only grown, never shrunk). Lets a per-query reduced graph — e.g. the
  /// Algorithm 4 sparsified subgraph — run on a persistent workspace.
  void Rebind(const Adjacency& graph) { graph_ = &graph; }

  /// Extracts G_N(v). Includes isolated members (neighbors of v with no
  /// edges inside the ego-network).
  EgoNetwork Extract(VertexId v) {
    EgoNetwork out;
    ExtractInto(v, &out);
    return out;
  }

  /// Extraction reusing the caller's EgoNetwork storage.
  void ExtractInto(VertexId v, EgoNetwork* out);

 private:
  const Adjacency* graph_;
  std::vector<std::uint32_t> local_id_;  // scratch: global -> local + 1, 0 = absent
};

using EgoNetworkExtractor = BasicEgoNetworkExtractor<Graph>;
extern template class BasicEgoNetworkExtractor<Graph>;
extern template class BasicEgoNetworkExtractor<DynamicGraph>;

/// One-shot global ego-network extraction (Algorithm 7, lines 1–4).
///
/// A single triangle-listing pass fills, for every vertex w, the list of
/// ego edges of G_N(w) (as global-id pairs). Total storage is 3T edge slots.
class GlobalEgoNetworks {
 public:
  /// Lists all triangles and groups them by center. With
  /// `config.num_threads > 1` the forward-adjacency build, the counting
  /// pass, AND the distribution fill run on worker threads: a per-chunk
  /// counting matrix gives every (chunk, center) pair a disjoint cursor
  /// range inside the center's slice, so the parallel fill reproduces the
  /// sequential listing order bit for bit (chunks are ordered sub-ranges of
  /// the enumeration). Above a scratch budget the matrix shrinks and
  /// ultimately falls back to the sequential shared-cursor fill.
  explicit GlobalEgoNetworks(const Graph& graph,
                             const ParallelConfig& config = {});

  /// Ego edges of G_N(v) as global-id pairs (u < w, unordered list).
  std::span<const Edge> EgoEdges(VertexId v) const {
    return {ego_edges_.data() + offsets_[v],
            ego_edges_.data() + offsets_[v + 1]};
  }

  /// MaterializeInto's scratch, one per thread: a global-to-local mark array
  /// (all zero between calls) and an edge-key buffer.
  struct Scratch {
    std::vector<std::uint32_t> local_plus_one;
    std::vector<std::uint64_t> keys;
  };

  /// Materializes the full EgoNetwork (members = N(v), local-id edges)
  /// into the caller's storage.
  void MaterializeInto(VertexId v, EgoNetwork* out, Scratch* scratch) const;

  /// Total number of triangles in the graph.
  std::uint64_t num_triangles() const { return ego_edges_.size() / 3; }

 private:
  const Graph& graph_;
  std::vector<std::uint64_t> offsets_;  // size n+1
  std::vector<Edge> ego_edges_;         // flat, grouped by center vertex
};

}  // namespace tsd
