// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// This is the substrate every algorithm in the library runs on. Vertices are
// dense ids [0, n). Each undirected edge {u, v} (u < v) has a single EdgeId
// in [0, m) shared by both adjacency directions, so per-edge algorithm state
// (support, trussness, removal flags) lives in flat arrays indexed by EdgeId
// — no hashing on the peeling hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mmap_file.h"
#include "common/snapshot.h"

namespace tsd {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

/// An undirected edge as an ordered pair (u < v).
struct Edge {
  VertexId u;
  VertexId v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Immutable CSR graph. Build via GraphBuilder or Graph::FromEdges.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list. Self-loops are dropped and duplicate
  /// edges collapsed. `num_vertices` may exceed the largest endpoint + 1 to
  /// include isolated vertices; pass 0 to infer it from the edges.
  static Graph FromEdges(std::vector<std::pair<VertexId, VertexId>> edges,
                         VertexId num_vertices = 0);

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  std::uint32_t degree(VertexId v) const {
    TSD_DCHECK(v < num_vertices_);
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v, sorted ascending.
  std::span<const VertexId> neighbors(VertexId v) const {
    TSD_DCHECK(v < num_vertices_);
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  /// Edge ids parallel to neighbors(v): incident_edges(v)[i] is the id of
  /// edge {v, neighbors(v)[i]}.
  std::span<const EdgeId> incident_edges(VertexId v) const {
    TSD_DCHECK(v < num_vertices_);
    return {adj_edge_ids_.data() + offsets_[v],
            adj_edge_ids_.data() + offsets_[v + 1]};
  }

  /// Endpoints of edge e with u < v.
  const Edge& edge(EdgeId e) const {
    TSD_DCHECK(e < edges_.size());
    return edges_[e];
  }

  /// All edges, ordered by (u, v).
  std::span<const Edge> edges() const { return edges_.span(); }

  /// True iff {u, v} is an edge. O(log d(u)) via binary search.
  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  /// Id of edge {u, v}, or kInvalidEdge. Searches the smaller adjacency.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  std::uint32_t max_degree() const { return max_degree_; }

  /// The subgraph of the edges e with keep[e] != 0, over the same vertex-id
  /// space. Kept edges stay in (u, v) order, so edge i of the result is the
  /// i-th kept edge — exactly what Graph::FromEdges would build from them —
  /// but in one linear pass over the CSR, with no sort.
  Graph EdgeSubgraph(std::span<const std::uint8_t> keep) const;

  /// Raw CSR arrays, for algorithm kernels that operate on CSR views.
  std::span<const std::uint64_t> offsets() const { return offsets_.span(); }
  std::span<const VertexId> adjacency() const { return adj_.span(); }
  std::span<const EdgeId> adjacency_edge_ids() const {
    return adj_edge_ids_.span();
  }

  /// Total adjacency memory in bytes (for reporting "graph size").
  std::size_t MemoryBytes() const;

  /// Writes the CSR arrays into a snapshot under the "graf.*" tags.
  void AppendToSnapshot(SnapshotWriter& writer) const;

  /// Binds a graph to the "graf.*" sections of a mapped snapshot. Zero-copy:
  /// the loaded graph references the mapping (and keeps it alive) instead of
  /// copying the arrays. All structural invariants are validated; on failure
  /// returns false with a diagnostic in `*error`.
  [[nodiscard]] static bool LoadFromSnapshot(const SnapshotReader& reader,
                                             Graph* out, std::string* error);

  /// True when the CSR arrays are views into a mapped snapshot.
  bool is_mapped() const { return mapping_ != nullptr; }

 private:
  friend class GraphBuilder;

  VertexId num_vertices_ = 0;
  std::uint32_t max_degree_ = 0;
  FlatArray<std::uint64_t> offsets_;  // size n+1
  FlatArray<VertexId> adj_;           // size 2m, sorted per vertex
  FlatArray<EdgeId> adj_edge_ids_;    // size 2m, parallel to adj_
  FlatArray<Edge> edges_;             // size m, sorted by (u, v)
  // Keeps the snapshot mapping alive while the arrays view into it.
  std::shared_ptr<const MappedFile> mapping_;
};

/// Incremental edge accumulator producing an immutable Graph.
///
/// Thread-compatible (single writer). Duplicate edges and self-loops are
/// tolerated and removed at Build() time.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes the edge buffer.
  void ReserveEdges(std::size_t count) { edges_.reserve(count); }

  /// Records the undirected edge {u, v}. Order of u, v is irrelevant.
  GraphBuilder& AddEdge(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    edges_.emplace_back(u, v);
    if (v != kInvalidVertex) {
      num_vertices_ = std::max<std::uint64_t>(num_vertices_,
                                              std::uint64_t{v} + 1);
    }
    return *this;
  }

  /// Ensures the built graph has at least `n` vertices.
  GraphBuilder& EnsureVertices(VertexId n) {
    num_vertices_ = std::max<std::uint64_t>(num_vertices_, n);
    return *this;
  }

  std::size_t num_pending_edges() const { return edges_.size(); }

  /// Finalizes into a CSR graph. The builder is left empty.
  Graph Build();

 private:
  std::uint64_t num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace tsd
