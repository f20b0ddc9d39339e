#include "graph/graph.h"

#include <algorithm>
#include <string>
#include <vector>

namespace tsd {
namespace {

// Snapshot section tags for the graph CSR ("graf.*" group).
constexpr std::uint64_t kGraphMetaTag = SnapshotTag("graf.met");
constexpr std::uint64_t kGraphOffsetsTag = SnapshotTag("graf.off");
constexpr std::uint64_t kGraphAdjTag = SnapshotTag("graf.adj");
constexpr std::uint64_t kGraphAdjEdgeIdsTag = SnapshotTag("graf.eid");
constexpr std::uint64_t kGraphEdgesTag = SnapshotTag("graf.edg");

// Schema version for the "graf.*" section group (see the versioning policy
// in common/snapshot.h). Bump on any change to tags or element meaning.
constexpr std::uint64_t kGraphSchemaVersion = 1;

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "graph snapshot: " + message;
  return false;
}

}  // namespace

Graph Graph::FromEdges(std::vector<std::pair<VertexId, VertexId>> edges,
                       VertexId num_vertices) {
  GraphBuilder builder;
  builder.ReserveEdges(edges.size());
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  builder.EnsureVertices(num_vertices);
  return builder.Build();
}

EdgeId Graph::FindEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) {
    return kInvalidEdge;
  }
  // Search the smaller adjacency list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return incident_edges(u)[static_cast<std::size_t>(it - nbrs.begin())];
}

Graph Graph::EdgeSubgraph(std::span<const std::uint8_t> keep) const {
  TSD_CHECK(keep.size() == edges_.size());
  const VertexId n = num_vertices_;
  // Both passes are branch-free filters: every slot is written and the
  // cursor advances by the keep flag. A write lands at most one slot past
  // the kept entries, so each output gets one spare slot, shrunk off at
  // the end. A dropped edge's new_id is never read.
  EdgeId num_kept = 0;
  for (const std::uint8_t flag : keep) num_kept += flag != 0;
  std::vector<EdgeId> new_id(edges_.size());
  std::vector<Edge> edges(std::size_t{num_kept} + 1);
  EdgeId kept = 0;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    new_id[e] = kept;
    edges[kept] = edges_[e];
    kept += keep[e] != 0;
  }
  edges.resize(kept);

  // Filtering a sorted adjacency list keeps it sorted, and the id map is
  // monotone, so every per-vertex slice comes out in CSR order directly.
  Graph g;
  g.num_vertices_ = n;
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<VertexId> adj(2 * std::size_t{num_kept} + 1);
  std::vector<EdgeId> adj_edge_ids(adj.size());
  std::uint64_t out = 0;
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const EdgeId e = adj_edge_ids_[i];
      adj[out] = adj_[i];
      adj_edge_ids[out] = new_id[e];
      out += keep[e] != 0;
    }
    offsets[v + 1] = out;
    g.max_degree_ = std::max(
        g.max_degree_, static_cast<std::uint32_t>(out - offsets[v]));
  }
  adj.resize(out);
  adj_edge_ids.resize(out);
  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.adj_edge_ids_ = std::move(adj_edge_ids);
  g.edges_ = std::move(edges);
  return g;
}

std::size_t Graph::MemoryBytes() const {
  return offsets_.size() * sizeof(std::uint64_t) +
         adj_.size() * sizeof(VertexId) +
         adj_edge_ids_.size() * sizeof(EdgeId) + edges_.size() * sizeof(Edge);
}

void Graph::AppendToSnapshot(SnapshotWriter& writer) const {
  const std::uint64_t meta[] = {kGraphSchemaVersion, num_vertices_,
                                max_degree_};
  writer.AddScalars(kGraphMetaTag, meta);
  writer.AddArray(kGraphOffsetsTag, offsets_.span());
  writer.AddArray(kGraphAdjTag, adj_.span());
  writer.AddArray(kGraphAdjEdgeIdsTag, adj_edge_ids_.span());
  writer.AddArray(kGraphEdgesTag, edges_.span());
}

bool Graph::LoadFromSnapshot(const SnapshotReader& reader, Graph* out,
                             std::string* error) {
  *out = Graph();

  std::uint64_t meta[3] = {};
  if (!reader.ReadScalars(kGraphMetaTag, meta, error)) return false;
  if (meta[0] != kGraphSchemaVersion) {
    return Fail(error, "unsupported graph schema version " +
                           std::to_string(meta[0]) + " (this build reads " +
                           std::to_string(kGraphSchemaVersion) + ")");
  }
  if (meta[1] > kInvalidVertex) return Fail(error, "vertex count overflow");
  const auto n = static_cast<VertexId>(meta[1]);
  const auto max_degree = static_cast<std::uint32_t>(meta[2]);

  std::span<const std::uint64_t> offsets;
  std::span<const VertexId> adj;
  std::span<const EdgeId> adj_edge_ids;
  std::span<const Edge> edges;
  if (!reader.Read(kGraphOffsetsTag, &offsets, error) ||
      !reader.Read(kGraphAdjTag, &adj, error) ||
      !reader.Read(kGraphAdjEdgeIdsTag, &adj_edge_ids, error) ||
      !reader.Read(kGraphEdgesTag, &edges, error)) {
    return false;
  }

  // Structural validation: every invariant the accessors rely on. Linear in
  // the file size (like the checksum pass), still far below a rebuild.
  if (offsets.size() != std::size_t{n} + 1) {
    return Fail(error, "offsets size mismatch");
  }
  const std::size_t m = edges.size();
  if (m >= kInvalidEdge) return Fail(error, "edge count overflow");
  if (adj.size() != 2 * m || adj_edge_ids.size() != 2 * m) {
    return Fail(error, "adjacency size mismatch");
  }
  if (offsets[0] != 0 || offsets[n] != 2 * m) {
    return Fail(error, "offsets do not span the adjacency");
  }
  std::uint32_t seen_max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return Fail(error, "offsets not monotone");
    }
    const std::uint64_t deg = offsets[v + 1] - offsets[v];
    if (deg > n) return Fail(error, "degree exceeds vertex count");
    seen_max_degree = std::max(seen_max_degree,
                               static_cast<std::uint32_t>(deg));
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (adj[i] >= n || adj[i] == v) {
        return Fail(error, "adjacency endpoint out of range");
      }
      if (i > offsets[v] && adj[i - 1] >= adj[i]) {
        return Fail(error, "adjacency not sorted");
      }
      if (adj_edge_ids[i] >= m) return Fail(error, "edge id out of range");
    }
  }
  if (seen_max_degree != max_degree) {
    return Fail(error, "max degree mismatch");
  }
  for (std::size_t e = 0; e < m; ++e) {
    if (edges[e].u >= edges[e].v || edges[e].v >= n) {
      return Fail(error, "edge endpoints out of order or range");
    }
    if (e > 0 && !(edges[e - 1] < edges[e])) {
      return Fail(error, "edges not sorted");
    }
  }

  out->num_vertices_ = n;
  out->max_degree_ = max_degree;
  out->offsets_.BindView(offsets);
  out->adj_.BindView(adj);
  out->adj_edge_ids_.BindView(adj_edge_ids);
  out->edges_.BindView(edges);
  out->mapping_ = reader.mapping();
  return true;
}

Graph GraphBuilder::Build() {
  // Drop self-loops, canonicalize, dedup.
  std::erase_if(edges_, [](const auto& e) { return e.first == e.second; });
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  TSD_CHECK_MSG(num_vertices_ <= kInvalidVertex,
                "vertex count overflows VertexId");
  TSD_CHECK_MSG(edges_.size() < kInvalidEdge, "edge count overflows EdgeId");

  Graph g;
  g.num_vertices_ = static_cast<VertexId>(num_vertices_);
  const VertexId n = g.num_vertices_;
  const std::size_t m = edges_.size();

  std::vector<Edge> edge_list;
  edge_list.reserve(m);
  for (const auto& [u, v] : edges_) edge_list.push_back(Edge{u, v});

  // Degree counting pass.
  std::vector<std::uint64_t> degree(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++degree[u];
    ++degree[v];
  }
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + degree[v];
    g.max_degree_ =
        std::max(g.max_degree_, static_cast<std::uint32_t>(degree[v]));
  }

  // Fill pass. Edges are sorted by (u, v) with u < v, so each adjacency list
  // comes out sorted without an extra pass: for vertex x, all smaller
  // neighbors u < x arrive first (from earlier (u, x) blocks, u ascending),
  // then all larger neighbors v > x (from x's own (x, v) block, v ascending).
  std::vector<VertexId> adj(2 * m);
  std::vector<EdgeId> adj_edge_ids(2 * m);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, v] = edges_[e];
    adj[cursor[u]] = v;
    adj_edge_ids[cursor[u]++] = e;
    adj[cursor[v]] = u;
    adj_edge_ids[cursor[v]++] = e;
  }

  g.offsets_ = std::move(offsets);
  g.adj_ = std::move(adj);
  g.adj_edge_ids_ = std::move(adj_edge_ids);
  g.edges_ = std::move(edge_list);

  edges_.clear();
  num_vertices_ = 0;
  return g;
}

}  // namespace tsd
