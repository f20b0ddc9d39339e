#include "graph/ego_network.h"

#include <algorithm>

#include "common/check.h"
#include "graph/triangle.h"

namespace tsd {

std::uint32_t EgoNetwork::ToLocal(VertexId global) const {
  const auto it = std::lower_bound(members.begin(), members.end(), global);
  if (it == members.end() || *it != global) return kInvalidVertex;
  return static_cast<std::uint32_t>(it - members.begin());
}

void EgoNetwork::BuildCsr() {
  const std::uint32_t n = num_members();
  const std::uint32_t m = num_edges();
  offsets.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::uint32_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  adj.resize(2ULL * m);
  adj_edge_ids.resize(2ULL * m);
  // offsets[v] is v's fill cursor; shifting back afterwards restores it.
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, v] = edges[e];
    adj[offsets[u]] = v;
    adj_edge_ids[offsets[u]++] = e;
    adj[offsets[v]] = u;
    adj_edge_ids[offsets[v]++] = e;
  }
  for (std::uint32_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
  // Edges are sorted by (u, v) with u < v, so adjacency lists come out
  // sorted for the same reason as in GraphBuilder::Build.
}

template <typename Adjacency>
void BasicEgoNetworkExtractor<Adjacency>::ExtractInto(VertexId v,
                                                      EgoNetwork* out) {
  TSD_DCHECK(v < graph_->num_vertices());
  // Invariant: local_id_ is all zeros between calls, so growing with zeros
  // keeps it valid; a smaller graph simply leaves the tail unused.
  if (local_id_.size() < graph_->num_vertices()) {
    local_id_.resize(graph_->num_vertices(), 0);
  }
  out->center = v;
  out->members.assign(graph_->neighbors(v).begin(),
                      graph_->neighbors(v).end());
  out->edges.clear();
  out->offsets.clear();
  out->adj.clear();
  out->adj_edge_ids.clear();

  // Mark members with local id + 1 (0 = not a member).
  for (std::uint32_t i = 0; i < out->members.size(); ++i) {
    local_id_[out->members[i]] = i + 1;
  }
  // For each member u, scan u's adjacency for fellow members w > u; the
  // (u, w) pairs are exactly the ego edges (triangles through v).
  for (std::uint32_t i = 0; i < out->members.size(); ++i) {
    const VertexId u = out->members[i];
    for (VertexId w : graph_->neighbors(u)) {
      if (w <= u) continue;
      const std::uint32_t local_w = local_id_[w];
      if (local_w != 0) {
        out->edges.push_back(Edge{i, local_w - 1});
      }
    }
  }
  // Members are scanned in ascending global order and neighbors are sorted,
  // so edges come out sorted by (local u, local v) already.
  for (VertexId member : out->members) local_id_[member] = 0;
}

template class BasicEgoNetworkExtractor<Graph>;
template class BasicEgoNetworkExtractor<DynamicGraph>;

namespace {

/// Scratch cap for the pass-2 counting matrix (num_chunks × n × 8 bytes):
/// above it the chunk count is lowered, and below 2 usable chunks the fill
/// falls back to the sequential cursors — same budget discipline as the
/// parallel triangle kernels.
constexpr std::uint64_t kFillMatrixBudgetBytes = std::uint64_t{1} << 30;

}  // namespace

GlobalEgoNetworks::GlobalEgoNetworks(const Graph& graph,
                                     const ParallelConfig& config)
    : graph_(graph) {
  const VertexId n = graph.num_vertices();

  // One forward-adjacency structure (built on config's workers) drives both
  // the counting pass and the fill pass (building it dominates small-graph
  // listing cost).
  const internal::ForwardAdjacency fwd(graph, config);

  // Chunking for the parallel distribution fill: the counting and fill
  // passes below must agree on chunk boundaries, so the chunk count is
  // resolved once. Bounded so the counting matrix stays within budget.
  std::uint32_t num_chunks = 1;
  if (config.num_threads > 1 && n > 0) {
    num_chunks = EffectiveChunks(config, n);
    const std::uint64_t max_chunks =
        kFillMatrixBudgetBytes / (std::uint64_t{n} * sizeof(std::uint64_t));
    num_chunks = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(num_chunks, std::max<std::uint64_t>(
                                                std::uint64_t{1}, max_chunks)));
  }

  if (num_chunks < 2) {
    // Sequential path (1 thread, tiny graphs, or matrix over budget): pass 1
    // counts ego edges per center (= triangles per vertex; 64-bit — a dense
    // degree-93k hub overflows a 32-bit counter), pass 2 distributes each
    // triangle to its three ego-networks through three shared cursors.
    const std::vector<std::uint64_t> counts =
        internal::TrianglesPerVertexFromForward(fwd, n, config);
    offsets_.assign(n + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      offsets_[v + 1] = offsets_[v] + counts[v];
    }
    ego_edges_.resize(offsets_[n]);
    std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    std::vector<EdgeId> mark(n, kInvalidEdge);
    internal::ForEachTriangleInRange(
        fwd, 0, n, mark,
        [&](VertexId u, VertexId v, VertexId w, EdgeId, EdgeId, EdgeId) {
          ego_edges_[cursor[w]++] = Edge{std::min(u, v), std::max(u, v)};
          ego_edges_[cursor[v]++] = Edge{std::min(u, w), std::max(u, w)};
          ego_edges_[cursor[u]++] = Edge{std::min(v, w), std::max(v, w)};
        });
    return;
  }

  // Parallel distribution fill. A center's slice must list its ego edges in
  // the exact order the sequential triangle enumeration produces them, so
  // shared cursors won't do. Instead, a per-chunk counting matrix
  // (num_chunks × n) records how many ego edges each chunk of the
  // enumeration contributes to each center; a column-wise prefix sum then
  // gives every (chunk, center) pair its own disjoint cursor range inside
  // the center's slice. Chunks are ordered sub-ranges of the enumeration,
  // so concatenating their contributions per center reproduces the
  // sequential listing order exactly — the fill is bit-identical to the
  // sequential pass at any thread count.
  //
  // Each worker of the two passes owns a mark array; as many run as have
  // room for one within the counting kernels' scratch budget.
  const std::uint32_t workers = internal::WorkersWithinBudget(
      config.num_threads, std::uint64_t{n} * sizeof(EdgeId),
      internal::kCountingScratchBudgetBytes);
  std::vector<std::vector<std::uint64_t>> matrix(num_chunks);
  internal::ForTriangleChunks(
      n, num_chunks, workers,
      [&](std::uint32_t /*worker*/, std::uint32_t c, VertexId begin,
          VertexId end, std::span<EdgeId> mark) {
        std::vector<std::uint64_t>& counts = matrix[c];
        counts.assign(n, 0);
        internal::ForEachTriangleInRange(
            fwd, begin, end, mark,
            [&](VertexId u, VertexId v, VertexId w, EdgeId, EdgeId, EdgeId) {
              ++counts[u];
              ++counts[v];
              ++counts[w];
            });
      });

  // Column-wise running sum: offsets_ from the per-center totals, and each
  // matrix cell rewritten to its chunk's start cursor within the slice.
  // Chunks the parallel-for skipped as empty (ceil-divided boundaries can
  // leave trailing chunks without vertices) never ran their fn, so their
  // rows are unsized: they contribute nothing and are skipped here and
  // (for the same boundaries) in the fill pass below.
  offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t cursor = offsets_[v];
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      if (matrix[c].empty()) continue;
      const std::uint64_t count = matrix[c][v];
      matrix[c][v] = cursor;
      cursor += count;
    }
    offsets_[v + 1] = cursor;
  }

  ego_edges_.resize(offsets_[n]);
  internal::ForTriangleChunks(
      n, num_chunks, workers,
      [&](std::uint32_t /*worker*/, std::uint32_t c, VertexId begin,
          VertexId end, std::span<EdgeId> mark) {
        std::vector<std::uint64_t>& cursor = matrix[c];  // chunk-owned
        internal::ForEachTriangleInRange(
            fwd, begin, end, mark,
            [&](VertexId u, VertexId v, VertexId w, EdgeId, EdgeId, EdgeId) {
              ego_edges_[cursor[w]++] = Edge{std::min(u, v), std::max(u, v)};
              ego_edges_[cursor[v]++] = Edge{std::min(u, w), std::max(u, w)};
              ego_edges_[cursor[u]++] = Edge{std::min(v, w), std::max(v, w)};
            });
      });
}

void GlobalEgoNetworks::MaterializeInto(VertexId v, EgoNetwork* out,
                                        Scratch* scratch) const {
  TSD_DCHECK(v < graph_.num_vertices());
  out->center = v;
  out->members.assign(graph_.neighbors(v).begin(),
                      graph_.neighbors(v).end());
  out->offsets.clear();
  out->adj.clear();
  out->adj_edge_ids.clear();

  // Global-to-local translation via the mark array (zeroed between calls),
  // instead of per-endpoint binary search — materialization is on the
  // index-construction hot path.
  std::vector<std::uint32_t>& local_plus_one = scratch->local_plus_one;
  if (local_plus_one.size() < graph_.num_vertices()) {
    local_plus_one.resize(graph_.num_vertices(), 0);
  }
  for (std::uint32_t i = 0; i < out->members.size(); ++i) {
    local_plus_one[out->members[i]] = i + 1;
  }

  // Translate, pack each edge into one 64-bit key, sort numerically
  // (equivalent to lexicographic (u, v) order), unpack.
  std::vector<std::uint64_t>& keys = scratch->keys;
  keys.clear();
  for (const Edge& e : EgoEdges(v)) {
    const std::uint32_t lu = local_plus_one[e.u];
    const std::uint32_t lv = local_plus_one[e.v];
    TSD_DCHECK(lu != 0 && lv != 0);
    const std::uint32_t a = std::min(lu, lv) - 1;
    const std::uint32_t b = std::max(lu, lv) - 1;
    keys.push_back((static_cast<std::uint64_t>(a) << 32) | b);
  }
  std::sort(keys.begin(), keys.end());
  out->edges.clear();
  out->edges.reserve(keys.size());
  for (std::uint64_t key : keys) {
    out->edges.push_back(Edge{static_cast<VertexId>(key >> 32),
                              static_cast<VertexId>(key & 0xFFFFFFFFu)});
  }
  for (VertexId member : out->members) local_plus_one[member] = 0;
}

}  // namespace tsd
