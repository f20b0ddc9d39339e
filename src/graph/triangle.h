// Triangle listing and edge-support computation.
//
// Uses the standard "forward" algorithm over a degree ordering: every
// triangle is enumerated exactly once in O(ρ·m) total time, where ρ is the
// graph's arboricity (Chiba–Nishizeki). This is the workhorse behind support
// computation (Algorithm 1, line 1), the ego-network edge counts m_v used by
// the Lemma 2 upper bound, and the one-shot global ego-network extraction of
// Section 6.2. The intersection is by marking, not by merging: a vertex's
// forward neighbors are marked in a per-worker array, and each forward
// neighbor's own forward list is walked against the marks. So the forward
// lists need no order, and the adjacency build is a filter of the CSR.
//
// Both the sequential kernels and the multi-threaded variants (per-worker
// accumulation over the same ForwardAdjacency, merged deterministically)
// live here: triangle listing depends only on graph/ and common/, and
// graph/ego_network.cc consumes the forward machinery directly — keeping it
// in truss/ would point the layer DAG the wrong way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace tsd {

/// Total number of triangles T in the graph.
std::uint64_t CountTriangles(const Graph& graph);

/// Support of every edge: sup(e) = number of triangles containing e.
std::vector<std::uint32_t> ComputeSupport(const Graph& graph);

/// Number of triangles through each vertex. This equals m_v, the edge count
/// of the ego-network G_N(v) (each ego edge (u,w) of v is the triangle
/// (v,u,w)). Counts are 64-bit: a vertex of degree d sits in up to
/// C(d, 2) triangles, which overflows 32 bits for d ≳ 93k in a dense
/// community.
std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph);

/// Parallel total triangle count. Equals CountTriangles(graph).
std::uint64_t CountTriangles(const Graph& graph, const ParallelConfig& config);

/// Parallel edge supports. Equals ComputeSupport(graph).
std::vector<std::uint32_t> ComputeSupport(const Graph& graph,
                                          const ParallelConfig& config);

/// Parallel per-vertex triangle counts (the ego-network edge counts m_v).
/// Equals TrianglesPerVertex(graph); 64-bit, see above.
std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph,
                                              const ParallelConfig& config);

/// Enumerates every triangle exactly once. The callback receives the three
/// corner vertices and the ids of the three edges:
///   fn(u, v, w, e_uv, e_uw, e_vw)
/// Corner order follows the internal degree ordering (no sorted guarantee on
/// vertex ids).
template <typename Fn>
void ForEachTriangle(const Graph& graph, Fn&& fn);

namespace internal {

/// Degree-ordered forward adjacency: for each vertex, the neighbors that
/// come later in the (degree, id) order, in ascending id order (a filter of
/// the CSR slice; the marking walk needs no rank order). Shared by the
/// triangle kernels above. With `config.num_threads > 1` the per-vertex
/// counting and slice fill run on worker threads; every slice is a filter of
/// its own CSR slice, so the arrays are bit-identical to the sequential
/// build at any thread count.
struct ForwardAdjacency {
  explicit ForwardAdjacency(const Graph& graph)
      : ForwardAdjacency(graph, ParallelConfig{}) {}
  ForwardAdjacency(const Graph& graph, const ParallelConfig& config);

  std::vector<std::uint32_t> rank;       // position in degree order
  std::vector<std::uint64_t> offsets;    // size n+1
  std::vector<VertexId> neighbors;       // forward neighbors, ascending id
  std::vector<EdgeId> edge_ids;          // parallel to neighbors
};

/// Enumerates every triangle whose lowest-ranked corner u lies in
/// [u_begin, u_end) — the unit of work the parallel kernels hand to each
/// chunk. ForEachTriangle is the [0, n) instantiation. For each u, every
/// forward neighbor w is marked with e_uw; then each forward neighbor v's
/// own forward list is walked, and every marked w closes the triangle
/// (u, v, w) with rank u < v < w. `mark` is the calling worker's scratch:
/// at least n entries, all kInvalidEdge on entry, and left so on return.
template <typename Fn>
void ForEachTriangleInRange(const ForwardAdjacency& fwd, VertexId u_begin,
                            VertexId u_end, std::span<EdgeId> mark, Fn&& fn) {
  for (VertexId u = u_begin; u < u_end; ++u) {
    const auto begin_u = fwd.offsets[u];
    const auto end_u = fwd.offsets[u + 1];
    if (end_u - begin_u < 2) continue;
    for (auto i = begin_u; i < end_u; ++i) {
      mark[fwd.neighbors[i]] = fwd.edge_ids[i];
    }
    for (auto i = begin_u; i < end_u; ++i) {
      const VertexId v = fwd.neighbors[i];
      const EdgeId e_uv = fwd.edge_ids[i];
      const auto end_v = fwd.offsets[v + 1];
      for (auto j = fwd.offsets[v]; j < end_v; ++j) {
        const VertexId w = fwd.neighbors[j];
        const EdgeId e_uw = mark[w];
        if (e_uw != kInvalidEdge) fn(u, v, w, e_uv, e_uw, fwd.edge_ids[j]);
      }
    }
    for (auto i = begin_u; i < end_u; ++i) {
      mark[fwd.neighbors[i]] = kInvalidEdge;
    }
  }
}

/// Cap on the total per-worker scratch (num_threads × bytes per worker) the
/// counting kernels may allocate. Every worker holds an n-entry mark array
/// (4n bytes); the accumulating kernels add a private counter array. When
/// the counters do not fit, the kernels fall back to one shared array of
/// relaxed atomics: slower per increment on contended cache lines, but O(m)
/// instead of O(threads × m) memory — a billion-edge graph at 8 threads
/// would otherwise need tens of GB of scratch. When not even the marks fit,
/// fewer workers run, down to one. Results are identical either way.
inline constexpr std::uint64_t kCountingScratchBudgetBytes =
    std::uint64_t{1} << 30;

/// How many of `num_threads` workers fit `budget_bytes` when each needs
/// `bytes_per_worker` of scratch: at least 1, at most num_threads.
inline std::uint32_t WorkersWithinBudget(std::uint32_t num_threads,
                                         std::uint64_t bytes_per_worker,
                                         std::uint64_t budget_bytes) {
  const std::uint64_t fit = bytes_per_worker == 0
                                ? num_threads
                                : budget_bytes / bytes_per_worker;
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(fit, 1, std::max(1U, num_threads)));
}

/// Runs fn(worker, chunk, u_begin, u_end, mark) over `num_chunks` ordered
/// chunks of the listing range [0, n) on `num_workers` workers. Each worker
/// allocates its own n-entry mark array the first time it runs a chunk and
/// passes it to ForEachTriangleInRange.
template <typename Fn>
void ForTriangleChunks(VertexId n, std::uint32_t num_chunks,
                       std::uint32_t num_workers, Fn&& fn) {
  std::vector<std::vector<EdgeId>> marks(num_workers);
  ParallelForChunksIndexed(
      n, num_chunks, num_workers,
      [&](std::uint32_t worker, std::uint32_t chunk, std::uint64_t begin,
          std::uint64_t end) {
        std::vector<EdgeId>& mark = marks[worker];
        if (mark.empty()) mark.assign(n, kInvalidEdge);
        fn(worker, chunk, static_cast<VertexId>(begin),
           static_cast<VertexId>(end), std::span<EdgeId>(mark));
      });
}

/// Edge supports over a prebuilt forward adjacency for `m` edges.
/// `scratch_budget_bytes` selects the accumulation strategy (tests pass 0
/// to force the shared-atomic path on small graphs).
std::vector<std::uint32_t> SupportFromForward(
    const ForwardAdjacency& fwd, EdgeId m, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes = kCountingScratchBudgetBytes);

/// Per-vertex triangle counts over a prebuilt forward adjacency for `n`
/// vertices — the shared kernel behind TrianglesPerVertex and the counting
/// pass of the global ego listing (which reuses its ForwardAdjacency for
/// the distribution pass).
std::vector<std::uint64_t> TrianglesPerVertexFromForward(
    const ForwardAdjacency& fwd, VertexId n, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes = kCountingScratchBudgetBytes);

}  // namespace internal

template <typename Fn>
void ForEachTriangle(const Graph& graph, Fn&& fn) {
  const internal::ForwardAdjacency fwd(graph);
  std::vector<EdgeId> mark(graph.num_vertices(), kInvalidEdge);
  internal::ForEachTriangleInRange(fwd, 0, graph.num_vertices(), mark,
                                   std::forward<Fn>(fn));
}

}  // namespace tsd
