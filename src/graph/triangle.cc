#include "graph/triangle.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

namespace tsd {
namespace internal {

ForwardAdjacency::ForwardAdjacency(const Graph& graph,
                                   const ParallelConfig& config) {
  const VertexId n = graph.num_vertices();
  const std::uint32_t num_threads = std::max(1U, config.num_threads);
  const std::uint32_t num_chunks = EffectiveChunks(config, n);

  // Degree order: rank by (degree, id). Counting sort on degree. O(n), and
  // the in-degree-class assignment is order-dependent, so this stays
  // sequential; the O(m) phases below are the parallel ones.
  rank.resize(n);
  {
    std::vector<std::uint32_t> count(graph.max_degree() + 2, 0);
    for (VertexId v = 0; v < n; ++v) ++count[graph.degree(v) + 1];
    for (std::size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
    // Assign ranks in id order within each degree class => (degree, id).
    for (VertexId v = 0; v < n; ++v) rank[v] = count[graph.degree(v)]++;
  }

  // Per-vertex forward-degree counts: each vertex owns its offsets slot.
  offsets.assign(n + 1, 0);
  ParallelForChunksIndexed(
      n, num_chunks, num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          std::uint64_t forward = 0;
          for (VertexId u : graph.neighbors(static_cast<VertexId>(v))) {
            forward += rank[u] > rank[v];
          }
          offsets[v + 1] = forward;
        }
      });
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Fill each forward slice as a branch-free filter of the CSR slice: write
  // every candidate and advance the cursor only past forward ones. The
  // loop stops once the slice is full, so no write leaves it and chunks
  // never touch each other's slices.
  const std::uint64_t total = offsets[n];
  neighbors.resize(total);
  edge_ids.resize(total);
  ParallelForChunksIndexed(
      n, num_chunks, num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t v = begin; v < end; ++v) {
          const auto nbrs = graph.neighbors(static_cast<VertexId>(v));
          const auto eids = graph.incident_edges(static_cast<VertexId>(v));
          const std::uint32_t rank_v = rank[v];
          const std::uint64_t slice_end = offsets[v + 1];
          for (std::uint64_t out = offsets[v], i = 0; out < slice_end; ++i) {
            neighbors[out] = nbrs[i];
            edge_ids[out] = eids[i];
            out += rank[nbrs[i]] > rank_v;
          }
        }
      });
}

}  // namespace internal

std::uint64_t CountTriangles(const Graph& graph) {
  std::uint64_t count = 0;
  ForEachTriangle(graph, [&](VertexId, VertexId, VertexId, EdgeId, EdgeId,
                             EdgeId) { ++count; });
  return count;
}

std::vector<std::uint32_t> ComputeSupport(const Graph& graph) {
  std::vector<std::uint32_t> support(graph.num_edges(), 0);
  ForEachTriangle(graph,
                  [&](VertexId, VertexId, VertexId, EdgeId e_uv, EdgeId e_uw,
                      EdgeId e_vw) {
                    ++support[e_uv];
                    ++support[e_uw];
                    ++support[e_vw];
                  });
  return support;
}

std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph) {
  std::vector<std::uint64_t> count(graph.num_vertices(), 0);
  ForEachTriangle(graph, [&](VertexId u, VertexId v, VertexId w, EdgeId,
                             EdgeId, EdgeId) {
    ++count[u];
    ++count[v];
    ++count[w];
  });
  return count;
}

namespace {

// Shared skeleton of the support and per-vertex counting kernels: walk the
// triangles of [0, n) and bump `slots` counters, where `emit(u, v, w, e_uv,
// e_uw, e_vw, sink)` maps each triangle to the slots it increments. When
// every worker's mark array and private counter array fit the scratch
// budget, workers count privately and the arrays are merged in
// deterministic worker order; otherwise (huge graphs × many threads) one
// shared array of relaxed atomics bounds the counters at O(m), on as many
// workers as have room for their marks — both orders of commuting integer
// adds land on the same totals, so the result is bit-identical either way.
template <typename CounterT, typename EmitFn>
std::vector<CounterT> AccumulateOverTriangles(
    const internal::ForwardAdjacency& fwd, VertexId n, std::uint64_t slots,
    const ParallelConfig& config, std::uint64_t scratch_budget_bytes,
    EmitFn&& emit) {
  std::vector<CounterT> result(slots, 0);
  const std::uint64_t mark_bytes = std::uint64_t{n} * sizeof(EdgeId);
  const std::uint32_t num_chunks = EffectiveChunks(config, n);
  const std::uint32_t threads = std::max(1U, config.num_threads);
  const bool private_counters =
      threads > 1 &&
      internal::WorkersWithinBudget(threads,
                                    slots * sizeof(CounterT) + mark_bytes,
                                    scratch_budget_bytes) == threads;
  const std::uint32_t workers =
      private_counters ? threads
                       : internal::WorkersWithinBudget(threads, mark_bytes,
                                                       scratch_budget_bytes);
  if (workers == 1) {
    std::vector<EdgeId> mark(n, kInvalidEdge);
    internal::ForEachTriangleInRange(
        fwd, 0, n, mark,
        [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv, EdgeId e_uw,
            EdgeId e_vw) {
          emit(u, v, w, e_uv, e_uw, e_vw,
               [&](std::uint64_t slot) { ++result[slot]; });
        });
    return result;
  }

  if (private_counters) {
    // Private arrays, allocated lazily (workers that never run a chunk
    // stay empty) — no cross-core traffic on the hot O(ρ·m) loop.
    std::vector<std::vector<CounterT>> per_worker(workers);
    internal::ForTriangleChunks(
        n, num_chunks, workers,
        [&](std::uint32_t worker, std::uint32_t /*chunk*/, VertexId begin,
            VertexId end, std::span<EdgeId> mark) {
          std::vector<CounterT>& local = per_worker[worker];
          if (local.empty()) local.assign(slots, 0);
          internal::ForEachTriangleInRange(
              fwd, begin, end, mark,
              [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv,
                  EdgeId e_uw, EdgeId e_vw) {
                emit(u, v, w, e_uv, e_uw, e_vw,
                     [&](std::uint64_t slot) { ++local[slot]; });
              });
        });
    ParallelForChunksIndexed(
        slots, EffectiveChunks(config, slots), workers,
        [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
            std::uint64_t begin, std::uint64_t end) {
          for (const std::vector<CounterT>& local : per_worker) {
            if (local.empty()) continue;
            for (std::uint64_t s = begin; s < end; ++s) {
              result[s] += local[s];
            }
          }
        });
    return result;
  }

  // Shared-atomic fallback: O(slots) counter memory regardless of workers.
  std::unique_ptr<std::atomic<CounterT>[]> shared(
      new std::atomic<CounterT>[slots]);
  ParallelForChunksIndexed(
      slots, EffectiveChunks(config, slots), workers,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t s = begin; s < end; ++s) {
          shared[s].store(0, std::memory_order_relaxed);
        }
      });
  internal::ForTriangleChunks(
      n, num_chunks, workers,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/, VertexId begin,
          VertexId end, std::span<EdgeId> mark) {
        internal::ForEachTriangleInRange(
            fwd, begin, end, mark,
            [&](VertexId u, VertexId v, VertexId w, EdgeId e_uv, EdgeId e_uw,
                EdgeId e_vw) {
              emit(u, v, w, e_uv, e_uw, e_vw, [&](std::uint64_t slot) {
                shared[slot].fetch_add(1, std::memory_order_relaxed);
              });
            });
      });
  ParallelForChunksIndexed(
      slots, EffectiveChunks(config, slots), workers,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t s = begin; s < end; ++s) {
          result[s] = shared[s].load(std::memory_order_relaxed);
        }
      });
  return result;
}

}  // namespace

std::uint64_t CountTriangles(const Graph& graph,
                             const ParallelConfig& config) {
  if (config.num_threads <= 1) return CountTriangles(graph);
  const VertexId n = graph.num_vertices();
  const internal::ForwardAdjacency fwd(graph, config);
  const std::uint32_t workers = internal::WorkersWithinBudget(
      config.num_threads, std::uint64_t{n} * sizeof(EdgeId),
      internal::kCountingScratchBudgetBytes);
  std::vector<std::uint64_t> per_worker(workers, 0);
  internal::ForTriangleChunks(
      n, EffectiveChunks(config, n), workers,
      [&](std::uint32_t worker, std::uint32_t /*chunk*/, VertexId begin,
          VertexId end, std::span<EdgeId> mark) {
        std::uint64_t local = 0;
        internal::ForEachTriangleInRange(
            fwd, begin, end, mark,
            [&](VertexId, VertexId, VertexId, EdgeId, EdgeId, EdgeId) {
              ++local;
            });
        per_worker[worker] += local;
      });
  return std::accumulate(per_worker.begin(), per_worker.end(),
                         std::uint64_t{0});
}

std::vector<std::uint32_t> ComputeSupport(const Graph& graph,
                                          const ParallelConfig& config) {
  if (config.num_threads <= 1) return ComputeSupport(graph);
  const internal::ForwardAdjacency fwd(graph, config);
  return internal::SupportFromForward(fwd, graph.num_edges(), config);
}

std::vector<std::uint64_t> TrianglesPerVertex(const Graph& graph,
                                              const ParallelConfig& config) {
  if (config.num_threads <= 1) return TrianglesPerVertex(graph);
  const internal::ForwardAdjacency fwd(graph, config);
  return internal::TrianglesPerVertexFromForward(fwd, graph.num_vertices(),
                                                 config);
}

namespace internal {

std::vector<std::uint32_t> SupportFromForward(
    const ForwardAdjacency& fwd, EdgeId m, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes) {
  const VertexId n = static_cast<VertexId>(fwd.offsets.size() - 1);
  return AccumulateOverTriangles<std::uint32_t>(
      fwd, n, m, config, scratch_budget_bytes,
      [](VertexId, VertexId, VertexId, EdgeId e_uv, EdgeId e_uw, EdgeId e_vw,
         auto&& sink) {
        sink(e_uv);
        sink(e_uw);
        sink(e_vw);
      });
}

std::vector<std::uint64_t> TrianglesPerVertexFromForward(
    const ForwardAdjacency& fwd, VertexId n, const ParallelConfig& config,
    std::uint64_t scratch_budget_bytes) {
  return AccumulateOverTriangles<std::uint64_t>(
      fwd, n, n, config, scratch_budget_bytes,
      [](VertexId u, VertexId v, VertexId w, EdgeId, EdgeId, EdgeId,
         auto&& sink) {
        sink(u);
        sink(v);
        sink(w);
      });
}

}  // namespace internal

}  // namespace tsd
