#include "truss/support.h"

#include "common/bitmap.h"
#include "graph/triangle.h"

namespace tsd {
namespace internal {

std::vector<std::uint32_t> SupportViaBitmaps(const Graph& graph,
                                             const ParallelConfig& config) {
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  std::vector<std::uint32_t> support(m, 0);
  if (m == 0) return support;

  // Adjacency bitmaps; each worker fills only its own vertices' rows, so
  // writes are disjoint and the result is independent of scheduling.
  std::vector<Bitmap> bits(n);
  ParallelForChunksIndexed(
      n, EffectiveChunks(config, n), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
          bits[v].Resize(n);
          for (const VertexId w : graph.neighbors(v)) bits[v].Set(w);
        }
      });

  // support(u, v) = |N(u) AND N(v)| — disjoint per-edge writes.
  ParallelForChunksIndexed(
      m, EffectiveChunks(config, m), config.num_threads,
      [&](std::uint32_t /*worker*/, std::uint32_t /*chunk*/,
          std::uint64_t begin, std::uint64_t end) {
        for (EdgeId e = static_cast<EdgeId>(begin); e < end; ++e) {
          const auto [u, v] = graph.edge(e);
          support[e] = static_cast<std::uint32_t>(bits[u].AndPopcount(bits[v]));
        }
      });
  return support;
}

std::vector<std::uint32_t> PeelSupport(const Graph& graph,
                                       const ParallelConfig& config,
                                       bool* bitmap_kernel) {
  *bitmap_kernel = BitmapSupportEligible(graph.num_vertices(),
                                         graph.num_edges(), kBitmapBudgetBytes,
                                         kGlobalBitmapDensityShift);
  return *bitmap_kernel ? SupportViaBitmaps(graph, config)
                        : ComputeSupport(graph, config);
}

}  // namespace internal
}  // namespace tsd
