#include "truss/core_decomposition.h"

#include <algorithm>

#include "common/bucket_queue.h"

namespace tsd {

std::vector<std::uint32_t> CoreNumbersCsr(
    std::size_t num_vertices, std::span<const std::uint32_t> offsets,
    std::span<const VertexId> adj) {
  std::vector<std::uint32_t> degrees(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    degrees[v] = offsets[v + 1] - offsets[v];
  }
  std::vector<std::uint32_t> core(num_vertices, 0);
  if (num_vertices == 0) return core;

  BucketQueue queue(degrees);
  std::uint32_t level = 0;
  while (!queue.Empty()) {
    const VertexId v = static_cast<VertexId>(queue.PopMin());
    level = std::max(level, queue.Key(v));
    core[v] = level;
    for (std::uint32_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId u = adj[i];
      if (!queue.Removed(u)) queue.DecreaseKeyClamped(u, level);
    }
  }
  return core;
}

}  // namespace tsd
