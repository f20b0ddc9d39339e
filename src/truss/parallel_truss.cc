#include "truss/parallel_truss.h"

#include <algorithm>
#include <numeric>

#include "truss/peeling.h"

namespace tsd {
namespace internal {
namespace {

// Frontiers below this many edges per worker are scattered inline: a
// sub-round spawns (and joins) its worker threads, and on a deep, narrow
// peel — many sub-rounds of a handful of edges — the thread churn would
// cost more than the decrements it distributes.
constexpr std::uint64_t kMinFrontierPerWorker = 512;

}  // namespace

FrontierScatter::FrontierScatter(EdgeId num_edges, std::uint32_t num_threads)
    : lost_(new std::atomic<std::uint32_t>[num_edges]),
      touched_(num_threads) {
  for (EdgeId e = 0; e < num_edges; ++e) {
    lost_[e].store(0, std::memory_order_relaxed);
  }
}

void FrontierScatter::Scatter(const Graph& graph,
                              std::span<const EdgeId> frontier,
                              std::span<const std::uint8_t> state,
                              const ParallelConfig& config) {
  // state[] is read-only here (transitions happen strictly between
  // sub-rounds) and losses go through the atomic array, so workers never
  // race.
  auto scatter = [&](std::uint32_t worker, std::uint64_t begin,
                     std::uint64_t end) {
    std::vector<EdgeId>& local_touched = touched_[worker];
    for (std::uint64_t i = begin; i < end; ++i) {
      const EdgeId e = frontier[i];
      const auto [u0, v0] = graph.edge(e);
      // Scan the smaller adjacency; binary-search the larger.
      VertexId u = u0;
      VertexId v = v0;
      if (graph.degree(u) > graph.degree(v)) std::swap(u, v);
      const auto u_nbrs = graph.neighbors(u);
      const auto u_eids = graph.incident_edges(u);
      const auto v_nbrs = graph.neighbors(v);
      const auto v_eids = graph.incident_edges(v);
      for (std::size_t j = 0; j < u_nbrs.size(); ++j) {
        const VertexId w = u_nbrs[j];
        if (w == v) continue;
        const EdgeId e_uw = u_eids[j];
        if (state[e_uw] == kRemoved) continue;
        const auto it = std::lower_bound(v_nbrs.begin(), v_nbrs.end(), w);
        if (it == v_nbrs.end() || *it != w) continue;
        const EdgeId e_vw = v_eids[it - v_nbrs.begin()];
        if (state[e_vw] == kRemoved) continue;
        // Triangle (u, v, w) is alive and loses edge e. Let the smallest
        // frontier edge of the triangle apply the loss.
        if (state[e_uw] == kFrontier && e_uw < e) continue;
        if (state[e_vw] == kFrontier && e_vw < e) continue;
        if (state[e_uw] == kAlive) {
          lost_[e_uw].fetch_add(1, std::memory_order_relaxed);
          local_touched.push_back(e_uw);
        }
        if (state[e_vw] == kAlive) {
          lost_[e_vw].fetch_add(1, std::memory_order_relaxed);
          local_touched.push_back(e_vw);
        }
      }
    }
  };
  if (frontier.size() < kMinFrontierPerWorker * config.num_threads) {
    scatter(0, 0, frontier.size());
  } else {
    ParallelForChunksIndexed(
        frontier.size(), EffectiveChunks(config, frontier.size()),
        config.num_threads,
        [&](std::uint32_t worker, std::uint32_t /*chunk*/,
            std::uint64_t begin, std::uint64_t end) {
          scatter(worker, begin, end);
        });
  }
}

}  // namespace internal

std::vector<std::uint32_t> TrussnessFromSupport(
    const Graph& graph, std::vector<std::uint32_t> support,
    const ParallelConfig& config) {
  using internal::kAlive;
  using internal::kFrontier;
  using internal::kRemoved;
  const EdgeId m = graph.num_edges();
  TSD_CHECK(support.size() == m);
  if (config.num_threads <= 1) {
    CsrView<std::uint64_t> view;
    view.num_vertices = graph.num_vertices();
    view.edges = graph.edges();
    view.offsets = graph.offsets();
    view.adj = graph.adjacency();
    view.adj_edge_ids = graph.adjacency_edge_ids();
    return PeelSupportToTrussness(view, std::move(support));
  }

  std::vector<std::uint32_t> trussness(m, 2);
  if (m == 0) return trussness;

  std::vector<std::uint8_t> state(m, kAlive);
  std::vector<EdgeId> alive(m);
  std::iota(alive.begin(), alive.end(), EdgeId{0});
  std::vector<EdgeId> frontier;
  std::vector<EdgeId> next_frontier;
  internal::FrontierScatter scatter(m, config.num_threads);

  std::uint32_t level = 0;  // current peeling level in support space (k-2)
  while (!alive.empty()) {
    // Compact the alive list, advance the level to the minimum surviving
    // support, and collect the level's initial frontier.
    std::size_t out = 0;
    std::uint32_t min_support = UINT32_MAX;
    for (const EdgeId e : alive) {
      if (state[e] != kAlive) continue;
      alive[out++] = e;
      min_support = std::min(min_support, support[e]);
    }
    alive.resize(out);
    if (out == 0) break;
    level = std::max(level, min_support);
    frontier.clear();
    for (const EdgeId e : alive) {
      if (support[e] <= level) frontier.push_back(e);
    }

    while (!frontier.empty()) {
      for (const EdgeId e : frontier) state[e] = kFrontier;
      scatter.Scatter(graph, frontier, state, config);

      // Apply phase (single-threaded): retire the frontier at this level,
      // fold the losses into the supports (clamped at the level, exactly
      // like DecreaseKeyClamped), and collect the edges that reached the
      // level as the next sub-round's frontier.
      for (const EdgeId e : frontier) {
        state[e] = kRemoved;
        trussness[e] = level + 2;
      }
      next_frontier.clear();
      scatter.Drain([&](EdgeId e, std::uint32_t lost) {
        const std::uint32_t room = support[e] - level;  // support > level
        if (lost >= room) {
          support[e] = level;
          next_frontier.push_back(e);
        } else {
          support[e] -= lost;
        }
      });
      frontier.swap(next_frontier);
    }
  }
  return trussness;
}

}  // namespace tsd
