// Minimal chunked parallel-for used by the parallel index builders and the
// QueryPipeline.
//
// Per-vertex ego-truss work is embarrassingly parallel (every ego-network
// is independent), so callers split the vertex range into ordered chunks,
// process chunks from a shared atomic cursor (cheap dynamic load balancing
// — hub vertices cluster at low ids in preferential-attachment graphs), and
// merge per-chunk or per-worker results in deterministic order to keep the
// output bit-identical to the sequential run.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace tsd {

/// Algorithm tag for the pluggable truss-decomposition kernels implemented
/// by truss/truss_plan.h. It lives here — not in truss/ — so ParallelConfig
/// (and core's QueryOptions mirror) can carry the selection down through
/// the preprocessing layers without a common/ → truss/ dependency; common/
/// treats it as an opaque tag and never interprets it.
enum class TrussPlanAlgorithm : std::uint8_t {
  /// Statistics-driven choice (one cheap pass over the degree sequence;
  /// see TrussPlan::Auto in truss/truss_plan.h).
  kAuto = 0,
  /// Frontier-parallel bulk-synchronous peel — the reference plan.
  kBsp,
  /// k-core prefilter first; edges whose Burkhardt core-number bound can
  /// never reach the requested trussness are pruned before any triangle
  /// counting.
  kCoreThenTruss,
};

/// Thread/chunk knobs for the parallel kernels that run outside the query
/// pipeline (triangle counting, global truss decomposition, index
/// construction). Mirrors core's QueryOptions{num_threads, num_chunks} so
/// searchers can forward their knobs to the preprocessing layers below
/// without a core/ dependency.
struct ParallelConfig {
  /// Worker threads. 1 selects the sequential code paths.
  std::uint32_t num_threads = 1;
  /// Chunks the work range is split into (0 = auto: one chunk when
  /// sequential, 8 per thread otherwise, matching the index builders and
  /// the query pipeline).
  std::uint32_t num_chunks = 0;
  /// Which truss-decomposition kernel the preprocessing stages should run
  /// (every plan is bit-identical on trussness; this is a performance knob).
  TrussPlanAlgorithm truss_plan = TrussPlanAlgorithm::kAuto;

  bool operator==(const ParallelConfig&) const = default;
};

/// Resolves a ParallelConfig's chunk count against a concrete work size
/// (auto default, clamped to `total`, never 0).
inline std::uint32_t EffectiveChunks(const ParallelConfig& config,
                                     std::uint64_t total) {
  std::uint32_t chunks = config.num_chunks;
  if (chunks == 0) {
    chunks = config.num_threads == 1 ? 1 : config.num_threads * 8;
  }
  if (total > 0 && chunks > total) {
    chunks = static_cast<std::uint32_t>(total);
  }
  return std::max(1U, chunks);
}

/// Invokes fn(worker_index, chunk_index, begin, end) for `num_chunks`
/// contiguous ranges covering [0, total), using `num_threads` workers.
/// worker_index identifies the executing worker in [0, num_threads), which
/// lets callers keep one reusable workspace per worker instead of one per
/// chunk. fn must be safe to call concurrently for distinct chunks.
/// Exceptions from workers are rethrown on the calling thread (first one
/// wins).
template <typename Fn>
void ParallelForChunksIndexed(std::uint64_t total, std::uint32_t num_chunks,
                              std::uint32_t num_threads, Fn&& fn) {
  TSD_CHECK(num_chunks >= 1);
  TSD_CHECK(num_threads >= 1);
  if (total == 0) return;
  num_chunks = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(num_chunks, total));
  const std::uint64_t chunk_size = (total + num_chunks - 1) / num_chunks;

  if (num_threads == 1) {
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t begin = c * chunk_size;
      const std::uint64_t end = std::min(total, begin + chunk_size);
      if (begin < end) fn(0U, c, begin, end);
    }
    return;
  }

  std::atomic<std::uint32_t> next_chunk{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&](std::uint32_t worker_index) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::uint32_t c =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const std::uint64_t begin = c * chunk_size;
      const std::uint64_t end = std::min(total, begin + chunk_size);
      if (begin >= end) continue;
      try {
        fn(worker_index, c, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back(worker, t);
  }
  for (auto& thread : threads) thread.join();
  if (failed && first_error) std::rethrow_exception(first_error);
}

/// Chunk-only variant (no worker index); kept for callers whose state is
/// per-chunk rather than per-worker.
template <typename Fn>
void ParallelForChunks(std::uint64_t total, std::uint32_t num_chunks,
                       std::uint32_t num_threads, Fn&& fn) {
  ParallelForChunksIndexed(
      total, num_chunks, num_threads,
      [&fn](std::uint32_t /*worker*/, std::uint32_t chunk, std::uint64_t begin,
            std::uint64_t end) { fn(chunk, begin, end); });
}

}  // namespace tsd
