// Sharded multi-consumer serving loop: inter-batch parallelism for
// workloads with many tiny queries.
//
// A single consumer dispatches one coalesced batch at a time — intra-batch
// parallelism comes from the session's pipeline threads, but the dispatch
// itself is serial. ShardedServeLoop replicates the consumer
// machinery S ways: each shard is a complete internal::ConsumerLoop (its
// own wait-free MPSC queue, its own QuerySession, its own coalescing
// SearchBatch dispatch, its own admission state) over the one shared
// immutable searcher, and S consumer threads dispatch S batches
// concurrently.
//
// Routing is by tenant: Submit sends a request to shard
// (Hash64(tenant) >> 32) % num_shards. The hash is the stateless
// splittable mixer from common/hash.h, so the assignment is a pure
// function of (tenant, num_shards) — stable across runs, platforms, client
// thread counts, and submission interleavings. Pinning a tenant to exactly one shard buys
// three properties the PR 4 contracts need:
//
//  * per-tenant admission stays deterministic — the tenant's depth counter
//    lives in its shard alone, tracked shard-locally with the hash the
//    router already computed;
//  * per-tenant submission order is preserved — one tenant's requests flow
//    through one MPSC queue (per-producer FIFO) to one consumer, which
//    fulfills them in pop order;
//  * shard-local batching still amortizes — a tenant's mixed (k, r) stream
//    coalesces with its shard's other tenants into multi-k SearchBatch
//    calls exactly as in the 1-consumer case.
//
// Replies remain a pure function of each request, independent of shard
// count and batch shape (SearchBatch is bit-identical to per-query TopR),
// so the stdin-proto transcript is byte-identical across --shards=1/2/4 —
// CI asserts exactly that. Shutdown stops admission on every shard first,
// then drains and joins them one by one; the rejection paths re-notify
// parked consumers per shard, so the PR 4 rejection-path deadlock cannot
// regress in any shard.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "server/consumer_loop.h"
#include "server/serve_types.h"

namespace tsd {

struct ShardedServeOptions {
  /// Number of independent consumer loops (>= 1). One consumer thread per
  /// shard; tenants are hashed across them.
  std::uint32_t num_shards = 1;
  /// Per-shard serving options (admission caps, coalescing cap, pipeline
  /// knobs of each shard's session).
  ServeOptions shard;
};

class ShardedServeLoop : public ServeSubmitter {
 public:
  /// `searcher` must outlive the loop and stay immutable while serving. All
  /// shards serve the one shared searcher; only sessions are per-shard.
  explicit ShardedServeLoop(const DiversitySearcher& searcher,
                            const ShardedServeOptions& options = {});

  /// Shuts down (drains all shards) if still running.
  ~ShardedServeLoop();

  ShardedServeLoop(const ShardedServeLoop&) = delete;
  ShardedServeLoop& operator=(const ShardedServeLoop&) = delete;

  /// Spawns all shard consumer threads. Idempotent.
  void Start() override;

  /// Routes the request to ShardOf(request.tenant) and submits it there;
  /// safe from any number of threads. The future is always fulfilled.
  Future<ServeReply> Submit(const ServeRequest& request) override;

  /// Stops accepting on every shard, then drains and joins them all.
  /// Idempotent; implied by the destructor.
  void Shutdown();

  /// The shard `tenant` is pinned to: (Hash64(tenant) >> 32) % num_shards.
  /// Pure and deterministic; exposed so tests and operators can audit
  /// placement — Submit routes through the same ShardIndex helper, so the
  /// audited and actual assignments cannot drift.
  std::uint32_t ShardOf(std::uint64_t tenant) const {
    return ShardIndex(Hash64(tenant));
  }

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Totals summed over all shards (accepted/rejected/failed/served/batches
  /// and the element-wise batch-size histogram). Consistent after
  /// Shutdown(); mid-flight snapshots are approximate.
  ServeStats stats() const;

  /// One shard's counters (shard < num_shards()).
  ServeStats shard_stats(std::uint32_t shard) const;

 private:
  /// Routing from a precomputed Hash64(tenant): the high half selects the
  /// shard so the low half stays uniform for the shard's depth-table
  /// buckets — routing on the same low bits would make every tenant of
  /// shard s satisfy hash ≡ s (mod S), leaving only every S-th table
  /// bucket reachable as a home slot at power-of-two shard counts.
  std::uint32_t ShardIndex(std::uint64_t hash) const {
    return static_cast<std::uint32_t>((hash >> 32) % shards_.size());
  }

  // unique_ptr because ConsumerLoop is immovable (it owns a thread, a
  // mutex, and an intrusive queue). shards_ itself is written only by the
  // constructor and needs no capability; each shard's mutable state is
  // guarded inside ConsumerLoop (its admission Mutex and consumer-thread
  // ThreadRole), which is where the -Wthread-safety build checks it.
  std::vector<std::unique_ptr<internal::ConsumerLoop>> shards_;
};

}  // namespace tsd
