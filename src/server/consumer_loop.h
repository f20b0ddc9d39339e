// The per-consumer serving machinery of ShardedServeLoop (one consumer per
// shard).
//
// A ConsumerLoop is one complete shard: its own wait-free Vyukov MPSC
// submission queue, its own QuerySession (all query scratch, touched only
// by its consumer thread), its own coalescing SearchBatch dispatch, its own
// admission state (per-tenant depth table + counters), and its own drain /
// shutdown protocol. The sharded loop routes tenants across S of these by
// hash; with S = 1 it is a single-consumer server. Keeping
// every piece of mutable state shard-local is what makes S-way serving a
// pure replication of the 1-way case — no cross-shard locks, no shared
// sessions, and the PR 4 contracts (deterministic admission, replies that
// are a pure function of each request, rejection paths that re-notify a
// parked consumer so Shutdown cannot deadlock) hold per shard by
// construction.
// Thread-safety annotations: the admission state (depth table + counters)
// is TSD_GUARDED_BY(mutex_) and touched by submitters and the consumer
// alike; the QuerySession is TSD_GUARDED_BY(consumer_thread_) — a
// ThreadRole capability, not a lock — because only the consumer thread may
// run batches on it. RunLoop() claims both roles once at thread entry (the
// std::thread spawn in Start() is the handoff), so a future Submit-path
// touch of the session is a Clang build error.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/future.h"
#include "common/hash.h"
#include "common/mpsc_queue.h"
#include "common/mutex.h"
#include "core/query_session.h"
#include "server/serve_types.h"
#include "server/tenant_table.h"

namespace tsd {
namespace internal {

class ConsumerLoop {
 public:
  /// `searcher` must outlive the loop and stay immutable while serving (the
  /// DiversitySearcher contract). The loop does not start serving until
  /// Start(); requests submitted before then queue up — and coalesce into
  /// the first batches — deterministically.
  ConsumerLoop(const DiversitySearcher& searcher, const ServeOptions& options);

  /// Shuts down (drains accepted requests) if still running.
  ~ConsumerLoop();

  ConsumerLoop(const ConsumerLoop&) = delete;
  ConsumerLoop& operator=(const ConsumerLoop&) = delete;

  /// Spawns the consumer thread. Idempotent.
  void Start();

  /// Submits a request; safe from any number of threads. `tenant_hash` must
  /// be Hash64(request.tenant) — the sharded loop passes the hash it
  /// already computed for routing, so the admission path never re-hashes.
  /// The future is always fulfilled: with the result, or with a rejection.
  Future<ServeReply> Submit(const ServeRequest& request,
                            std::uint64_t tenant_hash);
  Future<ServeReply> Submit(const ServeRequest& request) {
    return Submit(request, Hash64(request.tenant));
  }

  /// Stops admission (later Submits reject with kRejectedShutdown) without
  /// waiting for the drain. The sharded loop flips every shard before
  /// joining any, so shutdown rejections do not depend on shard index.
  void StopAccepting();

  /// Stops accepting, serves everything already accepted, joins the
  /// consumer thread. Idempotent.
  void Shutdown();

  /// Snapshot of this consumer's counters. Consistent totals are guaranteed
  /// after Shutdown(); mid-flight snapshots are approximate.
  ServeStats stats() const;

 private:
  struct Pending {
    ServeRequest request;
    std::uint64_t tenant_hash = 0;
    Promise<ServeReply> promise;
  };

  void RunLoop();
  void ServeBatch(std::vector<Pending>& batch) TSD_REQUIRES(consumer_thread_);
  Future<ServeReply> RejectNow(ServeStatus status);

  const DiversitySearcher& searcher_;
  const ServeOptions options_;
  /// The consumer thread's identity as a checkable capability: everything
  /// guarded by it is confined to the thread RunLoop() runs on.
  ThreadRole consumer_thread_;
  QuerySession session_ TSD_GUARDED_BY(consumer_thread_);

  MpscQueue<Pending> queue_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> queued_{0};  // accepted, not yet served
  std::thread consumer_;

  mutable Mutex mutex_;
  TenantDepthTable depth_ TSD_GUARDED_BY(mutex_);
  ServeStats stats_ TSD_GUARDED_BY(mutex_);
};

}  // namespace internal
}  // namespace tsd
