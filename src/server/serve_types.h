// Shared request/reply/option/stat types of the serving layer, plus the
// ServeSubmitter interface the protocol front-ends are written against.
//
// ShardedServeLoop speaks exactly this vocabulary at every shard count,
// which is what lets one stdin-proto driver (and one CI byte-identity
// harness) run over any of them: a reply is a pure function of its
// request, so the shard count that produced it is invisible in the bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/future.h"
#include "core/types.h"

namespace tsd {

/// One query from one tenant.
struct ServeRequest {
  std::uint64_t tenant = 0;
  std::uint32_t k = 2;
  std::uint32_t r = 10;
};

enum class ServeStatus : std::uint8_t {
  kOk = 0,
  kRejectedBadQuery,    // k < 2 or r < 1
  kRejectedRLimit,      // r exceeds ServeOptions::max_r
  kRejectedQueueDepth,  // tenant already has max_queue_depth in flight
  kRejectedShutdown,    // submitted after Shutdown()
  kInternalError,       // the batch's SearchBatch threw; server kept running
};

/// Human-readable status tag ("ok", "rejected:r-limit", ...) used by the
/// line protocol and logs.
const char* ServeStatusName(ServeStatus status);

struct ServeReply {
  ServeStatus status = ServeStatus::kOk;
  TopRResult result;  // populated only when status == kOk
};

struct ServeOptions {
  /// Per-request r cap (protects the context-materialization phase from a
  /// single tenant asking for the whole graph).
  std::uint32_t max_r = 1024;
  /// Per-tenant in-flight request cap.
  std::uint32_t max_queue_depth = 1024;
  /// Coalescing cap: at most this many requests form one SearchBatch.
  std::uint32_t max_batch = 64;
  /// Pipeline knobs for each serving session (the "server threads").
  QueryOptions query_options;
};

struct ServeStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected_bad_query = 0;
  std::uint64_t rejected_r_limit = 0;
  std::uint64_t rejected_queue_depth = 0;
  std::uint64_t rejected_shutdown = 0;
  /// Requests whose batch threw (fulfilled with kInternalError).
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  /// batch_size_count[s] = number of dispatched batches that coalesced
  /// exactly s requests (index 0 unused).
  std::vector<std::uint64_t> batch_size_count;

  /// Element-wise accumulation (used to sum per-shard stats into totals).
  ServeStats& operator+=(const ServeStats& other);
};

/// The submission surface of ShardedServeLoop. The stdin protocol and the
/// socket transport drive this interface, so transports are written once
/// and run at any shard count.
class ServeSubmitter {
 public:
  virtual ~ServeSubmitter();

  /// Spawns the consumer thread(s). Idempotent.
  virtual void Start() = 0;

  /// Submits a request; safe from any number of threads. The future is
  /// always fulfilled: with the result, or with a rejection status.
  virtual Future<ServeReply> Submit(const ServeRequest& request) = 0;
};

}  // namespace tsd
