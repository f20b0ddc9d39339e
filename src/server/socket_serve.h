// Epoll-based socket transport over the serving layer: the network
// front-end of the "millions of users" story.
//
// One event-loop thread multiplexes every connection with epoll:
// non-blocking accept/read/write, length-prefixed binary frames
// (server/socket_proto.h), and a per-connection sequencing reorder buffer
// over the futures returned by ServeSubmitter::Submit — the same harvest
// pattern as the stdin driver, but poll-free: each future carries an
// OnReady hook that writes to an eventfd the loop sleeps on, so reply
// latency is bounded by a wakeup, not a poll interval. The transport is
// shard-count-agnostic: it drives the ServeSubmitter interface, so the same
// server runs over ShardedServeLoop at any shard count, and replies stay a
// pure function of their requests — a socket transcript is byte-identical to a
// stdin transcript for the same request stream (CI compares them).
//
// Isolation contracts:
//  * A slow reader stalls only itself. Each connection owns a bounded
//    outbound byte queue; when it fills (or too many replies are in
//    flight), the server pauses *reading that connection* — replies wait in
//    its reorder buffer and unread requests wait in the kernel, so TCP flow
//    control pushes back on the misbehaving client while every other
//    connection, and every shard consumer, proceeds untouched.
//  * Malformed input never kills the server. A bad length prefix or
//    undecodable frame yields one kErrorFrame (after any earlier replies,
//    order preserved) and a connection close; other connections keep
//    serving. The length prefix is never trusted for allocation.
//  * Shutdown drains. Shutdown() (or a remote kShutdownFrame) stops
//    accepting, stops reading, answers everything already submitted,
//    flushes, then closes — composing with ShardedServeLoop::Shutdown,
//    which drains whatever the transport admitted. A reader that never
//    drains its socket is force-closed after drain_timeout_ms.
//
// Observability is first-class: p50/p99/p999 submit-to-harvest latency
// histograms (common/histogram.h), per-tenant query counters, and
// transport counters, rendered through common/table.h and served to any
// client as a kStatsFrame reply (`tsdtool client --stats`).
//
// Thread-safety annotations: the per-connection state (connection table,
// drain state, the listen/epoll descriptors) is confined to the event-loop
// thread and TSD_GUARDED_BY(event_loop_role_) — a ThreadRole capability,
// not a lock; EventLoop() claims it at thread entry, and Start() claims it
// on the caller's thread for the setup that happens strictly before the
// spawn (the std::thread construction is the handoff). Only the counters
// crossed by consumer threads (stats_, tenants_) take a real lock
// (stats_mutex_). The eventfd poked from consumer-thread OnReady hooks is
// owned via shared_ptr precisely because those hooks outrun confinement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "server/socket_proto.h"

namespace tsd {

class LiveUpdateApplier;

namespace internal {
class EventFdWaker;
struct SocketConnection;
}  // namespace internal

struct SocketServerOptions {
  /// IPv4 address to bind. Loopback by default: the load generators and CI
  /// run on one box; bind 0.0.0.0 explicitly to serve remote clients.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for a free one (read it back via port()).
  std::uint16_t port = 0;
  std::uint32_t listen_backlog = 128;
  /// Inbound frame-payload cap; larger length prefixes are protocol errors.
  std::size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Per-connection outbound-queue bound: above this many buffered reply
  /// bytes the connection's reads pause until the client drains.
  std::size_t max_outbound_bytes = 1u << 20;
  /// Per-connection cap on replies awaiting harvest+flush; the second half
  /// of the backpressure bound (requests admitted but not yet delivered).
  std::size_t max_pending_replies = 4096;
  /// Grace period for flushing outstanding replies at shutdown before
  /// still-unflushed connections are force-closed.
  std::uint32_t drain_timeout_ms = 5000;
  /// Honor kShutdownFrame from clients (CI and the CLI use it; a real
  /// deployment would gate it on an admin socket instead).
  bool enable_remote_shutdown = true;
  /// Extra text appended to the stats-endpoint reply (tsdtool wires the
  /// per-shard ServeStats table through this).
  std::function<std::string()> extra_stats;
  /// Live-update sink for kUpdateFrame, or null to acknowledge updates as
  /// unsupported. Updates are applied on the event-loop thread under a
  /// per-connection ordering barrier: an update waits until every earlier
  /// request on its connection has been answered, and later frames on that
  /// connection are not even parsed until the update is applied — so a
  /// single-client transcript with interleaved updates is deterministic and
  /// byte-identical to the stdin transport's. (Requests from *other*
  /// connections are not ordered against the update; concurrent queries
  /// stay safe via the dynamic index's epoch protection, they just observe
  /// the update at an unspecified per-vertex boundary.) Must outlive the
  /// server.
  LiveUpdateApplier* updater = nullptr;
};

/// Snapshot of the transport's counters and latency distribution.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t queries = 0;
  std::uint64_t updates = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Times a connection's reads were paused by the outbound bound.
  std::uint64_t backpressure_pauses = 0;
  /// Largest outbound queue any connection ever held (must stay under
  /// max_outbound_bytes plus one frame — the backpressure tests assert it).
  std::uint64_t outbound_high_water = 0;
  /// Submit-to-harvest latency in nanoseconds per served query.
  LatencyHistogram latency_ns;
  /// Queries per tenant, ascending tenant id (first kMaxTrackedTenants
  /// distinct tenants; the rest aggregate into untracked_tenant_queries so
  /// client-controlled ids cannot grow server memory without bound).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tenant_queries;
  std::uint64_t untracked_tenant_queries = 0;
};

class SocketServer {
 public:
  /// Tenants tracked individually in the per-tenant counters.
  static constexpr std::size_t kMaxTrackedTenants = 1024;

  /// `loop` must outlive the server. The server Start()s the loop itself
  /// and submits every decoded query to it; shut the *server* down first
  /// (it drains against a live loop), then the loop.
  SocketServer(ServeSubmitter& loop, SocketServerOptions options = {});

  /// Shuts down (drains) if still running.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the event-loop thread. Idempotent. Throws
  /// CheckError when the bind/listen fails (e.g. port in use).
  void Start();

  /// The bound TCP port (useful with options.port = 0). Start() first.
  std::uint16_t port() const;

  /// Graceful drain: stop accepting and reading, answer and flush
  /// everything already submitted (force-closing unflushable connections
  /// after drain_timeout_ms), join the event loop. Idempotent; safe from
  /// any thread; implied by the destructor.
  void Shutdown();

  /// Blocks until the event loop exits — either Shutdown() or a client's
  /// kShutdownFrame (`tsdtool serve --listen` parks here).
  void WaitUntilShutdown();

  /// Snapshot of the transport stats. Consistent after Shutdown();
  /// mid-flight snapshots are approximate.
  SocketServerStats stats() const;

  /// The stats endpoint's reply: counters, latency quantiles, per-tenant
  /// counts rendered via common/table.h, plus options.extra_stats().
  std::string RenderStatsTables() const;

 private:
  using Clock = std::chrono::steady_clock;
  using Connection = internal::SocketConnection;

  void EventLoop();
  void BeginDrain() TSD_REQUIRES(event_loop_role_);
  void AcceptConnections() TSD_REQUIRES(event_loop_role_);
  void ReadFromConnection(Connection& c) TSD_REQUIRES(event_loop_role_);
  void ParseFrames(Connection& c) TSD_REQUIRES(event_loop_role_);
  void DispatchFrame(Connection& c, const char* payload, std::size_t size)
      TSD_REQUIRES(event_loop_role_);
  UpdateAckOutcome ApplyUpdate(bool insert, std::uint64_t u, std::uint64_t v)
      TSD_REQUIRES(event_loop_role_);
  void ProtocolError(Connection& c, const std::string& message)
      TSD_REQUIRES(event_loop_role_);
  bool HarvestConnection(Connection& c) TSD_REQUIRES(event_loop_role_);
  bool FlushConnection(Connection& c) TSD_REQUIRES(event_loop_role_);
  void AppendOutbound(Connection& c, std::string frame)
      TSD_REQUIRES(event_loop_role_);
  void MaybeResumeReading(Connection& c) TSD_REQUIRES(event_loop_role_);
  void UpdateInterest(Connection& c) TSD_REQUIRES(event_loop_role_);
  void CloseConnection(int fd) TSD_REQUIRES(event_loop_role_);
  bool OverInboundLimit(const Connection& c) const;

  ServeSubmitter& loop_;
  const SocketServerOptions options_;

  /// The event-loop thread's identity as a checkable capability: the
  /// connection table, drain state, and the two descriptors below are
  /// confined to it (Start() holds it briefly before the spawn handoff).
  ThreadRole event_loop_role_;

  int listen_fd_ TSD_GUARDED_BY(event_loop_role_) = -1;
  int epoll_fd_ TSD_GUARDED_BY(event_loop_role_) = -1;
  /// Written once in Start() strictly before the started_ release-store;
  /// port() readers synchronize through that acquire-load, not a lock.
  std::uint16_t bound_port_ = 0;
  /// Owns the eventfd; shared with every registered OnReady hook so a hook
  /// firing after the server died still writes to a live descriptor.
  std::shared_ptr<internal::EventFdWaker> waker_;

  std::thread event_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_requested_{false};
  Mutex lifecycle_mutex_;  // serializes Shutdown() joiners
  Mutex exit_mutex_;
  CondVar exit_cv_;
  bool loop_exited_ TSD_GUARDED_BY(exit_mutex_) = false;

  // Event-loop state (touched only by the event thread after Start()).
  std::unordered_map<int, std::unique_ptr<Connection>> connections_
      TSD_GUARDED_BY(event_loop_role_);
  bool draining_ TSD_GUARDED_BY(event_loop_role_) = false;
  Clock::time_point drain_deadline_ TSD_GUARDED_BY(event_loop_role_){};

  mutable Mutex stats_mutex_;
  SocketServerStats stats_ TSD_GUARDED_BY(stats_mutex_);
  std::map<std::uint64_t, std::uint64_t> tenants_  // ascending for render
      TSD_GUARDED_BY(stats_mutex_);
};

}  // namespace tsd
