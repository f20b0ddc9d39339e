// Line-oriented request/response protocol over a serving loop, so scripts
// and CI can drive the server through pipes (`tsdtool serve --stdin-proto`).
//
// Requests, one per line:
//   q <tenant> <k> <r>     submit a top-r query for a tenant
//   +<u> <v>               insert edge {u, v} into the live index
//   -<u> <v>               remove edge {u, v} from the live index
//   flush                  print replies for all outstanding requests,
//                          in submission order
//   # ...                  comment (skipped); blank lines are skipped too
// EOF implies a final flush.
//
// Responses, written to `out` at flush time:
//   = <id> ok entries=<n>  followed by n lines "<rank> <vertex> <score>"
//   = <id> rejected:<why>  (r-limit, queue-depth, bad-query, shutdown)
//   = <id> applied         update changed the graph
//   = <id> noop            update was a no-op (dup insert, absent remove,
//                          out-of-range or equal ids)
//   = <id> update-unsupported   server has no live (dynamic) index
// Ids are 1-based submission order; updates consume ids from the same
// counter as queries.
//
// The driver runs over the ServeSubmitter interface, so the same transcript
// machinery serves ShardedServeLoop at any shard count. With several
// shards, replies *complete* out of submission order (each shard drains
// its own queue at its own pace); a sequencing reorder
// buffer over the futures restores emission order: replies are harvested
// from whichever shard finishes first but always printed in ascending
// submission id. Since each reply is bit-identical to a serial TopR of the
// same request, the transcript is byte-stable across shard counts, server
// pipeline thread counts, and coalescing patterns (CI compares
// --shards=1/2/4 x --threads=1/8 byte for byte). Malformed lines yield a
// deterministic "! parse-error line <n>" response line and are otherwise
// skipped.
//
// Update ordering: an update line is applied only after the replies of all
// previously submitted queries are ready (they were answered against the
// pre-update index), and queries on later lines are submitted only after
// the update returns (they see the post-update index). That update barrier
// is what keeps transcripts with interleaved update lines deterministic —
// and byte-stable across shard/thread counts — even though the underlying
// DynamicTsdIndex allows queries to run concurrently with updates.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "server/serve_types.h"

namespace tsd {

class LiveUpdateApplier;

struct StdinProtoStats {
  std::uint64_t requests = 0;
  std::uint64_t updates = 0;
  std::uint64_t parse_errors = 0;
};

/// Classification of one request line of the text protocol.
enum class ProtoLineKind {
  kSkip,    // blank line or '#' comment
  kQuery,   // "q <tenant> <k> <r>" — *request is filled in
  kUpdate,  // "+<u> <v>" / "-<u> <v>" — *update is filled in
  kFlush,   // "flush"
  kError,   // anything else (emit "! parse-error line <n>")
};

/// One parsed "+u v" / "-u v" update line. Ids are untrusted u64s; range
/// checking is the applier's job (out-of-range ids are noops, not errors).
struct ProtoUpdate {
  bool insert = true;
  std::uint64_t u = 0;
  std::uint64_t v = 0;
};

/// Parses one line of the text protocol. Shared by the stdin driver and the
/// socket client's script driver (tools/tsdtool client), so both transports
/// accept and reject exactly the same request streams — a prerequisite for
/// the byte-identical-transcript contract CI enforces. When `update` is
/// null, update lines classify as kError.
ProtoLineKind ParseProtoLine(const std::string& line, ServeRequest* request,
                             ProtoUpdate* update = nullptr);

/// One (vertex, score) row of a reply, decoupled from TopREntry so decoded
/// wire replies and in-process ServeReplies render through one function.
struct TranscriptEntry {
  std::uint64_t vertex = 0;
  std::uint64_t score = 0;
};

/// Renders one reply in the canonical transcript format — the exact bytes
/// both transports must produce:
///   = <id> ok entries=<n>    then n lines "<rank> <vertex> <score>"
///   = <id> <status-name>     for rejections and internal errors
void AppendReplyTranscript(std::ostream& out, std::uint64_t id,
                           ServeStatus status,
                           const std::vector<TranscriptEntry>& entries);

/// ServeReply flavor of the renderer (used by the stdin driver).
void AppendReplyTranscript(std::ostream& out, std::uint64_t id,
                           const ServeReply& reply);

/// Reads requests from `in` until EOF, submitting to `loop` (which must be
/// Start()ed by the caller or by an earlier flush — RunStdinProto starts it
/// on first submit), and writes the response transcript to `out`. Returns
/// driver-side stats; serving stats come from loop.stats().
///
/// `updater`, when non-null, handles "+u v" / "-u v" lines under the
/// update-ordering barrier documented above; when null, update lines are
/// acknowledged as "update-unsupported" (still consuming an id).
StdinProtoStats RunStdinProto(std::istream& in, std::ostream& out,
                              ServeSubmitter& loop,
                              LiveUpdateApplier* updater = nullptr);

}  // namespace tsd
