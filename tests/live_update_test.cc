// Live-update battery for the epoch-versioned dynamic index and its
// serving-layer plumbing. Four layers of the tentpole contract:
//
//  * Protocol units — "+u v" / "-u v" parse into ProtoUpdate through the
//    shared ParseProtoLine; malformed update lines (and update lines handed
//    to a parser with no update sink) classify as errors, never crash.
//  * Raw concurrency — reader threads run Score / ScoreWithContexts / TopR
//    / SearchBatch against a DynamicTsdIndex with NO external locking while
//    an updater thread streams randomized edge churn through
//    LiveUpdateApplier. After the updater quiesces, every score, TopR and
//    SearchBatch reply must be bit-identical to a from-scratch
//    TsdIndex::Build of the final graph. This is the
//    sanitizer target: under TSan a reclamation or publication bug is a
//    reported race, not a lucky pass.
//  * Transport determinism — one text script with interleaved update lines
//    produces byte-identical transcripts across ShardedServeLoop shard
//    counts {1, 2, 4} x pipeline threads {1, 8}, and the socket transport
//    reproduces the stdin bytes exactly (options.updater wired, same
//    script). Each run gets a FRESH index: updates mutate state, so
//    byte-stability across configurations is only meaningful from equal
//    starting points.
//  * The dynamic<->snapshot seam — randomized updates, then Freeze() ->
//    Save -> Load (and the zero-copy mmap LoadFromSnapshot path); the
//    frozen, reloaded, and mmapped indexes answer TopR and SearchBatch
//    bit-identically to the live index at 1/2/8 query threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "core/dynamic_tsd_index.h"
#include "core/query_scratch.h"
#include "core/query_session.h"
#include "core/tsd_index.h"
#include "graph/generators.h"
#include "serve_test_util.h"
#include "server/live_index.h"
#include "server/sharded_serve.h"
#include "server/socket_proto.h"
#include "server/socket_serve.h"
#include "server/stdin_proto.h"

namespace tsd {
namespace {

using test::ExpectSameEntries;

constexpr std::uint32_t kKs[] = {2, 3, 4, 5, 6};
constexpr std::uint32_t kRs[] = {1, 3, 5, 10};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- protocol units -------------------------------------------------------

TEST(UpdateLineParseTest, InsertAndRemoveForms) {
  ServeRequest request;
  ProtoUpdate update;
  EXPECT_EQ(ParseProtoLine("+1 2", &request, &update), ProtoLineKind::kUpdate);
  EXPECT_TRUE(update.insert);
  EXPECT_EQ(update.u, 1u);
  EXPECT_EQ(update.v, 2u);

  EXPECT_EQ(ParseProtoLine("-40 7", &request, &update),
            ProtoLineKind::kUpdate);
  EXPECT_FALSE(update.insert);
  EXPECT_EQ(update.u, 40u);
  EXPECT_EQ(update.v, 7u);

  // 64-bit ids parse; range checking is the applier's job.
  EXPECT_EQ(ParseProtoLine("+18446744073709551615 0", &request, &update),
            ProtoLineKind::kUpdate);
  EXPECT_EQ(update.u, ~std::uint64_t{0});
}

TEST(UpdateLineParseTest, MalformedUpdateLinesAreErrors) {
  ServeRequest request;
  ProtoUpdate update;
  for (const char* line : {"+1", "+1 2 3", "+x 2", "+ 1 2", "-1 y", "+",
                           "-", "+1 -2", "+1 2x"}) {
    EXPECT_EQ(ParseProtoLine(line, &request, &update), ProtoLineKind::kError)
        << "line: " << line;
  }
}

TEST(UpdateLineParseTest, UpdateLinesWithoutSinkAreErrors) {
  // A caller that passes no ProtoUpdate sink (legacy transports) must see
  // update lines rejected as parse errors, not silently dropped.
  ServeRequest request;
  EXPECT_EQ(ParseProtoLine("+1 2", &request), ProtoLineKind::kError);
  EXPECT_EQ(ParseProtoLine("-1 2", &request), ProtoLineKind::kError);
  // Queries still parse without a sink.
  EXPECT_EQ(ParseProtoLine("q 1 3 5", &request), ProtoLineKind::kQuery);
}

// --- applier counters -----------------------------------------------------

TEST(LiveUpdateApplierTest, CountersSplitAppliedAndNoops) {
  const Graph g = HolmeKim(50, 3, 0.4, 5);
  DynamicTsdIndex index(g);
  LiveUpdateApplier applier(index);

  // Find one existing and one absent edge deterministically.
  const VertexId u = 0;
  const VertexId present = g.neighbors(0).front();
  VertexId absent = 1;
  while (index.graph().HasEdge(u, absent) || absent == u) ++absent;

  EXPECT_FALSE(applier.ApplyUpdate(true, u, present));   // dup insert
  EXPECT_TRUE(applier.ApplyUpdate(false, u, present));   // remove
  EXPECT_TRUE(applier.ApplyUpdate(true, u, present));    // re-insert
  EXPECT_TRUE(applier.ApplyUpdate(true, u, absent));     // new edge
  EXPECT_FALSE(applier.ApplyUpdate(false, 0, 0));        // self loop
  EXPECT_FALSE(applier.ApplyUpdate(true, g.num_vertices(), 0));  // range
  // Ids wider than VertexId are noops before narrowing, never a wrap.
  EXPECT_FALSE(applier.ApplyUpdate(true, std::uint64_t{1} << 40, 0));
  EXPECT_FALSE(applier.ApplyUpdate(false, 0, ~std::uint64_t{0}));

  const LiveUpdateStats stats = applier.stats();
  EXPECT_EQ(stats.applied, 3u);
  EXPECT_EQ(stats.noops, 5u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.removes, 1u);

  const std::string tables = applier.RenderStatsTables();
  EXPECT_NE(tables.find("live updates"), std::string::npos);
  EXPECT_NE(tables.find("update latency"), std::string::npos);
  EXPECT_NE(tables.find("epoch reclamation"), std::string::npos);
}

// --- raw concurrency: the sanitizer target --------------------------------

/// A mixed batch for the racing readers: every k of {2, 3, 4} at r = 1
/// and r = 5, so the batch sweep's ceiling skips run under the updater.
std::vector<BatchQuery> MixedBatch() {
  std::vector<BatchQuery> batch;
  for (std::uint32_t k : {2u, 3u, 4u}) {
    for (std::uint32_t r : {1u, 5u}) batch.push_back({k, r});
  }
  return batch;
}

/// Empty when `result` holds at most r entries in (score desc, id asc)
/// order, else what is wrong.
std::string RankingFault(const TopRResult& result, std::uint32_t r) {
  if (result.entries.size() > r) return "overfilled";
  for (std::size_t i = 1; i < result.entries.size(); ++i) {
    const TopREntry& a = result.entries[i - 1];
    const TopREntry& b = result.entries[i];
    if (!RanksBefore(a.score, a.vertex, b.score, b.vertex)) {
      return "out of order at rank " + std::to_string(i);
    }
  }
  return "";
}

/// Readers hammer the lock-free query paths while one updater streams
/// randomized churn through the applier. Readers check only invariants that
/// hold mid-flight (each call sees a consistent slice, so contexts count ==
/// score; each batch reply is a well-formed ranking); the bit-exact
/// differential runs after quiescence.
TEST(LiveUpdateStressTest, ConcurrentReadersMatchRebuildAfterQuiescence) {
  const Graph g = HolmeKim(120, 4, 0.5, 7);
  const VertexId n = g.num_vertices();
  DynamicTsdIndex index(g);
  LiveUpdateApplier applier(index);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_calls{0};
  std::vector<std::string> failures(3);
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(Hash64(0xfeedULL, static_cast<std::uint64_t>(t)));
      IndexQueryScratch scratch;
      QueryOptions options;
      options.num_threads = (t == 2) ? 2 : 1;  // one reader runs a
                                               // multi-threaded pipeline
      QuerySession session(options);
      while (!stop.load(std::memory_order_relaxed)) {
        const VertexId v = static_cast<VertexId>(rng.Uniform(n));
        const std::uint32_t k = kKs[rng.Uniform(std::size(kKs))];
        const std::uint32_t score = index.Score(v, k);
        const ScoreResult full = index.ScoreWithContexts(v, k, scratch);
        // Per-call consistency: one pinned slice, one component per
        // context. (score and full.score may differ from each other — an
        // update can land between the two calls.)
        if (full.contexts.size() != full.score) {
          failures[t] = "contexts/score mismatch at v=" + std::to_string(v);
          return;
        }
        if (rng.Uniform(8) == 0) {
          const TopRResult top = index.TopR(5, k, session);
          if (top.entries.size() > 5) {
            failures[t] = "TopR overfilled";
            return;
          }
        }
        if (rng.Uniform(8) == 0) {
          const std::vector<BatchQuery> batch = MixedBatch();
          const std::vector<TopRResult> replies =
              index.SearchBatch(batch, session);
          for (std::size_t q = 0; q < batch.size(); ++q) {
            const std::string fault = RankingFault(replies[q], batch[q].r);
            if (!fault.empty()) {
              failures[t] = "SearchBatch q=" + std::to_string(q) + " " + fault;
              return;
            }
          }
        }
        (void)score;
        reader_calls.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The updater: randomized churn, biased toward inserts so the graph
  // stays interesting; every update advances the epoch and retires slices
  // under the readers' feet.
  Rng rng(0xabcdef);
  for (int i = 0; i < 1500; ++i) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    applier.ApplyUpdate(/*insert=*/rng.Uniform(3) != 0, u, v);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  EXPECT_GT(reader_calls.load(), 0u);

  // Reclamation really happened: slices were retired, and — once the
  // readers have unpinned and a few more updates advance the epoch past
  // the grace period — freed. (While readers are pinned, advances stall by
  // design; freeing is deferred, never skipped.)
  EXPECT_GT(index.epoch_stats().retired, 0u);
  for (int i = 0; i < 10; ++i) {
    applier.ApplyUpdate(/*insert=*/i % 2 == 0, 0, 1);
  }
  const EpochStats epochs = index.epoch_stats();
  EXPECT_GT(epochs.freed, 0u);

  // Quiesced differential: bit-identical to a from-scratch build.
  const Graph final_graph = index.graph().ToGraph();
  const TsdIndex fresh = TsdIndex::Build(final_graph);
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t k : {2u, 3u, 4u}) {
      ASSERT_EQ(index.Score(v, k), fresh.Score(v, k))
          << "v=" << v << " k=" << k;
    }
  }
  QuerySession session;
  for (std::uint32_t k : kKs) {
    for (std::uint32_t r : kRs) {
      ExpectSameEntries(fresh.TopR(r, k, session),
                        index.TopR(r, k, session),
                        "post-quiesce k=" + std::to_string(k) +
                            " r=" + std::to_string(r));
    }
  }
  const std::vector<BatchQuery> batch = MixedBatch();
  const std::vector<TopRResult> expected = fresh.SearchBatch(batch, session);
  const std::vector<TopRResult> actual = index.SearchBatch(batch, session);
  ASSERT_EQ(actual.size(), batch.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    const std::string label = "post-quiesce batch q=" + std::to_string(q);
    ExpectSameEntries(expected[q], actual[q], label);
    // Per-query TopR reads no ceiling at all.
    ExpectSameEntries(fresh.TopR(batch[q].r, batch[q].k, session), actual[q],
                      label + " vs TopR");
  }
}

// --- transport determinism ------------------------------------------------

/// Queries interleaved with updates, including deliberate noops (duplicate
/// insert, absent remove, out-of-range id) and a malformed update line.
/// The same tenant queries before and after each update, so the transcript
/// proves the ordering barrier: pre-update queries answered on the old
/// graph, post-update queries on the new one.
constexpr const char* kUpdateScript =
    "# live-update differential workload\n"
    "q 1 3 5\n"
    "q 2 2 4\n"
    "+0 1\n"          // likely a duplicate -> noop (HolmeKim edge)
    "q 1 3 5\n"
    "flush\n"
    "-0 1\n"          // now absent or present deterministically
    "q 2 2 4\n"
    "q 3 4 3\n"
    "+5 90\n"
    "+5 90\n"         // duplicate of the line above -> noop
    "q 1 3 5\n"
    "-5 90\n"
    "+999999 3\n"     // out of range -> noop
    "+x 3\n"          // malformed -> parse error
    "flush\n"
    "q 2 2 4\n"
    "q 4 5 10\n";

ShardedServeOptions LoopOptions(std::uint32_t shards, std::uint32_t threads) {
  ShardedServeOptions options;
  options.num_shards = shards;
  options.shard.query_options.num_threads = threads;
  return options;
}

struct ScriptRun {
  std::string transcript;
  StdinProtoStats stats;
};

/// One stdin-protocol run of kUpdateScript over a FRESH dynamic index.
ScriptRun RunUpdateScriptOverStdin(const Graph& g, std::uint32_t shards,
                                   std::uint32_t threads,
                                   Graph* final_graph = nullptr) {
  DynamicTsdIndex index(g);
  LiveUpdateApplier applier(index);
  ShardedServeLoop loop(index, LoopOptions(shards, threads));
  std::istringstream in(kUpdateScript);
  std::ostringstream out;
  ScriptRun run;
  run.stats = RunStdinProto(in, out, loop, &applier);
  loop.Shutdown();
  run.transcript = out.str();
  if (final_graph != nullptr) *final_graph = index.graph().ToGraph();
  return run;
}

TEST(LiveUpdateTransportTest, StdinTranscriptByteStableAcrossShardsThreads) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  Graph final_graph;
  const ScriptRun baseline = RunUpdateScriptOverStdin(g, 1, 1, &final_graph);
  EXPECT_EQ(baseline.stats.updates, 6u);
  EXPECT_EQ(baseline.stats.parse_errors, 1u);
  // The HolmeKim seed graph contains {0, 1}: the insert is a noop, the
  // remove applies. {5, 90}: insert applies, duplicate is a noop, remove
  // applies. Out-of-range is a noop.
  EXPECT_NE(baseline.transcript.find("applied"), std::string::npos);
  EXPECT_NE(baseline.transcript.find("noop"), std::string::npos);
  EXPECT_EQ(baseline.transcript.find("update-unsupported"),
            std::string::npos);
  EXPECT_NE(baseline.transcript.find("! parse-error"), std::string::npos);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 8u}) {
      const ScriptRun run = RunUpdateScriptOverStdin(g, shards, threads);
      EXPECT_EQ(run.transcript, baseline.transcript)
          << "shards=" << shards << " threads=" << threads;
    }
  }

  // Correctness, not just stability: the served index after the script
  // matches a from-scratch build of the post-update graph.
  DynamicTsdIndex replay(g);
  LiveUpdateApplier applier(replay);
  applier.ApplyUpdate(true, 0, 1);
  applier.ApplyUpdate(false, 0, 1);
  applier.ApplyUpdate(true, 5, 90);
  applier.ApplyUpdate(true, 5, 90);
  applier.ApplyUpdate(false, 5, 90);
  applier.ApplyUpdate(true, 999999, 3);
  const TsdIndex fresh = TsdIndex::Build(final_graph);
  QuerySession session;
  for (std::uint32_t k : kKs) {
    ExpectSameEntries(fresh.TopR(5, k, session), replay.TopR(5, k, session),
                      "replay k=" + std::to_string(k));
  }
}

TEST(LiveUpdateTransportTest, SocketTranscriptMatchesStdinWithUpdates) {
  const Graph g = HolmeKim(200, 5, 0.6, 11);
  const ScriptRun baseline = RunUpdateScriptOverStdin(g, 1, 1);

  for (const std::uint32_t shards : {1u, 2u}) {
    DynamicTsdIndex index(g);
    LiveUpdateApplier applier(index);
    ShardedServeLoop loop(index, LoopOptions(shards, 1));
    SocketServerOptions options;
    options.updater = &applier;
    SocketServer server(loop, options);
    server.Start();
    SocketClient client = SocketClient::Connect("127.0.0.1", server.port(),
                                                /*recv_timeout_ms=*/60000);
    std::istringstream in(kUpdateScript);
    std::ostringstream out;
    const SocketClientScriptStats stats =
        RunSocketClientScript(in, out, client);
    EXPECT_EQ(stats.updates, 6u);
    EXPECT_EQ(stats.parse_errors, 1u);
    EXPECT_EQ(stats.server_errors, 0u);
    EXPECT_EQ(out.str(), baseline.transcript) << "shards=" << shards;
    client.Close();
    const SocketServerStats server_stats = server.stats();
    server.Shutdown();
    loop.Shutdown();
    EXPECT_EQ(server_stats.updates, 6u);
  }
}

TEST(LiveUpdateTransportTest, UpdatesWithoutDynamicIndexAreUnsupported) {
  const Graph g = HolmeKim(60, 3, 0.4, 2);
  const TsdIndex tsd = TsdIndex::Build(g);
  ShardedServeLoop loop(tsd, {});
  std::istringstream in("q 1 3 5\n+0 1\nq 1 3 5\n");
  std::ostringstream out;
  const StdinProtoStats stats = RunStdinProto(in, out, loop, nullptr);
  loop.Shutdown();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_NE(out.str().find("= 2 update-unsupported"), std::string::npos);
  // Queries around the unsupported update still answer identically.
  const std::string transcript = out.str();
  const auto first = transcript.find("= 1 ok");
  const auto second = transcript.find("= 3 ok");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
}

// --- the dynamic<->snapshot seam ------------------------------------------

TEST(LiveUpdateSnapshotTest, FrozenSavedAndMmappedMatchLiveIndex) {
  const Graph g = HolmeKim(150, 4, 0.5, 3);
  const VertexId n = g.num_vertices();
  DynamicTsdIndex dynamic(g);

  Rng rng(0x5eed);
  for (int i = 0; i < 300; ++i) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (rng.Uniform(3) != 0) {
      dynamic.InsertEdge(u, v);
    } else {
      dynamic.RemoveEdge(u, v);
    }
  }

  const TsdIndex frozen = dynamic.Freeze();
  const std::string path = TempPath("tsd_live_update_seam.snap");
  frozen.Save(path);
  const TsdIndex loaded = TsdIndex::Load(path);

  // Zero-copy mmap path: the index borrows the reader's mapping, so the
  // reader outlives it.
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  TsdIndex mapped;
  ASSERT_TRUE(TsdIndex::LoadFromSnapshot(reader, &mapped, &error)) << error;

  std::vector<BatchQuery> batch;
  for (std::uint32_t k : kKs) {
    for (std::uint32_t r : kRs) batch.push_back({k, r});
  }

  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    QueryOptions options;
    options.num_threads = threads;
    QuerySession session(options);
    const std::string label = "threads=" + std::to_string(threads);

    for (std::uint32_t k : kKs) {
      for (std::uint32_t r : kRs) {
        const TopRResult live = dynamic.TopR(r, k, session);
        ExpectSameEntries(live, frozen.TopR(r, k, session),
                          "frozen " + label + " k=" + std::to_string(k));
        ExpectSameEntries(live, loaded.TopR(r, k, session),
                          "loaded " + label + " k=" + std::to_string(k));
        ExpectSameEntries(live, mapped.TopR(r, k, session),
                          "mapped " + label + " k=" + std::to_string(k));
      }
    }

    const std::vector<TopRResult> live_batch =
        dynamic.SearchBatch(batch, session);
    const std::vector<TopRResult> loaded_batch =
        loaded.SearchBatch(batch, session);
    const std::vector<TopRResult> mapped_batch =
        mapped.SearchBatch(batch, session);
    ASSERT_EQ(live_batch.size(), batch.size());
    ASSERT_EQ(loaded_batch.size(), batch.size());
    ASSERT_EQ(mapped_batch.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameEntries(live_batch[i], loaded_batch[i],
                        "batch loaded " + label + " i=" + std::to_string(i));
      ExpectSameEntries(live_batch[i], mapped_batch[i],
                        "batch mapped " + label + " i=" + std::to_string(i));
    }
  }

  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tsd
