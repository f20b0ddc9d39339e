// Concurrent-serving suite for the shared-immutable searcher contract and
// the coalescing serving layer (ShardedServeLoop; one shard unless a test
// says otherwise).
//
//  * N client threads query ONE shared searcher instance, each through its
//    own QuerySession — results must be bit-identical to serial execution.
//    Runs under the existing TSan CI job, so any hidden searcher mutation
//    shows up as a data race, not just a wrong score.
//  * One shard: replies (through MPSC submission, coalesced batches, and
//    futures) equal serial TopR; admission control rejects deterministically;
//    requests queued before Start() coalesce into one batch.
//  * The stdin line protocol produces byte-identical transcripts at 1 and 4
//    server pipeline threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "core/bound_search.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/hybrid_search.h"
#include "core/online_search.h"
#include "core/query_session.h"
#include "core/tsd_index.h"
#include "graph/generators.h"
#include "serve_test_util.h"
#include "server/sharded_serve.h"
#include "server/stdin_proto.h"

namespace tsd {
namespace {

using test::ExpectSameEntries;

std::vector<BatchQuery> TestQueries() {
  return {{2, 5}, {3, 10}, {4, 3}, {5, 1}, {3, 7}, {2, 1}, {6, 4}, {4, 10}};
}

/// Serial ground truth: one session, one thread, per-query TopR.
std::vector<TopRResult> SerialReference(const DiversitySearcher& searcher,
                                        const std::vector<BatchQuery>& qs) {
  QuerySession session;
  std::vector<TopRResult> out;
  for (const BatchQuery& q : qs) {
    out.push_back(searcher.TopR(q.r, q.k, session));
  }
  return out;
}

/// The tentpole property: a shared const searcher answers concurrent
/// queries from `num_clients` threads (own session each) bit-identically to
/// serial execution.
void CheckConcurrentEqualsSerial(const DiversitySearcher& searcher,
                                 std::uint32_t num_clients) {
  const std::vector<BatchQuery> queries = TestQueries();
  const std::vector<TopRResult> reference = SerialReference(searcher, queries);

  std::vector<std::vector<TopRResult>> per_client(num_clients);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Odd clients run their session's pipeline with 2 workers to mix
      // intra-query parallelism into the contention pattern.
      QuerySession session(QueryOptions{c % 2 == 0 ? 1U : 2U, 0});
      for (const BatchQuery& q : queries) {
        per_client[c].push_back(searcher.TopR(q.r, q.k, session));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::uint32_t c = 0; c < num_clients; ++c) {
    ASSERT_EQ(per_client[c].size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectSameEntries(reference[q], per_client[c][q],
                        searcher.name() + " client=" + std::to_string(c) +
                            " q=" + std::to_string(q));
    }
  }
}

TEST(SharedSearcherTest, GctIndexConcurrentQueriesMatchSerial) {
  const Graph g = HolmeKim(300, 5, 0.6, 21);
  const GctIndex gct = GctIndex::Build(g);
  CheckConcurrentEqualsSerial(gct, 4);
}

TEST(SharedSearcherTest, TsdIndexConcurrentQueriesMatchSerial) {
  const Graph g = HolmeKim(300, 5, 0.6, 22);
  const TsdIndex tsd = TsdIndex::Build(g);
  CheckConcurrentEqualsSerial(tsd, 4);
}

TEST(SharedSearcherTest, OnlineSearcherConcurrentQueriesMatchSerial) {
  const Graph g = HolmeKim(150, 4, 0.5, 23);
  const OnlineSearcher online(g);
  CheckConcurrentEqualsSerial(online, 4);
}

TEST(SharedSearcherTest, BoundSearcherConcurrentQueriesMatchSerial) {
  const Graph g = HolmeKim(150, 4, 0.5, 24);
  const BoundSearcher bound(g);
  CheckConcurrentEqualsSerial(bound, 4);
}

TEST(SharedSearcherTest, HybridAndBaselinesConcurrentQueriesMatchSerial) {
  const Graph g = HolmeKim(150, 4, 0.5, 25);
  const GctIndex gct = GctIndex::Build(g);
  const HybridSearcher hybrid(g, gct);
  CheckConcurrentEqualsSerial(hybrid, 4);
  const CompDivSearcher comp(g);
  CheckConcurrentEqualsSerial(comp, 4);
  const CoreDivSearcher core(g);
  CheckConcurrentEqualsSerial(core, 4);
}

TEST(SharedSearcherTest, DynamicIndexConcurrentQueriesBetweenUpdates) {
  const Graph g = HolmeKim(150, 4, 0.5, 26);
  DynamicTsdIndex dynamic(g);
  dynamic.InsertEdge(0, 140);  // mutate first, then serve concurrently
  CheckConcurrentEqualsSerial(dynamic, 4);
}

TEST(SharedSearcherTest, ConcurrentBatchesMatchSerial) {
  const Graph g = HolmeKim(200, 5, 0.6, 27);
  const GctIndex gct = GctIndex::Build(g);
  const std::vector<BatchQuery> queries = TestQueries();
  const std::vector<TopRResult> reference = SerialReference(gct, queries);

  std::vector<std::vector<TopRResult>> per_client(4);
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      QuerySession session;
      per_client[c] = gct.SearchBatch(queries, session);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::uint32_t c = 0; c < 4; ++c) {
    ASSERT_EQ(per_client[c].size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectSameEntries(reference[q], per_client[c][q],
                        "batch client=" + std::to_string(c) +
                            " q=" + std::to_string(q));
    }
  }
}

// The default-session convenience overloads must agree with the session
// path (source compatibility is not enough; results must match too).
TEST(SharedSearcherTest, DefaultSessionMatchesExplicitSession) {
  const Graph g = HolmeKim(150, 4, 0.5, 28);
  GctIndex gct = GctIndex::Build(g);
  QuerySession session;
  for (const BatchQuery& q : TestQueries()) {
    ExpectSameEntries(gct.TopR(q.r, q.k, session), gct.TopR(q.r, q.k),
                      "default-session k=" + std::to_string(q.k));
  }
}

TEST(OneShardServeTest, RepliesMatchSerialTopR) {
  const Graph g = HolmeKim(200, 5, 0.6, 31);
  const GctIndex gct = GctIndex::Build(g);
  const std::vector<BatchQuery> queries = TestQueries();
  const std::vector<TopRResult> reference = SerialReference(gct, queries);

  ShardedServeLoop loop(gct);
  loop.Start();
  std::vector<Future<ServeReply>> futures;
  for (const BatchQuery& q : queries) {
    futures.push_back(loop.Submit(ServeRequest{7, q.k, q.r}));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeReply reply = futures[i].Get();
    ASSERT_EQ(reply.status, ServeStatus::kOk);
    ExpectSameEntries(reference[i], reply.result,
                      "serve q=" + std::to_string(i));
  }
  loop.Shutdown();
  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.accepted, queries.size());
  EXPECT_EQ(stats.served, queries.size());
}

TEST(OneShardServeTest, ConcurrentClientsGetSerialAnswers) {
  const Graph g = HolmeKim(200, 5, 0.6, 32);
  const GctIndex gct = GctIndex::Build(g);
  const std::vector<BatchQuery> queries = TestQueries();
  const std::vector<TopRResult> reference = SerialReference(gct, queries);

  ServeOptions options;
  options.max_batch = 5;  // force several coalesced batches under load
  ShardedServeLoop loop(gct, {.shard = options});
  loop.Start();

  constexpr std::uint32_t kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        std::vector<Future<ServeReply>> futures;
        for (const BatchQuery& q : queries) {
          futures.push_back(loop.Submit(ServeRequest{c, q.k, q.r}));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
          ServeReply reply = futures[i].Get();
          if (reply.status != ServeStatus::kOk ||
              reply.result.entries.size() != reference[i].entries.size()) {
            failures[c] = "bad reply q=" + std::to_string(i);
            return;
          }
          for (std::size_t e = 0; e < reference[i].entries.size(); ++e) {
            if (reply.result.entries[e].vertex !=
                    reference[i].entries[e].vertex ||
                reply.result.entries[e].score !=
                    reference[i].entries[e].score ||
                reply.result.entries[e].contexts !=
                    reference[i].entries[e].contexts) {
              failures[c] = "mismatch q=" + std::to_string(i) +
                            " rank=" + std::to_string(e);
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  loop.Shutdown();
  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.accepted, kClients * 3 * queries.size());
  EXPECT_EQ(stats.served, stats.accepted);
  std::uint64_t histogram_total = 0;
  for (std::size_t s = 1; s < stats.batch_size_count.size(); ++s) {
    histogram_total += s * stats.batch_size_count[s];
    EXPECT_LE(s, 5u) << "batch exceeded max_batch";
  }
  EXPECT_EQ(histogram_total, stats.served);
}

// Regression for the shutdown deadlock: a rejecting Submit transiently
// increments queued_ and must re-notify the server after decrementing, or a
// server parked on the exit predicate (!accepting_ && queued_ == 0) never
// re-checks it and Shutdown()'s join() hangs. Hammer both rejection flavors
// (queue-depth while serving, shutdown-rejection while draining) from
// several threads racing Shutdown(); the test completing is the assertion.
TEST(OneShardServeTest, RejectionsRacingShutdownDoNotDeadlock) {
  const Graph g = HolmeKim(120, 4, 0.5, 33);
  const GctIndex gct = GctIndex::Build(g);
  ServeOptions options;
  options.max_queue_depth = 1;  // every concurrent same-tenant burst rejects
  ShardedServeLoop loop(gct, {.shard = options});
  loop.Start();

  constexpr std::uint32_t kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> resolved{0};
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        // Shared tenant 0 so the depth-1 cap rejects most of the burst.
        Future<ServeReply> f = loop.Submit(ServeRequest{0, 3, 2});
        ServeReply reply = f.Get();
        ASSERT_TRUE(reply.status == ServeStatus::kOk ||
                    reply.status == ServeStatus::kRejectedQueueDepth ||
                    reply.status == ServeStatus::kRejectedShutdown);
        resolved.fetch_add(1);
      }
    });
  }
  // Race the shutdown against the in-flight bursts (no sleep: the interesting
  // interleaving is Submit passing the accepting_ check around the flip).
  loop.Shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(resolved.load(), kClients * 200u);

  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.accepted, stats.served);
  EXPECT_EQ(stats.accepted + stats.rejected_queue_depth +
                stats.rejected_shutdown,
            kClients * 200u);
}

// Requests submitted before Start() coalesce into one deterministic batch.
TEST(OneShardServeTest, PreStartSubmissionsCoalesceIntoOneBatch) {
  const Graph g = HolmeKim(150, 4, 0.5, 33);
  const GctIndex gct = GctIndex::Build(g);
  ShardedServeLoop loop(gct);
  std::vector<Future<ServeReply>> futures;
  for (const BatchQuery& q : TestQueries()) {
    futures.push_back(loop.Submit(ServeRequest{1, q.k, q.r}));
  }
  loop.Start();
  for (Future<ServeReply>& f : futures) {
    EXPECT_EQ(f.Get().status, ServeStatus::kOk);
  }
  loop.Shutdown();
  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.batches, 1u);
  ASSERT_EQ(stats.batch_size_count.size(), TestQueries().size() + 1);
  EXPECT_EQ(stats.batch_size_count[TestQueries().size()], 1u);
}

TEST(OneShardServeTest, AdmissionControlRejectsDeterministically) {
  const Graph g = HolmeKim(100, 4, 0.5, 34);
  const GctIndex gct = GctIndex::Build(g);
  ServeOptions options;
  options.max_r = 10;
  options.max_queue_depth = 2;
  // Not started: depth cannot drain.
  ShardedServeLoop loop(gct, {.shard = options});

  EXPECT_EQ(loop.Submit(ServeRequest{1, 3, 11}).Get().status,
            ServeStatus::kRejectedRLimit);
  EXPECT_EQ(loop.Submit(ServeRequest{1, 1, 5}).Get().status,
            ServeStatus::kRejectedBadQuery);
  EXPECT_EQ(loop.Submit(ServeRequest{1, 3, 0}).Get().status,
            ServeStatus::kRejectedBadQuery);

  // Tenant 1 fills its depth; tenant 2 is unaffected.
  Future<ServeReply> a = loop.Submit(ServeRequest{1, 3, 5});
  Future<ServeReply> b = loop.Submit(ServeRequest{1, 4, 5});
  EXPECT_EQ(loop.Submit(ServeRequest{1, 5, 5}).Get().status,
            ServeStatus::kRejectedQueueDepth);
  Future<ServeReply> c = loop.Submit(ServeRequest{2, 3, 5});

  loop.Shutdown();  // starts, drains the accepted four, joins
  EXPECT_EQ(a.Get().status, ServeStatus::kOk);
  EXPECT_EQ(b.Get().status, ServeStatus::kOk);
  EXPECT_EQ(c.Get().status, ServeStatus::kOk);
  EXPECT_EQ(loop.Submit(ServeRequest{1, 3, 5}).Get().status,
            ServeStatus::kRejectedShutdown);

  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.rejected_r_limit, 1u);
  EXPECT_EQ(stats.rejected_bad_query, 2u);
  EXPECT_EQ(stats.rejected_queue_depth, 1u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.served, 3u);
}

// A throwing searcher must not take the server down: its batch's futures
// resolve to kInternalError and the loop keeps serving.
TEST(OneShardServeTest, ThrowingSearcherFailsRequestsNotTheServer) {
  class ThrowingSearcher : public DiversitySearcher {
   public:
    std::vector<TopRResult> SearchBatch(std::span<const BatchQuery>,
                                        QuerySession&) const override {
      throw CheckError("synthetic query failure");
    }
    std::string name() const override { return "throwing"; }
  };

  ThrowingSearcher searcher;
  ShardedServeLoop loop(searcher);
  Future<ServeReply> a = loop.Submit(ServeRequest{1, 3, 5});
  Future<ServeReply> b = loop.Submit(ServeRequest{2, 4, 5});
  loop.Start();
  EXPECT_EQ(a.Get().status, ServeStatus::kInternalError);
  EXPECT_EQ(b.Get().status, ServeStatus::kInternalError);
  // The server survived; later requests still get (error) replies.
  EXPECT_EQ(loop.Submit(ServeRequest{3, 2, 1}).Get().status,
            ServeStatus::kInternalError);
  loop.Shutdown();
  const ServeStats stats = loop.stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.served, 0u);
}

// A sharded loop must answer exactly like a 1-shard loop — and like serial
// TopR — for every searcher: sharding only changes who dispatches, never
// what is computed. Also cross-checks that the summed totals equal the
// per-shard statistics for every counter.
TEST(ShardedServeLoopTest, OneShardVsFourShardsAcrossAllSearchers) {
  const Graph g = HolmeKim(150, 4, 0.5, 36);
  const GctIndex gct = GctIndex::Build(g);
  const TsdIndex tsd = TsdIndex::Build(g);
  const OnlineSearcher online(g);
  const BoundSearcher bound(g);
  const HybridSearcher hybrid(g, gct);
  const CompDivSearcher comp(g);
  const CoreDivSearcher core(g);
  DynamicTsdIndex dynamic(g);
  dynamic.InsertEdge(0, 140);  // mutate first, then serve shared-immutable

  const std::vector<const DiversitySearcher*> searchers = {
      &online, &bound, &tsd, &gct, &dynamic, &hybrid, &comp, &core};
  const std::vector<BatchQuery> queries = TestQueries();
  for (const DiversitySearcher* searcher : searchers) {
    const std::vector<TopRResult> reference =
        SerialReference(*searcher, queries);
    for (std::uint32_t shards : {1u, 4u}) {
      ShardedServeOptions options;
      options.num_shards = shards;
      ShardedServeLoop loop(*searcher, options);
      loop.Start();
      std::vector<Future<ServeReply>> futures;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        // One tenant per query so a 4-shard loop exercises several shards.
        futures.push_back(
            loop.Submit(ServeRequest{i, queries[i].k, queries[i].r}));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        ServeReply reply = futures[i].Get();
        ASSERT_EQ(reply.status, ServeStatus::kOk);
        ExpectSameEntries(reference[i], reply.result,
                          searcher->name() + " shards=" +
                              std::to_string(shards) +
                              " q=" + std::to_string(i));
      }
      loop.Shutdown();

      // Shard statistics must sum to the totals, counter for counter.
      const ServeStats total = loop.stats();
      ServeStats summed;
      for (std::uint32_t s = 0; s < loop.num_shards(); ++s) {
        summed += loop.shard_stats(s);
      }
      EXPECT_EQ(total.accepted, queries.size()) << searcher->name();
      EXPECT_EQ(summed.accepted, total.accepted) << searcher->name();
      EXPECT_EQ(summed.served, total.served) << searcher->name();
      EXPECT_EQ(summed.failed, total.failed) << searcher->name();
      EXPECT_EQ(summed.batches, total.batches) << searcher->name();
      EXPECT_EQ(summed.rejected_bad_query + summed.rejected_r_limit +
                    summed.rejected_queue_depth + summed.rejected_shutdown,
                0u)
          << searcher->name();
      ASSERT_EQ(summed.batch_size_count.size(),
                total.batch_size_count.size());
      for (std::size_t b = 0; b < total.batch_size_count.size(); ++b) {
        EXPECT_EQ(summed.batch_size_count[b], total.batch_size_count[b])
            << searcher->name() << " bucket " << b;
      }
    }
  }
}

// The stdin protocol transcript must be byte-identical whether one consumer
// or four shards serve it (replies are a pure function of each request; the
// proto layer's reorder buffer restores submission order).
TEST(StdinProtoTest, TranscriptByteStableAcrossShardCounts) {
  const Graph g = HolmeKim(200, 5, 0.6, 37);
  const GctIndex gct = GctIndex::Build(g);
  const std::string script =
      "q 11 3 5\n"
      "q 12 4 10\n"
      "q 13 2 3\n"
      "q 14 5 2\n"
      "flush\n"
      "q 15 3 2000\n"  // r-limit rejection
      "q 16 6 1\n"
      "q 11 4 4\n"
      "q 12 2 7\n";

  auto run = [&](std::uint32_t shards) {
    ShardedServeOptions options;
    options.num_shards = shards;
    ShardedServeLoop loop(gct, options);
    std::istringstream in(script);
    std::ostringstream out;
    const StdinProtoStats stats = RunStdinProto(in, out, loop);
    loop.Shutdown();
    EXPECT_EQ(stats.requests, 8u);
    return out.str();
  };

  const std::string s1 = run(1);
  EXPECT_EQ(s1, run(2));
  EXPECT_EQ(s1, run(4));
  EXPECT_NE(s1.find("= 1 ok"), std::string::npos);
  EXPECT_NE(s1.find("= 5 rejected:r-limit"), std::string::npos);
}

// The stdin protocol transcript must be byte-identical across server
// pipeline thread counts (the CI smoke asserts the same end to end).
TEST(StdinProtoTest, TranscriptByteStableAcrossServerThreads) {
  const Graph g = HolmeKim(200, 5, 0.6, 35);
  const GctIndex gct = GctIndex::Build(g);
  const std::string script =
      "# multi-tenant script\n"
      "q 1 3 5\n"
      "q 2 4 10\n"
      "q 1 2 3\n"
      "flush\n"
      "q 3 5 2\n"
      "q 2 3 2000\n"  // r-limit rejection (max_r default 1024)
      "bogus line\n"
      "q 4 6 1\n";

  auto run = [&](std::uint32_t threads) {
    ServeOptions options;
    options.query_options.num_threads = threads;
    ShardedServeLoop loop(gct, {.shard = options});
    std::istringstream in(script);
    std::ostringstream out;
    const StdinProtoStats stats = RunStdinProto(in, out, loop);
    loop.Shutdown();
    EXPECT_EQ(stats.requests, 6u);
    EXPECT_EQ(stats.parse_errors, 1u);
    return out.str();
  };

  const std::string t1 = run(1);
  const std::string t4 = run(4);
  EXPECT_EQ(t1, t4);
  EXPECT_NE(t1.find("= 1 ok"), std::string::npos);
  EXPECT_NE(t1.find("= 5 rejected:r-limit"), std::string::npos);
  EXPECT_NE(t1.find("! parse-error line 8"), std::string::npos);
}

}  // namespace
}  // namespace tsd
