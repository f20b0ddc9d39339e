// Differential stress harness for the sharded multi-consumer serving loop.
//
// The contract under test: a ShardedServeLoop over S shards answers every
// accepted request bit-identically to a serial TopR on the same searcher,
// no matter how many client threads race submission, how tenants mix their
// (k, r) streams, which admission caps fire, or whether Shutdown() races
// the submitters. Randomized workloads (seeded, reproducible) sweep
// clients x shards x tenants with reject-inducing depth caps and racing
// shutdowns; every reply is checked against the serial reference, every
// counter is re-derived from the per-shard stats, and the structural
// properties (deterministic tenant->shard assignment, per-tenant
// submission-order fulfillment) are asserted directly. Runs under the TSan
// and ASan+UBSan CI matrix, so ordering bugs surface as data races or
// counter drift, not just wrong scores.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/gct_index.h"
#include "core/query_session.h"
#include "graph/generators.h"
#include "serve_test_util.h"
#include "server/sharded_serve.h"
#include "server/tenant_table.h"

namespace tsd {
namespace {

using test::ExpectSameEntries;
using test::SameEntries;

constexpr std::uint32_t kKs[] = {2, 3, 4, 5, 6};
constexpr std::uint32_t kRs[] = {1, 3, 5, 10};

/// Serial ground truth for every (k, r) the randomized workload can draw.
std::map<std::pair<std::uint32_t, std::uint32_t>, TopRResult> BuildReference(
    const DiversitySearcher& searcher) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, TopRResult> reference;
  QuerySession session;
  for (std::uint32_t k : kKs) {
    for (std::uint32_t r : kRs) {
      reference[{k, r}] = searcher.TopR(r, k, session);
    }
  }
  return reference;
}

/// What one client expects for one of its submissions.
struct Expectation {
  ServeRequest request;
  /// kOk when the request is valid (timing may still turn it into a
  /// queue-depth or shutdown rejection; ValidateReplies allows those when
  /// the config can produce them), otherwise the deterministic rejection.
  ServeStatus deterministic = ServeStatus::kOk;
};

struct StressConfig {
  std::uint32_t shards = 1;
  std::uint32_t clients = 1;
  std::uint32_t requests_per_client = 40;
  std::uint32_t max_queue_depth = 1 << 20;  // effectively uncapped
  bool race_shutdown = false;
  bool inject_invalid = true;
  std::uint64_t seed = 1;
};

std::string ConfigLabel(const StressConfig& config) {
  return "shards=" + std::to_string(config.shards) +
         " clients=" + std::to_string(config.clients) +
         " depth=" + std::to_string(config.max_queue_depth) +
         " race=" + std::to_string(config.race_shutdown) +
         " seed=" + std::to_string(config.seed);
}

/// One randomized serving run. Every client owns a disjoint tenant pool (so
/// per-tenant streams are single-submitter and their order is defined),
/// draws a mixed (k, r) stream — salted with deterministic rejections when
/// `inject_invalid` — submits it all, then validates every reply against
/// the serial reference. Returns per-status counts for the caller's
/// cross-checks against loop statistics.
void RunStress(
    const DiversitySearcher& searcher,
    const std::map<std::pair<std::uint32_t, std::uint32_t>, TopRResult>&
        reference,
    const StressConfig& config) {
  const std::string label = ConfigLabel(config);
  ShardedServeOptions options;
  options.num_shards = config.shards;
  options.shard.max_queue_depth = config.max_queue_depth;
  ShardedServeLoop loop(searcher, options);
  loop.Start();

  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> depth_rejects{0};
  std::atomic<std::uint64_t> shutdown_rejects{0};
  std::atomic<std::uint64_t> deterministic_rejects{0};
  std::vector<std::string> failures(config.clients);

  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(Hash64(config.seed, c));
      std::vector<Expectation> expectations;
      std::vector<Future<ServeReply>> futures;
      for (std::uint32_t i = 0; i < config.requests_per_client; ++i) {
        Expectation expect;
        // Disjoint per-client tenant pools: tenant streams have exactly one
        // submitting thread, so admission and ordering are per-tenant
        // deterministic properties, not cross-thread races.
        expect.request.tenant = std::uint64_t{c} * 16 + rng.Uniform(3);
        expect.request.k = kKs[rng.Uniform(std::size(kKs))];
        expect.request.r = kRs[rng.Uniform(std::size(kRs))];
        if (config.inject_invalid && rng.Uniform(8) == 0) {
          switch (rng.Uniform(3)) {
            case 0:
              expect.request.k = 1;
              expect.deterministic = ServeStatus::kRejectedBadQuery;
              break;
            case 1:
              expect.request.r = 0;
              expect.deterministic = ServeStatus::kRejectedBadQuery;
              break;
            default:
              expect.request.r = 2000;  // default max_r is 1024
              expect.deterministic = ServeStatus::kRejectedRLimit;
              break;
          }
        }
        expectations.push_back(expect);
        futures.push_back(loop.Submit(expect.request));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const Expectation& expect = expectations[i];
        ServeReply reply = futures[i].Get();
        if (expect.deterministic != ServeStatus::kOk) {
          // Bad-query and r-limit fire before the shutdown and depth
          // checks: deterministic regardless of racing Shutdown().
          if (reply.status != expect.deterministic) {
            failures[c] = "expected deterministic rejection, got " +
                          std::string(ServeStatusName(reply.status));
            return;
          }
          deterministic_rejects.fetch_add(1);
          continue;
        }
        switch (reply.status) {
          case ServeStatus::kOk: {
            ok_count.fetch_add(1);
            const TopRResult& expected = reference.at(
                {expect.request.k, expect.request.r});
            if (!SameEntries(expected, reply.result)) {
              failures[c] = "reply diverged from serial TopR at q=" +
                            std::to_string(i);
              return;
            }
            break;
          }
          case ServeStatus::kRejectedQueueDepth:
            depth_rejects.fetch_add(1);
            break;
          case ServeStatus::kRejectedShutdown:
            shutdown_rejects.fetch_add(1);
            break;
          default:
            failures[c] = "unexpected status " +
                          std::string(ServeStatusName(reply.status));
            return;
        }
      }
    });
  }
  if (config.race_shutdown) loop.Shutdown();  // races the submitters
  for (std::thread& t : clients) t.join();
  loop.Shutdown();

  for (std::uint32_t c = 0; c < config.clients; ++c) {
    ASSERT_EQ(failures[c], "") << label << " client=" << c;
  }
  // Timing-dependent rejections exist only in the configs that can produce
  // them.
  if (!config.race_shutdown) EXPECT_EQ(shutdown_rejects.load(), 0u) << label;
  if (config.max_queue_depth >= config.clients * config.requests_per_client) {
    EXPECT_EQ(depth_rejects.load(), 0u) << label;
  }

  // Re-derive every total from the per-shard counters: the shard split must
  // partition the workload exactly.
  const std::uint64_t submitted =
      std::uint64_t{config.clients} * config.requests_per_client;
  const ServeStats total = loop.stats();
  EXPECT_EQ(total.accepted, ok_count.load()) << label;
  EXPECT_EQ(total.served, total.accepted) << label;
  EXPECT_EQ(total.failed, 0u) << label;
  EXPECT_EQ(total.rejected_queue_depth, depth_rejects.load()) << label;
  EXPECT_EQ(total.rejected_shutdown, shutdown_rejects.load()) << label;
  EXPECT_EQ(total.rejected_bad_query + total.rejected_r_limit,
            deterministic_rejects.load())
      << label;
  EXPECT_EQ(total.accepted + total.rejected_bad_query +
                total.rejected_r_limit + total.rejected_queue_depth +
                total.rejected_shutdown,
            submitted)
      << label;

  ServeStats summed;
  std::uint64_t histogram_weight = 0;
  for (std::uint32_t s = 0; s < loop.num_shards(); ++s) {
    const ServeStats shard = loop.shard_stats(s);
    summed += shard;
    for (std::size_t b = 1; b < shard.batch_size_count.size(); ++b) {
      histogram_weight += b * shard.batch_size_count[b];
      EXPECT_LE(b, options.shard.max_batch) << label << " shard=" << s;
    }
  }
  EXPECT_EQ(summed.accepted, total.accepted) << label;
  EXPECT_EQ(summed.served, total.served) << label;
  EXPECT_EQ(summed.batches, total.batches) << label;
  EXPECT_EQ(summed.rejected_queue_depth, total.rejected_queue_depth) << label;
  EXPECT_EQ(histogram_weight, total.served) << label;
}

class ShardedServeStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(HolmeKim(150, 4, 0.5, 41));
    searcher_ = new GctIndex(GctIndex::Build(*graph_));
    reference_ = new std::map<std::pair<std::uint32_t, std::uint32_t>,
                              TopRResult>(BuildReference(*searcher_));
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete searcher_;
    delete graph_;
    reference_ = nullptr;
    searcher_ = nullptr;
    graph_ = nullptr;
  }

  static Graph* graph_;
  static GctIndex* searcher_;
  static std::map<std::pair<std::uint32_t, std::uint32_t>, TopRResult>*
      reference_;
};

Graph* ShardedServeStressTest::graph_ = nullptr;
GctIndex* ShardedServeStressTest::searcher_ = nullptr;
std::map<std::pair<std::uint32_t, std::uint32_t>, TopRResult>*
    ShardedServeStressTest::reference_ = nullptr;

TEST_F(ShardedServeStressTest, RandomizedClientsAcrossShardCounts) {
  // The differential sweep: 1..16 client threads x 1/2/4 shards, mixed
  // tenants and (k, r), salted with deterministic rejections. Every reply
  // must be bit-identical to the serial reference.
  std::uint64_t seed = 100;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    for (std::uint32_t clients : {1u, 4u, 16u}) {
      StressConfig config;
      config.shards = shards;
      config.clients = clients;
      config.seed = ++seed;
      RunStress(*searcher_, *reference_, config);
    }
  }
}

TEST_F(ShardedServeStressTest, DepthCapRejectsUnderShardedContention) {
  // A depth cap of 1 makes every same-tenant burst reject most of itself;
  // the counters must still balance exactly across shards.
  for (std::uint32_t shards : {1u, 4u}) {
    StressConfig config;
    config.shards = shards;
    config.clients = 8;
    config.requests_per_client = 60;
    config.max_queue_depth = 1;
    config.inject_invalid = false;
    config.seed = 7000 + shards;
    RunStress(*searcher_, *reference_, config);
  }
}

TEST_F(ShardedServeStressTest, ShutdownRacingSubmittersResolvesEverything) {
  // Shutdown() races 8 submitting threads: every future must still resolve
  // (ok or rejected:shutdown), across every shard — the PR 4 rejection-path
  // deadlock must not regress in any shard's consumer.
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    StressConfig config;
    config.shards = shards;
    config.clients = 8;
    config.requests_per_client = 50;
    config.race_shutdown = true;
    config.seed = 9000 + shards;
    RunStress(*searcher_, *reference_, config);
  }
}

TEST_F(ShardedServeStressTest, DepthCapAndShutdownRaceCombined) {
  StressConfig config;
  config.shards = 4;
  config.clients = 8;
  config.requests_per_client = 50;
  config.max_queue_depth = 2;
  config.race_shutdown = true;
  config.inject_invalid = false;
  config.seed = 77;
  RunStress(*searcher_, *reference_, config);
}

TEST_F(ShardedServeStressTest, ShardAssignmentIsDeterministic) {
  // Assignment is a pure function of (tenant, num_shards): identical across
  // loop instances, equal to the documented Hash64 formula, and covering
  // every shard.
  ShardedServeOptions options;
  options.num_shards = 4;
  ShardedServeLoop a(*searcher_, options);
  ShardedServeLoop b(*searcher_, options);
  std::vector<std::uint32_t> hits(4, 0);
  for (std::uint64_t tenant = 0; tenant < 1000; ++tenant) {
    const std::uint32_t shard = a.ShardOf(tenant);
    EXPECT_EQ(shard, b.ShardOf(tenant)) << "tenant " << tenant;
    EXPECT_EQ(shard, (Hash64(tenant) >> 32) % 4) << "tenant " << tenant;
    ++hits[shard];
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_GT(hits[s], 0u) << "shard " << s << " never assigned";
  }
}

TEST_F(ShardedServeStressTest, TenantIsPinnedToExactlyOneShard) {
  // A single-tenant workload must land on ShardOf(tenant) and nowhere else.
  const std::uint64_t tenant = 42;
  ShardedServeOptions options;
  options.num_shards = 4;
  ShardedServeLoop loop(*searcher_, options);
  loop.Start();
  std::vector<Future<ServeReply>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(loop.Submit(ServeRequest{tenant, 3, 5}));
  }
  for (Future<ServeReply>& f : futures) {
    EXPECT_EQ(f.Get().status, ServeStatus::kOk);
  }
  loop.Shutdown();
  for (std::uint32_t s = 0; s < loop.num_shards(); ++s) {
    EXPECT_EQ(loop.shard_stats(s).accepted,
              s == loop.ShardOf(tenant) ? 12u : 0u)
        << "shard " << s;
  }
}

TEST_F(ShardedServeStressTest, PerTenantSubmissionOrderIsPreserved) {
  // Each tenant submits from one thread; its requests flow through one
  // shard's MPSC queue (per-producer FIFO) to one consumer that fulfills
  // them in pop order. Observable contract: the moment a tenant's LAST
  // future resolves, every earlier future of that tenant has already
  // resolved. A consumer that reordered within a tenant would leave an
  // earlier future unfulfilled here.
  ShardedServeOptions options;
  options.num_shards = 4;
  options.shard.max_batch = 3;  // many small batches: more reorder chances
  ShardedServeLoop loop(*searcher_, options);
  loop.Start();

  constexpr std::uint32_t kTenants = 8;
  constexpr std::uint32_t kPerTenant = 30;
  std::vector<std::string> failures(kTenants);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(Hash64(55, t));
      std::vector<Future<ServeReply>> futures;
      std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
      for (std::uint32_t i = 0; i < kPerTenant; ++i) {
        ServeRequest request;
        request.tenant = t;
        request.k = kKs[rng.Uniform(std::size(kKs))];
        request.r = kRs[rng.Uniform(std::size(kRs))];
        keys.emplace_back(request.k, request.r);
        futures.push_back(loop.Submit(request));
      }
      ServeReply last = futures.back().Get();
      if (last.status != ServeStatus::kOk) {
        failures[t] = "last reply not ok";
        return;
      }
      for (std::uint32_t i = 0; i + 1 < kPerTenant; ++i) {
        if (!futures[i].Ready()) {
          failures[t] =
              "request " + std::to_string(i) + " fulfilled after the last";
          return;
        }
        ServeReply reply = futures[i].Get();
        if (reply.status != ServeStatus::kOk ||
            !SameEntries(reference_->at(keys[i]), reply.result)) {
          failures[t] = "request " + std::to_string(i) + " diverged";
          return;
        }
      }
      if (!SameEntries(reference_->at(keys.back()), last.result)) {
        failures[t] = "last request diverged";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  loop.Shutdown();
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(failures[t], "") << "tenant " << t;
  }
}

// ------------------------------------------------------- TenantDepthTable

TEST(TenantDepthTableTest, IncrementDecrementEraseRoundTrip) {
  TenantDepthTable table;
  const std::uint64_t t = 7, h = Hash64(7);
  EXPECT_EQ(table.Depth(t, h), 0u);
  EXPECT_TRUE(table.TryIncrement(t, h, 2));
  EXPECT_TRUE(table.TryIncrement(t, h, 2));
  EXPECT_FALSE(table.TryIncrement(t, h, 2));  // at cap
  EXPECT_EQ(table.Depth(t, h), 2u);
  EXPECT_EQ(table.size(), 1u);
  table.Decrement(t, h);
  EXPECT_EQ(table.Depth(t, h), 1u);
  table.Decrement(t, h);
  EXPECT_EQ(table.Depth(t, h), 0u);  // erased at zero
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.TryIncrement(t, h, 1));  // re-insertable after erase
}

TEST(TenantDepthTableTest, ZeroCapRejectsWithoutInserting) {
  TenantDepthTable table;
  EXPECT_FALSE(table.TryIncrement(5, Hash64(5), 0));
  EXPECT_EQ(table.size(), 0u);
}

TEST(TenantDepthTableTest, GrowsAndDrainsManyTenantsAgainstReference) {
  // Randomized differential against a std::map reference: interleaved
  // increments/decrements over a sweeping tenant id space force growth,
  // collisions, and backward-shift deletions.
  TenantDepthTable table;
  std::map<std::uint64_t, std::uint32_t> reference;
  Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t tenant = rng.Uniform(300);
    const std::uint64_t hash = Hash64(tenant);
    if (rng.Uniform(2) == 0) {
      const bool admitted = table.TryIncrement(tenant, hash, 4);
      const bool expected = reference[tenant] < 4;
      ASSERT_EQ(admitted, expected) << "step " << step;
      if (expected) ++reference[tenant];
      if (reference[tenant] == 0) reference.erase(tenant);
    } else if (reference.count(tenant) > 0) {
      table.Decrement(tenant, hash);
      if (--reference[tenant] == 0) reference.erase(tenant);
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    ASSERT_EQ(table.Depth(tenant, hash),
              reference.count(tenant) ? reference[tenant] : 0)
        << "step " << step;
  }
  // Drain everything: the table must return to empty with no tombstones
  // (every residual tenant still findable mid-drain).
  for (const auto& [tenant, depth] : reference) {
    for (std::uint32_t i = 0; i < depth; ++i) {
      ASSERT_EQ(table.Depth(tenant, Hash64(tenant)), depth - i);
      table.Decrement(tenant, Hash64(tenant));
    }
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(TenantDepthTableTest, CollidingHomeSlotsSurviveBackwardShift) {
  // Force every tenant into the same home bucket by giving the table equal
  // hashes: linear probing chains them; erasing the head must shift the
  // chain back so every survivor stays findable.
  TenantDepthTable table;
  const std::uint64_t hash = 0;  // same home slot for all
  for (std::uint64_t tenant = 0; tenant < 8; ++tenant) {
    EXPECT_TRUE(table.TryIncrement(tenant, hash, 1));
  }
  table.Decrement(3, hash);
  table.Decrement(0, hash);
  for (std::uint64_t tenant = 0; tenant < 8; ++tenant) {
    EXPECT_EQ(table.Depth(tenant, hash), (tenant == 0 || tenant == 3) ? 0u : 1u)
        << "tenant " << tenant;
  }
  EXPECT_EQ(table.size(), 6u);
}

}  // namespace
}  // namespace tsd
