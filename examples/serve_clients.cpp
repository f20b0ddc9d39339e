// Serving concurrent clients from one shared, immutable index.
//
// The contract after the query-session refactor: searchers are immutable
// after build; all query scratch lives in sessions. That gives two ways to
// serve concurrent traffic, both shown here:
//
//  1. Direct sharing — every client thread owns a QuerySession and calls
//     TopR(r, k, session) on ONE shared const searcher. No locks, no
//     copies of the index, results bit-identical to serial execution.
//  2. ShardedServeLoop with one shard — clients submit requests through a
//     wait-free MPSC queue and get futures; a single server thread
//     coalesces whatever is in flight into amortized SearchBatch calls and
//     enforces per-tenant limits. Same answers, plus cross-tenant batching.
//  3. ShardedServeLoop with two shards — the same contract over S
//     independent consumer loops with tenants hashed across them
//     (`tsdtool serve --shards=N`): S batches dispatch concurrently, each
//     tenant pinned to one shard so its admission and ordering stay
//     deterministic. Same answers again.
#include <iostream>
#include <thread>
#include <vector>

#include "core/gct_index.h"
#include "core/query_session.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "server/sharded_serve.h"

int main() {
  using namespace tsd;

  Graph graph = HolmeKim(/*n=*/2000, /*m_per_vertex=*/6, /*p_triangle=*/0.6,
                         /*seed=*/42);
  const GctIndex index = GctIndex::Build(graph);  // built once, shared const
  std::cout << "graph: " << graph.num_vertices() << " vertices, index built\n";

  // --- 1. Direct sharing: four threads, one searcher, a session each.
  std::vector<std::vector<TopRResult>> answers(4);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&index, &answers, c] {
      QuerySession session;  // owns all of this thread's query scratch
      for (std::uint32_t k = 3; k <= 5; ++k) {
        answers[c].push_back(index.TopR(/*r=*/3, k, session));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::cout << "\ndirect sharing: 4 threads x 3 queries, top vertex at k=3: "
            << answers[0][0].entries[0].vertex << " (score "
            << answers[0][0].entries[0].score
            << "), identical across clients: "
            << (answers[0][0].entries[0].vertex ==
                        answers[3][0].entries[0].vertex
                    ? "yes"
                    : "no")
            << "\n";

  // --- 2. One shard: futures + request coalescing + per-tenant limits.
  ShardedServeOptions options;        // num_shards = 1
  options.shard.max_r = 100;          // reject runaway context requests
  options.shard.max_queue_depth = 8;  // per-tenant in-flight cap
  ShardedServeLoop loop(index, options);
  loop.Start();

  std::vector<Future<ServeReply>> futures;
  for (std::uint64_t tenant = 0; tenant < 3; ++tenant) {
    for (std::uint32_t k = 3; k <= 5; ++k) {
      futures.push_back(loop.Submit(ServeRequest{tenant, k, /*r=*/3}));
    }
  }
  futures.push_back(loop.Submit(ServeRequest{9, /*k=*/3, /*r=*/5000}));

  std::cout << "\nserve loop replies:\n";
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ServeReply reply = futures[i].Get();
    std::cout << "  request " << i + 1 << ": "
              << ServeStatusName(reply.status);
    if (reply.status == ServeStatus::kOk) {
      std::cout << ", top vertex " << reply.result.entries[0].vertex;
    }
    std::cout << "\n";
  }
  loop.Shutdown();

  const ServeStats stats = loop.stats();
  std::cout << "\nserved " << stats.served << " requests in "
            << stats.batches << " coalesced batches (r-limit rejections: "
            << stats.rejected_r_limit << ")\n";

  // --- 3. Two shards: two consumer loops, tenants hashed to shards.
  ShardedServeOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.shard.max_r = 100;
  ShardedServeLoop sharded(index, sharded_options);
  sharded.Start();

  std::vector<Future<ServeReply>> sharded_futures;
  std::cout << "\nsharded loop (2 shards), tenant pinning:\n";
  for (std::uint64_t tenant = 0; tenant < 6; ++tenant) {
    std::cout << "  tenant " << tenant << " -> shard "
              << sharded.ShardOf(tenant) << "\n";
    for (std::uint32_t k = 3; k <= 5; ++k) {
      sharded_futures.push_back(
          sharded.Submit(ServeRequest{tenant, k, /*r=*/3}));
    }
  }
  bool all_match = true;
  for (std::size_t i = 0; i < sharded_futures.size(); ++i) {
    ServeReply reply = sharded_futures[i].Get();
    // Same (k, r) as the direct-sharing clients' queries above:
    // replies are a pure function of the request, so shard count is
    // invisible in the answers.
    all_match = all_match && reply.status == ServeStatus::kOk &&
                reply.result.entries[0].vertex ==
                    answers[0][i % 3].entries[0].vertex;
  }
  sharded.Shutdown();

  const ServeStats sharded_stats = sharded.stats();
  std::cout << "served " << sharded_stats.served << " requests across "
            << sharded.num_shards() << " shards (";
  for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
    std::cout << (s ? ", " : "") << "shard " << s << ": "
              << sharded.shard_stats(s).served;
  }
  std::cout << "), answers identical to the 1-consumer loop: "
            << (all_match ? "yes" : "no") << "\n";
  return 0;
}
