// The GCT-index answers top-r queries from per-k rankings built on the
// first query at each k (core/score_ranking.h). These tests pin the memo
// to a naive reference — every vertex scored by the literal definition,
// then sorted — for every k up to two past the largest trussness and for
// r below, at, and above the number of positive scores, on built and
// mmap-loaded indexes at 1, 2 and 8 threads. They also cover the
// client-controlled k (no allocation above max_trussness), the memory
// bound, and concurrent first queries at one cold k.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <latch>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "core/gct_index.h"
#include "core/query_session.h"
#include "core/score_ranking.h"
#include "graph/generators.h"
#include "reference_impls.h"

namespace tsd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Naive top-r at every k in [2, max_k]: each vertex scored by the literal
/// Definition 2 + 3, then sorted under the library total order.
class NaiveRankings {
 public:
  NaiveRankings(const Graph& g, std::uint32_t max_k) : n_(g.num_vertices()) {
    for (std::uint32_t k = 2; k <= max_k; ++k) {
      std::vector<TopREntry> all(n_);
      for (VertexId v = 0; v < n_; ++v) {
        auto [score, contexts] = testing::NaiveScore(g, v, k);
        all[v] = TopREntry{v, score, std::move(contexts)};
      }
      std::sort(all.begin(), all.end(),
                [](const TopREntry& a, const TopREntry& b) {
                  return RanksBefore(a.score, a.vertex, b.score, b.vertex);
                });
      by_k_.push_back(std::move(all));
    }
  }

  std::vector<TopREntry> TopR(std::uint32_t r, std::uint32_t k) const {
    const std::vector<TopREntry>& all = by_k_[k - 2];
    return {all.begin(), all.begin() + std::min<std::size_t>(r, n_)};
  }

  std::uint32_t NumPositive(std::uint32_t k) const {
    const std::vector<TopREntry>& all = by_k_[k - 2];
    return static_cast<std::uint32_t>(std::count_if(
        all.begin(), all.end(),
        [](const TopREntry& entry) { return entry.score > 0; }));
  }

 private:
  VertexId n_;
  std::vector<std::vector<TopREntry>> by_k_;
};

void ExpectEntries(const std::vector<TopREntry>& expected,
                   const std::vector<TopREntry>& actual,
                   const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].vertex, actual[i].vertex) << label << " rank=" << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " rank=" << i;
    EXPECT_EQ(expected[i].contexts, actual[i].contexts)
        << label << " rank=" << i;
  }
}

/// Every (k, r) the reference tests: k in [2, max_trussness + 2] and r in
/// {1, 3, |positive_k|, |positive_k| + 1, n, n + 5}.
std::vector<BatchQuery> AllQueries(const NaiveRankings& naive,
                                   std::uint32_t max_trussness, VertexId n) {
  std::vector<BatchQuery> queries;
  for (std::uint32_t k = 2; k <= max_trussness + 2; ++k) {
    const std::uint32_t positive = naive.NumPositive(k);
    for (std::uint32_t r : {1U, 3U, std::max(positive, 1U), positive + 1,
                            n, n + 5}) {
      queries.push_back(BatchQuery{k, r});
    }
  }
  return queries;
}

/// A GCT index over `g` with an empty memo: freshly built, or bound to the
/// snapshot at `path` (mapped).
std::unique_ptr<GctIndex> FreshIndex(const Graph& g, bool mapped,
                                     const std::string& path) {
  auto index = std::make_unique<GctIndex>();
  if (!mapped) {
    *index = GctIndex::Build(g);
    return index;
  }
  SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  EXPECT_TRUE(GctIndex::LoadFromSnapshot(reader, index.get(), &error))
      << error;
  EXPECT_TRUE(index->is_mapped());
  return index;
}

TEST(RankingMemoTest, MatchesNaiveReferenceBuiltAndMapped) {
  struct Case {
    std::string name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"er", ErdosRenyi(60, 300, 3)});
  cases.push_back({"hk", HolmeKim(120, 4, 0.6, 4)});

  for (const Case& test_case : cases) {
    const Graph& g = test_case.graph;
    const GctIndex built = GctIndex::Build(g);
    const std::uint32_t max_trussness = built.max_trussness();
    const NaiveRankings naive(g, max_trussness + 2);
    const std::vector<BatchQuery> queries =
        AllQueries(naive, max_trussness, g.num_vertices());
    const std::string path = TempPath("tsd_ranking_memo_test.snap");
    built.Save(path);

    for (bool mapped : {false, true}) {
      for (std::uint32_t threads : {1U, 2U, 8U}) {
        const std::string label = test_case.name +
                                  (mapped ? " mapped" : " built") +
                                  " threads=" + std::to_string(threads);
        QueryOptions options;
        options.num_threads = threads;
        QuerySession session(options);

        // Per-query TopR first: every k's first query builds its ranking.
        const std::unique_ptr<GctIndex> single = FreshIndex(g, mapped, path);
        for (const BatchQuery& q : queries) {
          ExpectEntries(naive.TopR(q.r, q.k),
                        single->TopR(q.r, q.k, session).entries,
                        label + " TopR k=" + std::to_string(q.k) +
                            " r=" + std::to_string(q.r));
        }

        // One batch first: its queries build the rankings.
        const std::unique_ptr<GctIndex> batched = FreshIndex(g, mapped, path);
        const std::vector<TopRResult> results =
            batched->SearchBatch(queries, session);
        ASSERT_EQ(results.size(), queries.size());
        for (std::size_t i = 0; i < queries.size(); ++i) {
          ExpectEntries(naive.TopR(queries[i].r, queries[i].k),
                        results[i].entries,
                        label + " SearchBatch k=" +
                            std::to_string(queries[i].k) +
                            " r=" + std::to_string(queries[i].r));
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(RankingMemoTest, KAboveMaxTrussnessIsAllZeroAndBuildsNothing) {
  const Graph g = HolmeKim(150, 4, 0.6, 7);
  const GctIndex gct = GctIndex::Build(g);
  const VertexId n = g.num_vertices();
  QuerySession session;
  const std::uint32_t huge = std::numeric_limits<std::uint32_t>::max();

  for (std::uint32_t k : {gct.max_trussness() + 1, huge}) {
    for (std::uint32_t r : {1U, 7U, n, n + 5, huge}) {
      const TopRResult result = gct.TopR(r, k, session);
      ASSERT_EQ(result.entries.size(), std::min(r, n));
      for (std::size_t i = 0; i < result.entries.size(); ++i) {
        EXPECT_EQ(result.entries[i].vertex, i);
        EXPECT_EQ(result.entries[i].score, 0u);
        EXPECT_TRUE(result.entries[i].contexts.empty());
      }
    }
  }
  const std::vector<BatchQuery> batch = {{huge, 4}, {huge, huge}};
  const std::vector<TopRResult> results = gct.SearchBatch(batch, session);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].entries.size(), 4u);
  EXPECT_EQ(results[1].entries.size(), n);
  EXPECT_EQ(gct.ranking_entries(), 0u);
}

TEST(RankingMemoTest, EntriesStayWithinTheMemberArray) {
  const Graph g = HolmeKim(2000, 5, 0.6, 9);
  const GctIndex gct = GctIndex::Build(g);
  ASSERT_GE(gct.max_trussness(), 4u);
  QuerySession session;
  for (std::uint32_t k = 2; k <= gct.max_trussness() + 2; ++k) {
    gct.TopR(1, k, session);
  }
  // Vertex v ranks at exactly the k in [2, TopTrussness(v)].
  std::uint64_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    expected += std::max(gct.TopTrussness(v), 1U) - 1;
  }
  EXPECT_EQ(gct.ranking_entries(), expected);
  EXPECT_LE(gct.ranking_entries(), gct.num_members());
}

// Eight sessions race the first query at each cold k of one shared index:
// each k must be built once and every thread must read the serial answers.
TEST(RankingMemoTest, ConcurrentColdKMatchesSerial) {
  const Graph g = HolmeKim(1500, 5, 0.6, 13);
  const GctIndex serial_index = GctIndex::Build(g);
  const std::uint32_t max_k = serial_index.max_trussness();
  std::vector<BatchQuery> queries;
  for (std::uint32_t k = max_k; k >= 2; --k) {
    for (std::uint32_t r : {1U, 10U, 200U}) queries.push_back({k, r});
  }
  QuerySession serial_session;
  std::vector<TopRResult> expected;
  for (const BatchQuery& q : queries) {
    expected.push_back(serial_index.TopR(q.r, q.k, serial_session));
  }

  const GctIndex shared = GctIndex::Build(g);
  constexpr int kThreads = 8;
  std::vector<std::vector<TopRResult>> single(kThreads);
  std::vector<std::vector<TopRResult>> batched(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryOptions options;
      options.num_threads = 1 + t % 2;
      QuerySession session(options);
      start.arrive_and_wait();
      // Odd threads take the batch path first, so both entry points race
      // on the same cold k.
      if (t % 2 == 1) batched[t] = shared.SearchBatch(queries, session);
      for (const BatchQuery& q : queries) {
        single[t].push_back(shared.TopR(q.r, q.k, session));
      }
      if (t % 2 == 0) batched[t] = shared.SearchBatch(queries, session);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(single[t].size(), queries.size());
    ASSERT_EQ(batched[t].size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string label = "thread=" + std::to_string(t) +
                                " k=" + std::to_string(queries[i].k) +
                                " r=" + std::to_string(queries[i].r);
      ExpectEntries(expected[i].entries, single[t][i].entries, label);
      ExpectEntries(expected[i].entries, batched[t][i].entries,
                    label + " batch");
    }
  }
  EXPECT_EQ(shared.ranking_entries(), serial_index.ranking_entries());
}

TEST(RankingMemoTest, SnapshotTrussnessAboveVertexCountIsRejected) {
  // One vertex whose only supernode claims trussness 4e9: structurally
  // valid, but no ego-network truss is larger than the graph, and the
  // ranking slots are sized from this value.
  const std::string path = TempPath("tsd_ranking_memo_test_tau.snap");
  const std::uint32_t tau = 4000000000U;
  const std::vector<std::uint64_t> meta = {1, 1, tau};
  const std::vector<std::uint32_t> offsets = {0, 1};
  const std::vector<std::uint32_t> sn_tau = {tau};
  const std::vector<VertexId> members = {0};
  const std::vector<std::uint32_t> no_superedges = {0, 0};
  const std::vector<std::uint32_t> empty;
  {
    SnapshotWriter writer(path);
    writer.AddScalars(SnapshotTag("gctx.met"), meta);
    writer.AddArray(SnapshotTag("gctx.sno"), std::span(offsets));
    writer.AddArray(SnapshotTag("gctx.tau"), std::span(sn_tau));
    writer.AddArray(SnapshotTag("gctx.mof"), std::span(offsets));
    writer.AddArray(SnapshotTag("gctx.mem"), std::span(members));
    writer.AddArray(SnapshotTag("gctx.seo"), std::span(no_superedges));
    writer.AddArray(SnapshotTag("gctx.sea"), std::span(empty));
    writer.AddArray(SnapshotTag("gctx.seb"), std::span(empty));
    writer.AddArray(SnapshotTag("gctx.sew"), std::span(empty));
    writer.Finish();
  }
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(SnapshotReader::Open(path, &reader, &error)) << error;
  GctIndex gct;
  EXPECT_FALSE(GctIndex::LoadFromSnapshot(reader, &gct, &error));
  EXPECT_NE(error.find("max trussness exceeds"), std::string::npos) << error;
  std::remove(path.c_str());
}

// The counting sort behind every bound order and ranking must give exactly
// the order of a stable comparison sort, on both of its branches (keys up
// to the item count, and larger keys).
TEST(ScoreOrderTest, MatchesStableSortOnBothBranches) {
  Rng rng(5);
  for (std::uint32_t max_key : {0U, 1U, 7U, 300U, 5000U, 1U << 30}) {
    std::vector<std::uint32_t> bounds(400);
    for (std::uint32_t& bound : bounds) {
      bound = static_cast<std::uint32_t>(rng.Uniform(std::uint64_t{max_key} +
                                                     1));
    }
    std::vector<VertexId> expected(bounds.size());
    std::iota(expected.begin(), expected.end(), VertexId{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](VertexId a, VertexId b) {
                       return bounds[a] > bounds[b];
                     });
    EXPECT_EQ(OrderByBoundDesc(bounds), expected) << "max_key=" << max_key;
    const ScoreRanking ranking = RankPositiveScores(bounds);
    std::vector<VertexId> positive;
    for (VertexId v : expected) {
      if (bounds[v] > 0) positive.push_back(v);
    }
    ASSERT_EQ(ranking.size(), positive.size());
    for (std::size_t i = 0; i < ranking.size(); ++i) {
      EXPECT_EQ(ranking[i].first, positive[i]);
      EXPECT_EQ(ranking[i].second, bounds[positive[i]]);
    }
  }
}

}  // namespace
}  // namespace tsd
