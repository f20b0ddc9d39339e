// The benchmark's calls into the library, one traced wrapper per layer
// entry point, plus the request mixes and the load generators that drive
// the serving layer.
//
// Every wrapper records a span (see trace.h) named "<layer>.<call>" when
// tracing is on; the per-layer metrics in main.cc are derived from those
// spans alone. The wrappers add nothing else, so an untraced run executes
// the same library calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_tsd_index.h"
#include "core/gct_index.h"
#include "core/types.h"
#include "graph/graph.h"
#include "server/live_index.h"
#include "server/sharded_serve.h"

namespace perfbench {

// ---- graph/ -------------------------------------------------------------

/// graph.LoadEdgeListText
tsd::Graph LoadGraph(const std::string& path);

/// graph.TrianglesPerVertex on `threads` workers.
void CountTriangles(const tsd::Graph& graph, std::uint32_t threads);

// ---- truss/ -------------------------------------------------------------

/// truss.TrussDecomposition with the bound searcher's config and plan
/// floor k+1 (attrs: k, edges_pruned).
void DecomposeForK(const tsd::Graph& graph, const tsd::QueryOptions& options,
                   std::uint32_t k);

// ---- core/ --------------------------------------------------------------

/// core.GctIndex::Build on one thread, so IndexBuildStats are wall time
/// (attrs: extraction_ms, decomposition_ms, assembly_ms).
tsd::GctIndex BuildGct(const tsd::Graph& graph);

/// core.DynamicTsdIndex::Build
std::unique_ptr<tsd::DynamicTsdIndex> BuildDynamic(const tsd::Graph& graph);

/// Forwards every query to `inner`, recording core.TopR (attrs: k,
/// preprocess_ms, score_ms, context_ms, edges_pruned, vertices_scored) and
/// core.SearchBatch (attrs: size, score_ms, context_ms) spans. The shard
/// consumers call its SearchBatch, so batch spans time exactly the
/// coalesced library call.
class TracedSearcher : public tsd::DiversitySearcher {
 public:
  explicit TracedSearcher(const tsd::DiversitySearcher& inner)
      : inner_(inner) {}

  using tsd::DiversitySearcher::SearchBatch;
  using tsd::DiversitySearcher::TopR;
  tsd::TopRResult TopR(std::uint32_t r, std::uint32_t k,
                       tsd::QuerySession& session) const override;
  std::vector<tsd::TopRResult> SearchBatch(
      std::span<const tsd::BatchQuery> queries,
      tsd::QuerySession& session) const override;
  std::string name() const override { return inner_.name(); }

 private:
  const tsd::DiversitySearcher& inner_;
};

// ---- common/ ------------------------------------------------------------

/// common.SnapshotSave: graph + GCT index into one snapshot file.
void SaveSnapshot(const std::string& path, const tsd::Graph& graph,
                  const tsd::GctIndex& gct);

struct MappedIndex {
  tsd::Graph graph;
  tsd::GctIndex gct;
};

/// common.SnapshotLoad: open + validate + mmap-bind graph and index.
MappedIndex LoadSnapshot(const std::string& path);

// ---- request mixes and reference answers ----------------------------------

/// Every (k, r) with k in [2, 6] and r in {1, 5, 10}.
std::vector<tsd::BatchQuery> ServeMix();
/// Every (k, 10) with k in [2, 6].
std::vector<tsd::BatchQuery> BoundMix();

/// An endless stream of indices into a mix. Each block of mix-size draws is
/// a seeded permutation of the whole mix, so every seed sends each (k, r)
/// equally often and only the order changes with the seed.
class MixStream {
 public:
  MixStream(std::size_t mix_size, std::uint64_t seed);
  std::size_t Next();

 private:
  std::vector<std::size_t> block_;
  std::size_t pos_;
  tsd::Rng rng_;
};

/// Answers every query of `mix` serially on a fresh one-thread session.
std::vector<tsd::TopRResult> SerialReference(
    const tsd::DiversitySearcher& searcher,
    std::span<const tsd::BatchQuery> mix);

/// Vertices, scores and social contexts all equal.
bool SameAnswer(const tsd::TopRResult& a, const tsd::TopRResult& b);

/// Writes the entries of `answers` (no stats) as whitespace-separated text.
void SaveAnswers(const std::string& path,
                 const std::vector<tsd::TopRResult>& answers);
/// Reads what SaveAnswers wrote; throws on a malformed or missing file.
std::vector<tsd::TopRResult> LoadAnswers(const std::string& path);

// ---- server/ ------------------------------------------------------------

/// Outcome of a load phase. Samples cover operations that started and
/// finished inside the measurement window; attempted/failed cover all.
struct LoadResult {
  struct Sample {
    std::int64_t done_ns;
    double latency_ms;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
};

struct ClientConfig {
  std::uint32_t clients = 2;
  std::uint32_t in_flight = 4;  // per client, closed loop
  std::uint64_t seed = 1;
};

/// Closed-loop clients against `loop`. Requests alternate between shards
/// (tenants are drawn from per-shard pools) so shard load does not depend
/// on the seed. Clients submit from now until `stop_ns`, then drain. Every
/// reply must be ok; when `reference` is given it must also equal the
/// reference answer of its (k, r). server.request spans cover submit →
/// reply observed, with a server.Submit child for the admission call.
LoadResult RunServeClients(tsd::ShardedServeLoop& loop,
                           std::span<const tsd::BatchQuery> mix,
                           const std::vector<tsd::TopRResult>* reference,
                           const ClientConfig& config,
                           std::int64_t window_start_ns,
                           const std::atomic<std::int64_t>& stop_ns);

struct EdgeUpdate {
  bool insert = false;
  tsd::VertexId u = 0;
  tsd::VertexId v = 0;
};

/// A remove/re-insert stream over edges of `graph`: step i removes a
/// sampled present edge and re-inserts the edge removed `lag` steps
/// earlier; the tail re-inserts the rest. Every update changes the graph,
/// and applying all of them restores the initial graph.
std::vector<EdgeUpdate> MakeUpdatePlan(const tsd::Graph& graph,
                                       std::uint64_t seed, std::size_t steps,
                                       std::size_t lag = 64);

/// Applies `plan` open-loop at `rate_per_s`, update j due at start_ns +
/// j / rate. Latency runs from the due time to ApplyUpdate's return, so a
/// late updater shows up in it. server.update spans cover due → return
/// (attr lag_ms); their server.ApplyUpdate children carry the index's
/// rebuild and epoch counter deltas. An update that does not apply fails.
LoadResult RunUpdateStream(tsd::LiveUpdateApplier& applier,
                           const tsd::DynamicTsdIndex& index,
                           std::span<const EdgeUpdate> plan, double rate_per_s,
                           std::int64_t start_ns);

}  // namespace perfbench
