#include "core/query_pipeline.h"

namespace tsd {

QueryWorkspace::QueryWorkspace(const Graph* graph, EgoTrussMethod method)
    : decomposer_(method) {
  if (graph != nullptr) extractor_.emplace(*graph);
}

void QueryWorkspace::Rebind(const Graph& graph) {
  TSD_CHECK_MSG(extractor_.has_value(),
                "index-only workspace cannot be rebound to a graph");
  extractor_->Rebind(graph);
}

EgoNetwork& QueryWorkspace::ExtractEgo(VertexId v) {
  TSD_DCHECK(extractor_.has_value());
  extractor_->ExtractInto(v, &ego_);
  return ego_;
}

EgoNetwork& QueryWorkspace::DecomposeEgo(VertexId v) {
  ExtractEgo(v);
  decomposer_.ComputeInto(ego_, &trussness_);
  return ego_;
}

QueryPipeline::QueryPipeline(const Graph& graph, EgoTrussMethod method,
                             const QueryOptions& options)
    : options_(options) {
  TSD_CHECK(options_.num_threads >= 1);
  workspaces_.reserve(options_.num_threads);
  for (std::uint32_t t = 0; t < options_.num_threads; ++t) {
    workspaces_.push_back(std::make_unique<QueryWorkspace>(&graph, method));
  }
}

QueryPipeline::QueryPipeline(const QueryOptions& options) : options_(options) {
  TSD_CHECK(options_.num_threads >= 1);
  workspaces_.reserve(options_.num_threads);
  for (std::uint32_t t = 0; t < options_.num_threads; ++t) {
    workspaces_.push_back(
        std::make_unique<QueryWorkspace>(nullptr, EgoTrussMethod::kAuto));
  }
}

void QueryPipeline::Rebind(const Graph& graph) {
  for (auto& workspace : workspaces_) workspace->Rebind(graph);
}

std::uint32_t QueryPipeline::ResolveChunks(std::uint64_t total) const {
  // One shared auto-chunk rule (common/parallel.h) keeps pipeline chunking
  // in lock-step with the index builders and the preprocessing kernels.
  return EffectiveChunks(ToParallelConfig(options_), total);
}

std::uint32_t QueryPipeline::ResolveSkipScanChunks(std::uint64_t total) const {
  // The thread count is left out on purpose: see ScoreRangeMulti.
  const std::uint64_t chunks =
      options_.num_chunks != 0 ? options_.num_chunks : kSkipScanChunks;
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, std::min(chunks, total)));
}

QueryPipeline::RoundRamp QueryPipeline::StartRamp(
    std::uint64_t total, std::uint64_t capacity) const {
  const std::uint64_t num_threads = options_.num_threads;
  const std::uint64_t chunk_size =
      (total + ResolveChunks(total) - 1) / ResolveChunks(total);
  const std::uint64_t max_size =
      std::max(chunk_size * num_threads, num_threads);
  return {std::min(max_size,
                   std::max(num_threads * kRampBasePerThread, capacity)),
          max_size};
}

std::uint64_t QueryPipeline::MaxCapacity(
    std::span<TopRCollector* const> collectors) {
  std::uint64_t capacity = 0;
  for (const TopRCollector* collector : collectors) {
    capacity = std::max<std::uint64_t>(capacity, collector->capacity());
  }
  return capacity;
}

QueryPipeline& PipelineCache::For(const Graph& graph, EgoTrussMethod method,
                                  const QueryOptions& options) {
  if (pipeline_ == nullptr || cached_options_ != options ||
      cached_graph_ != &graph || cached_method_ != method) {
    pipeline_ = std::make_unique<QueryPipeline>(graph, method, options);
    cached_options_ = options;
    cached_graph_ = &graph;
    cached_method_ = method;
  }
  return *pipeline_;
}

QueryOptions QueryOptionsFromFlags(const Flags& flags) {
  QueryOptions options;
  options.num_threads = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, flags.GetInt("threads", 1)));
  options.num_chunks = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, flags.GetInt("chunks", 0)));
  return options;
}

}  // namespace tsd
