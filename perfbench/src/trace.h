// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer: name, start, end, the span that caused
// it (parent) and the request it belongs to, plus up to six numeric
// attributes (counts and the library's own stage timings measured at the
// same boundary). Each thread appends to its own buffer, so recording
// takes no lock; the buffers are merged when the run ends and written out
// as JSON lines. With tracing off a span costs one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  struct Attr {
    const char* key = nullptr;
    double value = 0;
  };
  static constexpr std::size_t kMaxAttrs = 6;

  const char* name = nullptr;  // string literal, e.g. "core.SearchBatch"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a request
  std::array<Attr, kMaxAttrs> attrs{};
  std::uint32_t num_attrs = 0;

  double duration_ms() const { return (end_ns - start_ns) / 1e6; }
  void Set(const char* key, double value);
  /// The attribute's value; throws if the span does not carry it.
  double Get(std::string_view key) const;
};

class Tracer {
 public:
  static Tracer& Instance();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t NewId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer (no lock after its first span).
  void Record(const Span& span);

  /// Merges every thread's spans, ordered by start time. Call only after
  /// every recording thread has been joined.
  std::vector<Span> Collect() const;

  /// Writes `spans` as one JSON object per line.
  static void WriteJsonLines(const std::vector<Span>& spans,
                             const std::string& path);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // by mutex_
};

/// Records one span covering its own lifetime. The parent defaults to the
/// innermost open ScopedSpan on this thread.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kInheritParent = ~0ULL;

  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      std::uint64_t parent = kInheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  void Set(const char* key, double value) {
    if (active_) span_.Set(key, value);
  }

 private:
  bool active_;
  Span span_;
  std::uint64_t saved_current_ = 0;
};

}  // namespace perfbench
