// Wall-clock timing utilities used by the benchmark harness and the
// SearchStats reported by every searcher.
#pragma once

#include <chrono>

namespace tsd {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last Lap().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Seconds elapsed since construction or the last Lap(), and restarts:
  /// consecutive phases are timed with one clock read each.
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Adds the elapsed lifetime of this object to `*accumulator` (in seconds).
class ScopedTimer {
 public:
  explicit ScopedTimer(double* accumulator) : accumulator_(accumulator) {}
  ~ScopedTimer() { *accumulator_ += timer_.Seconds(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* accumulator_;
  WallTimer timer_;
};

}  // namespace tsd
