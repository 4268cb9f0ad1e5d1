// Monotonic timing: Stopwatch for elapsed time, ScopedNsAccumulator for
// request-telemetry phase slots.
//
// Everything here is std::chrono::steady_clock ONLY: timed paths must
// never consult the wall clock (system_clock can jump under NTP and
// would corrupt measured phase durations and trace timestamps).
#pragma once

#include <chrono>
#include <cstdint>

namespace fmm {

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed nanoseconds since construction / last reset.
  std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// RAII phase accumulator: adds elapsed steady-clock nanoseconds into
/// `*target` on destruction.  It feeds plain int64 slots
/// (request-telemetry phase durations, PhaseFrame fields) without a
/// registry lookup, so it is cheap enough for per-request hot paths.
/// A nullptr target is a no-op.
class ScopedNsAccumulator {
 public:
  explicit ScopedNsAccumulator(std::int64_t* target) : target_(target) {}

  ScopedNsAccumulator(const ScopedNsAccumulator&) = delete;
  ScopedNsAccumulator& operator=(const ScopedNsAccumulator&) = delete;

  ~ScopedNsAccumulator() {
    if (target_ != nullptr) {
      *target_ += watch_.nanoseconds();
    }
  }

 private:
  std::int64_t* target_;
  Stopwatch watch_;
};

}  // namespace fmm
