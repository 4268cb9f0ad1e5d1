// Metrics registry — named monotonic counters and gauges for the
// simulation stack.
//
// The paper's argument is quantitative (I/O operations per segment,
// dominator sizes, recomputation counts), so the library keeps a global
// registry of everything it counts during a run: pebble loads/stores/
// evictions/recomputations, CDAG vertices and edges built, max-flow
// augmentations, distributed words moved, segments analyzed.  Benches
// and the run-report writer snapshot the registry into versioned JSON so
// bound-constant drift is diffable across PRs.
//
// Increments are relaxed atomics (cheap, thread-safe); metric creation
// takes a mutex once per name.  Hot loops keep a `Counter&` and add to
// it directly, or tally locally and flush once — both patterns keep the
// registry off the critical path.  `reset()` zeroes values but never
// invalidates references, so cached `Counter&` stay usable across runs
// (important for tests that reset between simulations).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace fmm::obs {

/// Monotonic counter (within one run; reset() rewinds it for the next).
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins (set) or high-watermark (record_max) gauge.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if `v` exceeds the current value.
  void record_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  void reset() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::int64_t> value_{0};
};

/// Process-wide registry.
class Registry final {
 public:
  /// The global instance.
  static Registry& instance();

  /// Create-or-get.  Returned references stay valid forever.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// All metrics (counters then gauges merged), sorted by name.
  /// Histograms are deliberately excluded — their distributions don't
  /// flatten to one integer; use histograms() or prometheus_text().
  std::vector<std::pair<std::string, std::int64_t>> snapshot() const;

  /// All histograms, sorted by name.
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms() const;

  /// Prometheus text exposition (version 0.0.4): counters, gauges,
  /// and histograms with cumulative `le` buckets.  Metric names are
  /// prefixed `fmm_` with dots/dashes mapped to underscores.
  std::string prometheus_text() const;

  /// Zeroes every value; names and references survive.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace fmm::obs
