// Structured execution tracer emitting Chrome trace-event JSON.
//
// Scoped spans mark phases (CDAG build, schedule execution, segment
// analysis, dominator certification).  Per-event counts (evictions,
// drops, recomputations, closed segments) live in the metrics registry,
// not here.  The output is the Chrome trace-event "JSON object format"
// ({"traceEvents": [...]}) and opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// One gate, at run time: the tracer records nothing until
// Tracer::instance().enable(true).  Benches and `fmmio --out/--trace`
// enable it; library code never does.
//
// Timestamps are steady_clock microseconds relative to tracer creation
// (trace viewers only need relative time; wall clock is never read).
#pragma once

#include <cstddef>
#include <string>

namespace fmm::obs {

/// Thread-safe span buffer with JSON rendering.
class Tracer {
 public:
  static Tracer& instance();

  /// Runtime gate; default off.
  void enable(bool on);
  bool enabled() const;

  void begin(const char* name, const char* category);
  void end(const char* name, const char* category);

  std::size_t num_events() const;
  void clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome
  /// trace-event JSON object format.
  std::string to_json() const;
  void write_file(const std::string& path) const;

 private:
  Tracer();
  void record(const char* name, const char* category, char phase);

  struct Impl;
  Impl* impl_;
};

/// RAII begin/end span pair.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category)
      : name_(name), category_(category) {
    Tracer::instance().begin(name_, category_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { Tracer::instance().end(name_, category_); }

 private:
  const char* name_;
  const char* category_;
};

}  // namespace fmm::obs

#define FMM_TRACE_CONCAT_IMPL(a, b) a##b
#define FMM_TRACE_CONCAT(a, b) FMM_TRACE_CONCAT_IMPL(a, b)
/// Span covering the rest of the enclosing scope — the only tracing
/// interface library code uses.
#define FMM_TRACE_SPAN(name, category)                                     \
  ::fmm::obs::ScopedSpan FMM_TRACE_CONCAT(fmm_trace_span_, __LINE__)(      \
      name, category)
