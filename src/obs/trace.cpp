#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.hpp"
#include "common/json.hpp"

namespace fmm::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'B';    // 'B' begin span, 'E' end span
  double ts_us = 0.0;  // microseconds since tracer creation
  std::uint32_t tid = 0;
};

/// Dense per-thread id (Chrome traces want small integers, not
/// std::thread::id hashes).
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

struct Tracer::Impl {
  std::atomic<bool> enabled{false};
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  impl_->enabled.store(on, std::memory_order_release);
}

bool Tracer::enabled() const {
  return impl_->enabled.load(std::memory_order_acquire);
}

void Tracer::record(const char* name, const char* category, char phase) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = phase;
  event.ts_us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - impl_->origin)
                    .count();
  event.tid = current_tid();
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->events.push_back(std::move(event));
}

void Tracer::begin(const char* name, const char* category) {
  record(name, category, 'B');
}

void Tracer::end(const char* name, const char* category) {
  record(name, category, 'E');
}

std::size_t Tracer::num_events() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->events.size();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->events.clear();
}

std::string Tracer::to_json() const {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    bool first = true;
    for (const TraceEvent& e : impl_->events) {
      if (!first) {
        oss << ",";
      }
      first = false;
      oss << "\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
          << json_escape(e.category) << "\",\"ph\":\"" << e.phase
          << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
      char ts[64];
      std::snprintf(ts, sizeof(ts), "%.3f", e.ts_us);
      oss << ts << "}";
    }
  }
  oss << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return oss.str();
}

void Tracer::write_file(const std::string& path) const {
  write_file_checked(path, to_json());
}

}  // namespace fmm::obs
