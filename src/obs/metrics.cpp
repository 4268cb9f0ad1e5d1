#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace fmm::obs {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; dots and dashes in
// registry names map to underscores, everything else unusual becomes
// '_' too.
std::string prometheus_name(std::string_view name) {
  std::string out = "fmm_";
  out.reserve(name.size() + 4);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::snapshot()
    const {
  std::vector<std::pair<std::string, std::int64_t>> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size() + gauges_.size());
    for (const auto& [name, c] : counters_) {
      out.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : gauges_) {
      out.emplace_back(name, g->value());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
Registry::histograms() const {
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.emplace_back(name, h->snapshot());
  }
  return out;  // map iteration order is already sorted by name
}

std::string Registry::prometheus_text() const {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot()) {
    const std::string pname = prometheus_name(name);
    // Counters and gauges share the flat snapshot; recover the kind
    // for the TYPE line by probing which map owns the name.
    const char* kind = "counter";
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (gauges_.find(name) != gauges_.end()) {
        kind = "gauge";
      }
    }
    out << "# TYPE " << pname << ' ' << kind << '\n';
    out << pname << ' ' << value << '\n';
  }
  for (const auto& [name, snap] : histograms()) {
    const std::string pname = prometheus_name(name);
    out << "# TYPE " << pname << " histogram\n";
    // Cumulative buckets up to the highest non-empty bin; +Inf always.
    std::size_t top = 0;
    for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      if (snap.bins[b] > 0) {
        top = b;
      }
    }
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b <= top; ++b) {
      cumulative += snap.bins[b];
      if (HistogramSnapshot::bucket_upper(b) ==
          std::numeric_limits<std::int64_t>::max()) {
        break;  // the +Inf line below covers the saturated bucket
      }
      out << pname << "_bucket{le=\""
          << HistogramSnapshot::bucket_upper(b) << "\"} " << cumulative
          << '\n';
    }
    out << pname << "_bucket{le=\"+Inf\"} " << snap.count << '\n';
    out << pname << "_sum " << snap.sum << '\n';
    out << pname << "_count " << snap.count << '\n';
  }
  return out.str();
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) {
    c->reset();
  }
  for (auto& [name, g] : gauges_) {
    g->reset();
  }
  for (auto& [name, h] : histograms_) {
    h->reset();
  }
}

}  // namespace fmm::obs
