#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

void RunResult::fail(std::int64_t ops, const std::string& why) {
  failed += ops;
  problems.push_back(why);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p of the samples at
  // or below it.
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::optional<double> p90_if_supported(const std::vector<double>& samples) {
  // At least ten samples must lie above the p90 rank.
  const std::size_t beyond =
      samples.size() - static_cast<std::size_t>(std::ceil(
                           0.9 * static_cast<double>(samples.size())));
  if (samples.empty() || beyond < 10) {
    return std::nullopt;
  }
  return percentile(samples, 0.9);
}

namespace {

long resident_pages() {
  long size = 0;
  long resident = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(statm, "%ld %ld", &size, &resident) != 2) {
      resident = 0;
    }
    std::fclose(statm);
  }
  return resident;
}

}  // namespace

RssSampler::RssSampler()
    : peak_pages_(resident_pages()), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const long now = resident_pages();
          long peak = peak_pages_.load(std::memory_order_relaxed);
          while (now > peak && !peak_pages_.compare_exchange_weak(peak, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

RssSampler::~RssSampler() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

double RssSampler::take_peak_mb() {
  const long now = resident_pages();
  const long peak = std::max(peak_pages_.exchange(now), now);
  return static_cast<double>(peak) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void finish_e2e(const E2eSamples& samples, const std::string& latency_what,
                RunResult& result) {
  result.e2e["setup_s"] = median(samples.setup_s);
  result.e2e["throughput_ops_s"] = median(samples.ops_per_s);
  result.e2e["latency_p50_ms"] = median(samples.latency_ms);
  result.e2e["peak_rss_mb"] = median(samples.peak_rss_mb);

  char line[256];
  std::snprintf(line, sizeof(line),
                "setup_s %.6f s (median of %zu set-ups)", result.e2e["setup_s"],
                samples.setup_s.size());
  result.notes.emplace_back(line);
  std::snprintf(line, sizeof(line),
                "throughput_ops_s %.4f ops/s (median of %zu; %lld ops in "
                "%.3f timed s)",
                result.e2e["throughput_ops_s"], samples.ops_per_s.size(),
                static_cast<long long>(samples.ops), samples.timed_s);
  result.notes.emplace_back(line);
  std::snprintf(line, sizeof(line),
                "latency_p50_ms %.4f ms (%zu samples, one per %s)",
                result.e2e["latency_p50_ms"], samples.latency_ms.size(),
                latency_what.c_str());
  result.notes.emplace_back(line);
  std::string deciles = "latency deciles (ms):";
  for (int d = 1; d <= 9; ++d) {
    std::snprintf(line, sizeof(line), " %.3f",
                  percentile(samples.latency_ms, d / 10.0));
    deciles += line;
  }
  result.notes.push_back(deciles);
  if (const auto p90 = p90_if_supported(samples.latency_ms)) {
    std::snprintf(line, sizeof(line), "latency_p90_ms %.4f ms (%zu samples)",
                  *p90, samples.latency_ms.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "latency_p90_ms not reported (%zu samples; needs >= 100 so "
                  "that >= 10 lie beyond it)",
                  samples.latency_ms.size());
  }
  result.notes.emplace_back(line);
  const double failed_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::snprintf(line, sizeof(line), "failed_frac %.6f (%lld of %lld ops)",
                failed_frac, static_cast<long long>(result.failed),
                static_cast<long long>(result.attempted));
  result.notes.emplace_back(line);
  std::snprintf(line, sizeof(line),
                "peak_rss_mb %.2f MB (median of %zu round/session peaks; "
                "highest %.2f MB)",
                result.e2e["peak_rss_mb"], samples.peak_rss_mb.size(),
                percentile(samples.peak_rss_mb, 1.0));
  result.notes.emplace_back(line);
  if (samples.max_in_flight > 0) {
    std::snprintf(line, sizeof(line), "max_in_flight %d",
                  samples.max_in_flight);
    result.notes.emplace_back(line);
  }
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
