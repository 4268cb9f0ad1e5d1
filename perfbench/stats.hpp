// Order statistics of the end-to-end samples.
#pragma once

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, p in [0, 1]; 0 for no samples.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// p90, or nothing when fewer than ten samples lie beyond it (fewer
/// than 100 samples): a tail read from fewer points is noise.
std::optional<double> p90_if_supported(const std::vector<double>& samples);

/// Samples this process's resident set every 2 ms on a background thread
/// and keeps the highest value seen since the last take_peak_mb().  The
/// kernel's ru_maxrss only ever grows, so it cannot give the high-water
/// mark of one round or session; with two requests in flight that mark
/// varies from session to session, and the benchmark reports its median.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// The highest resident set since the previous call (or construction),
  /// in MB; starts the next window at the current resident set.
  double take_peak_mb();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;
};

}  // namespace perfbench
