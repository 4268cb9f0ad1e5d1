// Shared declarations of the repository benchmark (see README.md).
//
// One process runs one workload.  The end-to-end pass drives the entry
// point users hit (sweep::run_sweep, the QueryService Unix-socket daemon,
// fabric::Router) with the obs tracer never enabled; with --trace 1 the
// same ops are then replayed through the modules' public calls, wrapped
// in the benchmark's own spans (spans.hpp), to split time by layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a single round/session: exercises every code path
  /// in seconds (the self-test uses it).
  bool smoke = false;
  /// Scratch directory for sockets and snapshot stores (inside the
  /// checkout; removed by the caller).
  std::string work_dir;
  /// Where the traced replay writes its spans, one JSON object a line.
  std::string spans_path;
};

/// The seed whose outputs the benchmark carries digests for.
inline constexpr std::uint64_t kDigestSeed = 1;

/// What one workload run produced.  `e2e` holds the end-to-end metrics
/// (trace off); `layers` the per-layer metrics of the traced replay.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  // one line per failed check
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;  // human-readable summary lines

  void fail(std::int64_t ops, const std::string& why);
};

/// Samples of an end-to-end pass, turned into metrics by finish_e2e.
/// The host's speed drifts by tens of percent over seconds, so every
/// metric is a median: of set-ups, of per-round (per-session) throughput,
/// and of latencies.
struct E2eSamples {
  std::vector<double> setup_s;
  /// One per request; on grids one per round (its mean run_sweep call).
  std::vector<double> latency_ms;
  /// One per round (grids) or session (requests): ops / timed seconds.
  std::vector<double> ops_per_s;
  /// One per round or session: its resident high-water mark (RssSampler).
  std::vector<double> peak_rss_mb;
  std::int64_t ops = 0;
  double timed_s = 0.0;
  int max_in_flight = 0;
};

RunResult run_grid(const Options& options);
RunResult run_requests(const Options& options);

/// A fresh process's scheme-registry warm-up: every file: scheme is read,
/// parsed and Brent-verified, and every key resolves.  The process-wide
/// registry keeps its own copy warm after the first set-up, so the file
/// loads are repeated here to charge every set-up what a fresh process
/// pays.
void warm_registry(const std::vector<std::string>& algorithms);

/// Checks the seeded session's shape (ids in order, every repeat at least
/// two requests after its original, about a third repeats); returns the
/// first violation, or "".
std::string check_session_shape(const Options& options);

/// Fills result.e2e (setup_s, throughput_ops_s, latency_p50_ms,
/// peak_rss_mb, each the median of its samples) and the summary notes
/// (p90 when supported, failed_frac, sample counts).  `latency_what`
/// names what one latency sample is.
void finish_e2e(const E2eSamples& samples, const std::string& latency_what,
                RunResult& result);

/// Stable 64-bit FNV-1a digest, rendered as 16 hex digits.
std::string digest(const std::string& bytes);

/// The digest carried for `label` at kDigestSeed ("" when none).
std::string expected_digest(const std::string& label);

/// SplitMix64 step: the benchmark's only source of seeded randomness.
std::uint64_t mix(std::uint64_t x);

double now_s();

}  // namespace perfbench
