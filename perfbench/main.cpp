// fmm_perfbench — the repository benchmark's binary.
//
//   fmm_perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//   fmm_perfbench --self-test
//
// Runs from the root of a source checkout (scheme files load from
// schemes/; scratch files go under .bench_build/).  Human-readable
// lines come first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced replay with
// --trace 1.  Exit status is 0 only when every output check passed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Digests of the outputs at kDigestSeed: each grid arm's
/// SweepResult::to_json() and the session's responses with ids stripped
/// (serve-cold and fabric-snapshot must answer the same bytes).
const std::pair<const char*, const char*> kDigests[] = {
    {"grid-lru/dfs", "b80fd55a4e661d79"},
    {"grid-lru/random", "9bb6e3e658556388"},
    {"grid-lru/remat", "fd2be6b3947c182c"},
    {"grid-lru/liveness", "91498b542f72ec0e"},
    {"grid-belady/strassen-dfs", "a860c42b1f0e9492"},
    {"grid-belady/strassen-bfs", "cbb2350e0e739c3a"},
    {"grid-belady/laderman-dfs", "36d149edf99555da"},
    {"session", "e8b33f1b0ba253cc"},
};

const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_ops_s", "ops/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::pair<const char*, const char*> kPerLayer[] = {
    {"bilinear.resolve_ms", "ms"},
    {"cdag.build_ms", "ms"},
    {"cdag.builds", "count"},
    {"cdag.vertices_per_s", "vertices/s"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.load_mb_per_s", "MB/s"},
    {"snapshot.publish_ms", "ms"},
    {"snapshot.hit_ratio", "ratio"},
    {"pebble.schedule_ms", "ms"},
    {"pebble.lru_ms", "ms"},
    {"pebble.lru_refs_per_s", "refs/s"},
    {"pebble.remat_ms", "ms"},
    {"pebble.remat_refs_per_s", "refs/s"},
    {"pebble.belady_ms", "ms"},
    {"pebble.belady_refs_per_s", "refs/s"},
    {"pebble.liveness_ms", "ms"},
    {"pebble.optimal_ms", "ms"},
    {"pebble.optimal_states_per_s", "states/s"},
    {"pebble.loads", "count"},
    {"pebble.stores", "count"},
    {"pebble.evictions", "count"},
    {"pebble.recomputations", "count"},
    {"sweep.parallel_efficiency", "ratio"},
    {"service.parse_ms", "ms"},
    {"service.cache_ms", "ms"},
    {"service.render_ms", "ms"},
    {"service.self_ms", "ms"},
    {"service.transport_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_evictions", "count"},
    {"fabric.rtt_ms", "ms"},
    {"fabric.router_ms", "ms"},
    {"fabric.worker_skew", "ratio"},
    {"fabric.requeues", "count"},
    {"layer.bilinear_ms", "ms"},
    {"layer.cdag_ms", "ms"},
    {"layer.snapshot_ms", "ms"},
    {"layer.pebble_ms", "ms"},
    {"layer.sweep_ms", "ms"},
    {"layer.service_ms", "ms"},
    {"layer.fabric_ms", "ms"},
    {"trace.wall_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "fmm_perfbench: %s\nusage: fmm_perfbench --workload "
               "grid-lru|grid-belady|serve-cold|fabric-snapshot --seed N "
               "--seconds S --trace 0|1 [--smoke]\n"
               "       fmm_perfbench --self-test\n",
               problem.c_str());
  std::exit(2);
}

/// Checks of the benchmark's own helpers.
int self_test() {
  std::vector<std::string> failures;
  std::vector<double> samples;
  for (int i = 1; i <= 99; ++i) {
    samples.push_back(i);
  }
  if (p90_if_supported(samples)) {
    failures.emplace_back("p90 reported from 99 samples");
  }
  samples.push_back(100);
  const auto p90 = p90_if_supported(samples);
  if (!p90 || *p90 != 90.0) {
    failures.emplace_back("p90 of 1..100 is not 90");
  }
  if (median({3, 1, 2}) != 2.0 || median({4, 1, 3, 2}) != 2.5) {
    failures.emplace_back("median is wrong");
  }
  for (const bool smoke : {false, true}) {
    for (const std::uint64_t seed : {1, 2, 3, 17}) {
      Options options;
      options.seed = seed;
      options.smoke = smoke;
      if (const std::string why = check_session_shape(options); !why.empty()) {
        failures.push_back("session (seed " + std::to_string(seed) +
                           "): " + why);
      }
    }
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "self-test: %s\n", failure.c_str());
  }
  std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

void print_result(const RunResult& result, bool trace) {
  using Table = std::span<const std::pair<const char*, const char*>>;
  const Table table = trace ? Table(kPerLayer) : Table(kEndToEnd);
  const auto& values = trace ? result.layers : result.e2e;
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  it == values.end() ? 0.0 : it->second);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

std::string expected_digest(const std::string& label) {
  for (const auto& [name, value] : kDigests) {
    if (label == name) {
      return value;
    }
  }
  return "";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--self-test") {
      return self_test();
    } else if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") {
        usage("--trace takes 0 or 1");
      }
      options.trace = trace == "1";
      trace_given = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  const bool grid =
      options.workload == "grid-lru" || options.workload == "grid-belady";
  if (!grid && options.workload != "serve-cold" &&
      options.workload != "fabric-snapshot") {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!trace_given || options.seconds <= 0.0) {
    usage("--trace and a positive --seconds are required");
  }
  if (!std::filesystem::is_directory("schemes")) {
    usage("run from the root of a source checkout (schemes/ not found)");
  }

  // Scratch space inside the checkout, relative so socket paths stay
  // short; removed before exit.
  options.work_dir = ".bench_build/run-" + std::to_string(::getpid());
  options.spans_path = ".bench_build/" + options.workload + ".spans.jsonl";
  std::filesystem::create_directories(options.work_dir);
  RunResult result =
      grid ? run_grid(options) : run_requests(options);
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
  std::printf("workload %s seed %llu trace %d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, options.smoke ? " (smoke)" : "");
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  if (options.trace) {
    std::printf("  spans written to %s\n", options.spans_path.c_str());
  }
  print_result(result, options.trace);
  return result.failed == 0 && result.problems.empty() ? 0 : 1;
}
