// fmmio — command-line driver for the library.
//
//   fmmio list
//   fmmio certify  <algorithm> [--out report.json]
//   fmmio bounds   --n N --m M [--p P] [--alg A]
//   fmmio simulate <algorithm> --n N --m M [--schedule dfs|bfs|random]
//                  [--policy lru|opt] [--remat] [--write-cost W]
//                  [--out report.json] [--trace trace.json]
//   fmmio optimal  <algorithm> --n N --m M [--remat]
//                  [--max-states K] [--snapshot-dir DIR]
//                  [--snapshot-budget B] [--out report.json]
//   fmmio cdag     <algorithm> --n N [--dot]
//   fmmio parallel --n N --p P [--m M]
//                  [--faults] [--drop-rate R] [--wipes P@STEP,...]
//                  [--wipe-count K] [--max-retransmissions K] [--seed S]
//                  [--out report.json]
//   fmmio sweep    --alg A[,A2,...] --n N1[,N2,...] --m M1[,M2,...]
//                  [--kinds simulate,liveness,dominator,boundcheck,optimal]
//                  [--schedule dfs|bfs|random] [--policy lru|opt] [--remat]
//                  [--threads T] [--keep-going] [--seed S]
//                  [--max-cell-bytes B] [--checkpoint path.jsonl]
//                  [--checkpoint-every K] [--cache-bytes B] [--resume]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--out report.json]
//   fmmio serve    [--threads T] [--queue Q] [--cache-bytes B]
//                  [--cache-shards S] [--deadline-ticks D]
//                  [--slow-ms MS] [--telemetry-ring N]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--socket PATH] [--out report.json]
//   fmmio worker   [--threads T] [--queue Q] [--cache-bytes B]
//                  [--cache-shards S] [--deadline-ticks D]
//                  [--slow-ms MS] [--telemetry-ring N]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--out report.json]
//   fmmio router   [--workers N] [--queue-depth Q] [--retries K]
//                  [--max-respawns R]
//                  [--transport inproc|process] [--worker-cmd PATH]
//                  [--kill K@J,...] [--drop-rate R] [--chaos-seed S]
//                  [--queue Q] [--cache-bytes B]
//                  [--cache-shards S] [--deadline-ticks D]
//                  [--slow-ms MS] [--telemetry-ring N]
//                  [--snapshot-dir DIR] [--snapshot-budget B]
//                  [--out report.json]
//   fmmio query    --op OP [--id I] [--alg A] [--n N] [--m M] [--p P]
//                  [--schedule dfs|bfs|random] [--policy lru|opt]
//                  [--remat] [--seed S] [--connect SOCKET] [--print]
//   fmmio metrics  [--connect SOCKET]
//   fmmio tail     --connect SOCKET [--limit N] [--slow]
//   fmmio scheme   verify <name-or-file> [...] | export <name>
//                  [--name NEWNAME] [--out scheme.json]
//   fmmio version
//
// Algorithms: any scheme registry key (docs/SCHEMES.md) — the catalog
//             (strassen, winograd, strassen-dual, strassen-perm,
//             winograd-dual, classic, classic-<n>x<m>x<p>,
//             strassen-squared), the alternative-basis variants
//             strassen-alt / winograd-alt (docs/SWEEPS.md), or
//             `file:scheme.json` naming an fmm.scheme file, loaded and
//             Brent-verified on first use.  `fmmio scheme` verifies and
//             exports such files.
//
// `serve` answers newline-delimited JSON queries on stdin (or a Unix
// socket) through a content-addressed CDAG/result cache; `query`
// composes one request and either answers it in-process (same cache
// code path) or sends it to a running daemon (docs/SERVICE.md).
// `router` shards the same protocol across N supervised workers with
// requeue-on-death and seeded chaos (docs/FABRIC.md); `worker` is the
// stdin/stdout daemon the process transport spawns.  serve, worker and
// router all drain gracefully on SIGTERM/SIGINT: in-flight requests
// are answered (responded == requests) before exit.
// `metrics` scrapes a daemon's Prometheus-style text exposition and
// `tail` streams its recent-request / slow-query spans as NDJSON
// (docs/OBSERVABILITY.md; `tools/fmm_top.py` builds a live dashboard
// on the same two ops).
//
// --out writes a versioned JSON run report (docs/OBSERVABILITY.md);
// --out or --trace also enables the tracer and writes its spans as
// Chrome trace-event JSON viewable in Perfetto (--trace names the file;
// the default is the report path with .trace.json).
//
// A flag the command does not read (above) exits 2 with one usage line
// before the command runs.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "bilinear/catalog.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "bounds/formulas.hpp"
#include "bounds/report.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "graph/csr.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/caps.hpp"
#include "parallel/distsim.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/optimal.hpp"
#include "resilience/fault.hpp"
#include "service/service.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace fmm;

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool has(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) {
        return true;
      }
    }
    return false;
  }

  std::string get(const std::string& name, const std::string& fallback)
      const {
    for (const auto& [key, value] : flags) {
      if (key == name) {
        return value;
      }
    }
    return fallback;
  }

  std::int64_t get_int(const std::string& name, std::int64_t fallback)
      const {
    const std::string raw = get(name, "");
    return raw.empty() ? fallback : std::atoll(raw.c_str());
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      std::string value = "true";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      args.flags.emplace_back(token.substr(2), value);
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

/// One actionable line on stderr, then exit 2 — argument errors should
/// not surface as CheckError stack noise from deep inside the library.
[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "fmmio: %s\n", message.c_str());
  std::exit(2);
}

/// An integer flag: --name, `fallback` when absent, and a usage error
/// below `min`.  `meaning` glosses the low end in that error ("0 =
/// unlimited"), or is empty.
struct IntFlag {
  const char* name;
  std::int64_t fallback;
  std::int64_t min;
  const char* meaning;
};

std::int64_t read_int(const Args& args, const char* command,
                      const IntFlag& flag) {
  const std::int64_t value = args.get_int(flag.name, flag.fallback);
  if (value < flag.min) {
    std::string message = std::string(command) + ": --" + flag.name +
                          " must be >= " + std::to_string(flag.min);
    if (*flag.meaning != '\0') {
      message += std::string(" (") + flag.meaning + ")";
    }
    usage_error(message + ", got " + std::to_string(value));
  }
  return value;
}

/// --drop-rate: a probability in [0, 1).
double read_drop_rate(const Args& args, const char* command) {
  const double rate = std::atof(args.get("drop-rate", "0").c_str());
  if (rate < 0.0 || rate >= 1.0) {
    usage_error(std::string(command) + ": --drop-rate must be in [0, 1), "
                "got " + args.get("drop-rate", "0"));
  }
  return rate;
}

/// --n for CDAG-shaped commands: positive power of two.
std::int64_t require_pow2_n(const Args& args, std::int64_t fallback,
                            const char* command) {
  const std::int64_t n = args.get_int("n", fallback);
  if (!is_power_of(n, 2)) {
    usage_error(std::string(command) + ": --n must be a positive power of "
                "two, got " + std::to_string(n));
  }
  return n;
}

/// The scheme's base dim; a rectangular scheme, which has no square
/// base and so no H^{n x n}, is a usage error.
std::int64_t require_square_base(const bilinear::SchemeTraits& traits,
                                 const std::string& command) {
  if (traits.base < 2) {
    usage_error(command + ": scheme '" + traits.name + "' is rectangular; "
                "the recursive n x n construction needs a square base "
                "scheme");
  }
  return static_cast<std::int64_t>(traits.base);
}

/// --n for scheme-recursive commands: positive power of the scheme's
/// base dim.  When --n is omitted and the power-of-two fallback does
/// not fit the scheme (base 3 and up), base² is used instead.
std::int64_t require_base_n(const Args& args, std::int64_t fallback,
                            const char* command,
                            const bilinear::SchemeTraits& traits) {
  const std::int64_t base = require_square_base(traits, command);
  std::int64_t n = args.get_int("n", fallback);
  if (!args.has("n") && !is_power_of(n, base)) {
    n = base * base;
  }
  if (!is_power_of(n, base)) {
    usage_error(std::string(command) + ": --n must be a power of the "
                "scheme's base dim " + std::to_string(base) + ", got " +
                std::to_string(n));
  }
  return n;
}

/// Registry-backed scheme lookup (catalog names, classic-NxMxP, -alt
/// variants, file:scheme.json): the traits (base dim, rank, ω0,
/// fingerprint).  Unknown names and invalid scheme files are one-line
/// usage errors, not CheckError stack traces.
bilinear::SchemeTraits pick_traits(const std::string& name) {
  try {
    return sweep::resolve_traits(name);
  } catch (const CheckError& e) {
    usage_error(e.what());
  }
}

/// The <algorithm> positional of certify/simulate/optimal/cdag and its
/// traits, resolved like pick_traits; without one, prints the `usage`
/// line and exits 2.
std::pair<bilinear::BilinearAlgorithm, bilinear::SchemeTraits>
pick_positional(const Args& args, const char* usage) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: fmmio %s\n", usage);
    std::exit(2);
  }
  try {
    return {sweep::resolve_algorithm(args.positional[1]),
            sweep::resolve_traits(args.positional[1])};
  } catch (const CheckError& e) {
    usage_error(e.what());
  }
}

/// --schedule dfs|bfs|random and --policy lru|opt into `spec`, shared
/// by simulate and sweep; an unknown name is a one-line usage error.
void read_schedule_flags(const Args& args, const char* command,
                         sweep::SweepSpec& spec) {
  const std::string schedule = args.get("schedule", "dfs");
  if (schedule == "bfs") {
    spec.schedule = sweep::SchedulePolicy::kBfs;
  } else if (schedule == "random") {
    spec.schedule = sweep::SchedulePolicy::kRandom;
  } else if (schedule != "dfs") {
    usage_error(std::string(command) + ": --schedule must be dfs, bfs or "
                "random, got '" + schedule + "'");
  }
  const std::string policy = args.get("policy", "lru");
  if (policy == "opt") {
    spec.replacement = pebble::ReplacementPolicy::kBelady;
  } else if (policy != "lru") {
    usage_error(std::string(command) + ": --policy must be lru or opt, "
                "got '" + policy + "'");
  }
}

/// Report/trace plumbing shared by subcommands: reads --out/--trace/
/// --seed, and runtime-enables tracing when a destination exists.
obs::ReportCli report_cli_from(const Args& args) {
  obs::ReportCli cli;
  cli.out_path = args.get("out", "");
  cli.trace_path = args.get("trace", "");
  cli.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (!cli.out_path.empty() || !cli.trace_path.empty()) {
    obs::Tracer::instance().enable(true);
  }
  return cli;
}

constexpr IntFlag kCacheBytesFlag{"cache-bytes", 256ll << 20, 0,
                                  "0 = no retention"};
constexpr IntFlag kSnapshotBudgetFlag{"snapshot-budget", 0, 0,
                                      "0 = unlimited"};

/// --snapshot-dir DIR for commands that mount the shared on-disk
/// snapshot store (docs/SNAPSHOTS.md).
std::string require_snapshot_dir(const Args& args, const char* command) {
  const std::string dir = args.get("snapshot-dir", "");
  if (dir.empty() || dir == "true") {
    usage_error(std::string(command) +
                ": --snapshot-dir wants a directory path");
  }
  return dir;
}

/// The optional store for single-shot commands (sweep/optimal); serve
/// and router configure theirs through ServiceConfig instead.
std::unique_ptr<snapshot::SnapshotStore> snapshot_store_from(
    const Args& args, const char* command) {
  if (!args.has("snapshot-dir")) {
    return nullptr;
  }
  snapshot::SnapshotStoreConfig config;
  config.directory = require_snapshot_dir(args, command);
  config.byte_budget =
      static_cast<std::uint64_t>(read_int(args, command, kSnapshotBudgetFlag));
  return std::make_unique<snapshot::SnapshotStore>(config);
}

/// The integer flags that shape a QueryService.  Together with
/// --snapshot-dir they are exactly what service_config_from reads and
/// what `router --transport process` forwards to its worker processes.
/// --threads is not one of them: only serve and worker start a pool.
constexpr IntFlag kServiceFlags[] = {
    {"queue", 256, 0, ""},
    kCacheBytesFlag,
    {"cache-shards", 8, 1, ""},
    {"deadline-ticks", 0, 0, "0 = no deadline"},
    {"slow-ms", 100, 0, "0 logs every request as slow"},
    {"telemetry-ring", 256, 1, ""},
    kSnapshotBudgetFlag,
};

service::ServiceConfig service_config_from(const Args& args,
                                           const char* command) {
  const auto value = [&](std::string_view name) {
    for (const IntFlag& flag : kServiceFlags) {
      if (name == flag.name) {
        return read_int(args, command, flag);
      }
    }
    throw CheckError("fmmio: --" + std::string(name) +
                     " is missing from kServiceFlags");
  };
  service::ServiceConfig config;
  config.max_queue = static_cast<std::size_t>(value("queue"));
  config.cache.memory_budget_bytes =
      static_cast<std::size_t>(value("cache-bytes"));
  config.cache.shards = static_cast<std::size_t>(value("cache-shards"));
  config.deadline_ticks = value("deadline-ticks");
  config.slow_ms = value("slow-ms");
  config.telemetry_ring = static_cast<std::size_t>(value("telemetry-ring"));
  config.snapshot_budget_bytes =
      static_cast<std::uint64_t>(value("snapshot-budget"));
  if (args.has("snapshot-dir")) {
    config.snapshot_dir = require_snapshot_dir(args, command);
  }
  return config;
}

int cmd_list() {
  Table table({"Name", "Base", "Products", "Base adds", "Leading coef",
               "omega"});
  const auto row = [&](const bilinear::BilinearAlgorithm& alg) {
    table.begin_row();
    table.add_cell(alg.name());
    table.add_cell(std::to_string(alg.n()) + "x" + std::to_string(alg.m()) +
                   "x" + std::to_string(alg.p()));
    table.add_cell(alg.num_products());
    table.add_cell(alg.base_linear_ops());
    table.add_cell(alg.is_square() && alg.num_products() > alg.n() * alg.p()
                       ? format_double(alg.leading_coefficient())
                       : std::string("-"));
    table.add_cell(alg.is_square() ? format_double(alg.omega())
                                   : std::string("-"));
  };
  for (const auto& alg : bilinear::all_fast_2x2_algorithms()) {
    row(alg);
  }
  row(bilinear::classic(2, 2, 2));
  row(bilinear::strassen_squared());
  row(bilinear::strassen_bordered_3x3());
  row(bilinear::rect_2x2x4());
  table.print_console(std::cout);
  return 0;
}

int cmd_certify(const Args& args) {
  const auto [alg, traits] = pick_positional(args, "certify <algorithm>");
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  std::printf("Certifying %s\n", alg.name().c_str());
  std::printf("  Scheme: <%zu,%zu,%zu;%zu>  fingerprint %s\n", traits.n,
              traits.m, traits.p, traits.rank, traits.fingerprint.c_str());
  std::printf("  Brent equations:        %s\n",
              alg.is_valid() ? "PASS" : "FAIL");
  if (alg.n() * alg.m() == 4) {
    for (const auto side : {bilinear::Side::kA, bilinear::Side::kB}) {
      const auto cert = bounds::certify_encoder(alg, side);
      std::printf("  Lemmas 3.1-3.3 (%c):     %s%s%s\n",
                  side == bilinear::Side::kA ? 'A' : 'B',
                  cert.all_pass() ? "PASS" : "FAIL",
                  cert.failure.empty() ? "" : " — ",
                  cert.failure.c_str());
    }
    const auto hk = bounds::certify_hopcroft_kerr(alg);
    std::printf("  Hopcroft-Kerr sets:     %s\n",
                hk.pass ? "PASS" : "FAIL");
  }
  bool dom_checked = false;
  bool dom_all_hold = false;
  double dom_worst_ratio = 0.0;
  if (traits.base >= 2) {
    // Three recursion levels of the scheme's own base dim (8 for 2x2
    // schemes, 27 for 3x3) — rectangular bases have no H^{n x n}.
    const std::size_t n = traits.base * traits.base * traits.base;
    const cdag::Cdag cdag = cdag::build_cdag(alg, n);
    Rng rng(1);
    const auto dom = bounds::certify_dominator_bound(
        cdag, 2, 5, bounds::ZChoice::kUniformRandom, rng);
    dom_checked = true;
    dom_all_hold = dom.all_hold;
    dom_worst_ratio = dom.worst_ratio;
    std::printf("  Lemma 3.7 (H^{%zux%zu}):    %s (worst ratio %.2f)\n", n, n,
                dom.all_hold ? "PASS" : "FAIL", dom.worst_ratio);
  } else {
    std::printf("  Lemma 3.7:              skipped (rectangular base)\n");
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.certify");
    bounds::certify_algorithm(alg).attach_to(report);
    report.set_param("scheme_fingerprint", traits.fingerprint);
    if (dom_checked) {
      report.set_result("dominator_lemma37", dom_all_hold);
      report.set_result("dominator_worst_ratio", dom_worst_ratio);
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_bounds(const Args& args) {
  const auto flag = [&](const IntFlag& spec) {
    return static_cast<double>(read_int(args, "bounds", spec));
  };
  const double n = flag({"n", 4096, 1, ""});
  const double m = flag({"m", 4096, 1, ""});
  const double p = flag({"p", 1, 1, ""});
  const std::string alg = args.get("alg", "strassen");
  const bilinear::SchemeTraits traits = pick_traits(alg);
  require_square_base(traits, "bounds");
  const bounds::MmParams params{n, m, p};
  std::printf("Lower bounds at n=%g, M=%g, P=%g (%s, omega0=%s):\n", n, m,
              p, traits.name.c_str(), format_double(traits.omega0).c_str());
  std::printf("  classic  mem-dep:   %.4g\n",
              bounds::classic_memory_dependent(params));
  std::printf("  classic  mem-indep: %.4g\n",
              bounds::classic_memory_independent(params));
  std::printf("  fast     mem-dep:   %.4g   (holds with recomputation)\n",
              bounds::fast_memory_dependent(params, traits));
  std::printf("  fast     mem-indep: %.4g   (holds with recomputation)\n",
              bounds::fast_memory_independent(params, traits));
  std::printf("  fast     parallel:  %.4g   (Theorem 1.1 max{})\n",
              bounds::fast_parallel_bound(params, traits));
  if (p > 1) {
    std::printf("  crossover P*:       %.4g\n",
                bounds::parallel_crossover_p(n, m, traits.omega0));
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const auto [alg, traits] =
      pick_positional(args, "simulate <algorithm> --n N --m M");
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  const auto n =
      static_cast<std::size_t>(require_base_n(args, 16, "simulate", traits));
  const std::int64_t m =
      read_int(args, "simulate", {"m", 64, 2, "fast memory words"});
  // A one-cell sweep, built as the service builds a simulate request, so
  // simulate, query, sweep and serve agree on every cell.
  sweep::SweepSpec spec;
  spec.algorithms = {args.positional[1]};
  spec.n_grid = {n};
  spec.m_grid = {m};
  read_schedule_flags(args, "simulate", spec);
  spec.remat = args.has("remat");
  spec.base_seed = cli.seed;
  const cdag::Cdag cdag = cdag::build_cdag(alg, n);
  const pebble::SimResult result =
      sweep::run_simulation(sweep::enumerate_tasks(spec)[0], cdag, spec);
  // The write cost weighs only this tally; it steers no eviction.
  const std::int64_t weighted_io =
      result.loads + args.get_int("write-cost", 1) * result.stores;

  const double bound = bounds::fast_memory_dependent(
      {static_cast<double>(n), static_cast<double>(m), 1}, traits);
  const char* schedule_kind = sweep::schedule_policy_name(spec.schedule);
  std::printf("%s on H^{%zux%zu}, M=%lld, schedule=%s%s\n",
              alg.name().c_str(), n, n, static_cast<long long>(m),
              schedule_kind, spec.remat ? " + remat" : "");
  std::printf("  loads=%lld stores=%lld total=%lld weighted=%lld "
              "recomputes=%lld\n",
              static_cast<long long>(result.loads),
              static_cast<long long>(result.stores),
              static_cast<long long>(result.total_io()),
              static_cast<long long>(weighted_io),
              static_cast<long long>(result.recomputations));
  std::printf("  bound=%.4g  measured/bound=%.2fx\n", bound,
              static_cast<double>(result.total_io()) / bound);
  if (!spec.remat) {
    std::printf("  zero-spill memory requirement of this schedule: %zu\n",
                pebble::liveness_profile(cdag, result.summary.compute_order)
                    .peak);
  }
  // Segment analysis when the configuration admits it.
  bool have_segments = false;
  bool segments_hold = false;
  std::size_t num_segments = 0;
  try {
    const auto analysis = bounds::analyze_segments(cdag, result.summary, m);
    have_segments = true;
    segments_hold = analysis.all_segments_hold;
    num_segments = analysis.segments.size();
    std::printf("  Lemma 3.6 segments: %zu, all >= M I/O: %s\n",
                num_segments, segments_hold ? "yes" : "NO");
  } catch (const CheckError&) {
    // M not a usable segment size for this n — fine.
    FMM_LOG_DEBUG("segment analysis skipped: M=" << m
                                                 << " not usable at n=" << n);
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.simulate");
    report.set_param("algorithm", alg.name());
    report.set_param("scheme_fingerprint", traits.fingerprint);
    report.set_param("omega0", format_double(traits.omega0));
    report.set_param("n", static_cast<std::int64_t>(n));
    report.set_param("m", m);
    report.set_param("schedule", schedule_kind);
    report.set_param("policy", args.get("policy", "lru"));
    report.set_param("remat", spec.remat ? "true" : "false");
    report.set_param("seed", static_cast<std::int64_t>(cli.seed));
    report.set_result("loads", result.loads);
    report.set_result("stores", result.stores);
    report.set_result("total_io", result.total_io());
    report.set_result("weighted_io", weighted_io);
    report.set_result("computations", result.computations);
    report.set_result("recomputations", result.recomputations);
    if (have_segments) {
      report.set_result("lemma36_segments",
                        static_cast<std::int64_t>(num_segments));
      report.set_result("lemma36_all_hold", segments_hold);
    }
    report.add_bound_check("fast_memory_dependent", bound,
                           static_cast<double>(result.total_io()));
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_optimal(const Args& args) {
  const auto [alg, traits] = pick_positional(
      args, "optimal <algorithm> --n N --m M [--remat] [--max-states K] "
            "[--snapshot-dir DIR] [--out report.json]");
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  const auto n =
      static_cast<std::size_t>(require_base_n(args, 2, "optimal", traits));
  const std::int64_t m =
      read_int(args, "optimal", {"m", 8, 1, "fast memory words"});

  pebble::OptimalPebbleOptions options;
  options.cache_size = m;
  options.allow_recomputation = args.has("remat");
  const std::int64_t max_states = read_int(
      args, "optimal",
      {"max-states",
       static_cast<std::int64_t>(pebble::OptimalPebbleOptions{}.max_states),
       1, ""});
  options.max_states = static_cast<std::size_t>(max_states);
  // Same certified floor the sweep layer injects: Theorem 1.1's closed
  // form divided by the repo's certified slack (sweep::kBoundSlack).
  const double floor_bound = std::ceil(
      bounds::fast_memory_dependent(
          {static_cast<double>(n), static_cast<double>(m), 1}, traits) /
      sweep::kBoundSlack);
  options.root_lower_bound = static_cast<std::int64_t>(floor_bound);

  // With a snapshot store mounted, the service's source reuses a
  // published frozen CDAG (or publishes the one it builds) — the search
  // dominates runtime, but at large n the build is minutes per process.
  const std::unique_ptr<snapshot::SnapshotStore> snapshot_store =
      snapshot_store_from(args, "optimal");
  service::ContentCache cache;
  const std::shared_ptr<const cdag::Cdag> cdag =
      service::CachingCdagSource(cache, snapshot_store.get())
          .get_cdag(args.positional[1], n);
  pebble::OptimalPebbleResult result;
  try {
    result = pebble::optimal_io(pebble::to_instance(*cdag), options);
  } catch (const pebble::InfeasibleError& e) {
    std::fprintf(stderr, "optimal: infeasible: %s\n", e.what());
    return 1;
  }

  const char* optimality = pebble::optimality_name(result.optimality);
  std::printf("%s on H^{%zux%zu}, M=%lld, recomputation %s\n",
              alg.name().c_str(), n, n, static_cast<long long>(m),
              args.has("remat") ? "allowed" : "forbidden");
  std::printf("  min_io=%lld (%s)  states_explored=%zu\n",
              static_cast<long long>(result.min_io), optimality,
              result.states_explored);
  std::printf("  certified floor=%lld  holds=%s\n",
              static_cast<long long>(options.root_lower_bound),
              result.min_io >= options.root_lower_bound ? "yes" : "NO");
  if (result.optimality ==
      pebble::OptimalPebbleResult::Optimality::kBudgetExceeded) {
    std::printf("  state budget %lld exceeded: min_io is a certified "
                "LOWER bound, not the optimum\n",
                static_cast<long long>(max_states));
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.optimal");
    report.set_param("algorithm", alg.name());
    report.set_param("scheme_fingerprint", traits.fingerprint);
    report.set_param("n", static_cast<std::int64_t>(n));
    report.set_param("m", m);
    report.set_param("remat", args.has("remat") ? "true" : "false");
    report.set_param("max_states", max_states);
    report.set_result("min_io", result.min_io);
    report.set_result("states_explored",
                      static_cast<std::int64_t>(result.states_explored));
    report.set_result("optimality", optimality);
    report.set_result("lower_bound", options.root_lower_bound);
    report.set_result("bound_holds",
                      result.min_io >= options.root_lower_bound);
    if (snapshot_store != nullptr) {
      report.set_param("snapshot_dir", snapshot_store->directory());
      report.add_raw_section("snapshot", snapshot_store->stats_json());
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_cdag(const Args& args) {
  const auto [alg, traits] =
      pick_positional(args, "cdag <algorithm> --n N [--dot [--force]]");
  const auto n =
      static_cast<std::size_t>(require_base_n(args, 4, "cdag", traits));
  // Every count is closed-form: the census answers without a build.
  const cdag::CdagCensus counts = cdag::census(alg, n);
  if (args.has("dot")) {
    // Large CDAGs render to unusable multi-GB DOT; require --force, and
    // refuse before building anything.
    if (counts.vertices > graph::kDotVertexLimit && !args.has("force")) {
      usage_error("cdag: DOT output of " + std::to_string(counts.vertices) +
                  " vertices exceeds " +
                  std::to_string(graph::kDotVertexLimit) +
                  "; pass --force to render it");
    }
    std::cout << cdag::build_cdag(alg, n).to_dot(args.has("force"));
    return 0;
  }
  std::printf("H^{%zux%zu} of %s: %zu vertices, %zu edges\n", n, n,
              alg.name().c_str(), counts.vertices, counts.edges);
  for (const auto& [role, count] : counts.roles) {
    std::printf("  %-5s %zu\n", cdag::role_name(role), count);
  }
  for (const auto& [r, count] : counts.levels) {
    std::printf("  SUB_H^{%zux%zu}: %zu sub-problems, %zu output "
                "vertices\n",
                r, r, count, count * r * r);
  }
  return 0;
}

std::vector<std::string> split_csv(const std::string& raw) {
  std::vector<std::string> items;
  std::string current;
  for (const char ch : raw) {
    if (ch == ',') {
      if (!current.empty()) {
        items.push_back(current);
      }
      current.clear();
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    items.push_back(current);
  }
  return items;
}

/// --<flag> "A@B[,A@B...]" as (A, B) pairs of integers >= 0; any other
/// entry is a one-line usage error spelling the expected `shape`.
std::vector<std::pair<std::int64_t, std::int64_t>> read_at_pairs(
    const Args& args, const char* command, const char* flag,
    const char* shape) {
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (const std::string& item : split_csv(args.get(flag, ""))) {
    const std::size_t at = item.find('@');
    std::int64_t first = -1;
    std::int64_t second = -1;
    try {
      first = std::stoll(item.substr(0, at));
      second = std::stoll(item.substr(at + 1));
    } catch (const std::exception&) {
    }
    if (at == std::string::npos || first < 0 || second < 0) {
      usage_error(std::string(command) + ": --" + flag + " wants " + shape +
                  ", got '" + item + "'");
    }
    pairs.emplace_back(first, second);
  }
  return pairs;
}

int cmd_parallel(const Args& args) {
  const std::int64_t n = require_pow2_n(args, 1024, "parallel");
  const std::int64_t p = args.get_int("p", 49);
  const std::int64_t m =
      read_int(args, "parallel", {"m", 0, 0, "0 = unlimited"});
  if (!is_power_of(p, 7)) {
    usage_error("parallel: --p must be a power of 7 (CAPS splits the "
                "machine 7-way per BFS step), got " + std::to_string(p));
  }
  // n*n < p, phrased to survive huge --n: for n >= 1, p >= 1 this is
  // exactly (p - 1) / n >= n, with no overflowing square.
  if ((p - 1) / n >= n) {
    usage_error("parallel: need n^2 >= P (one element per processor); "
                "got n=" + std::to_string(n) + ", P=" + std::to_string(p));
  }
  const bool faulted = args.has("faults") || args.has("drop-rate") ||
                       args.has("wipes") || args.has("wipe-count");
  const auto model = parallel::simulate_caps(n, p, m);
  std::printf("CAPS model: n=%lld P=%lld M=%s\n",
              static_cast<long long>(n), static_cast<long long>(p),
              m == 0 ? "unlimited" : std::to_string(m).c_str());
  std::printf("  words/proc=%lld  bfs=%d dfs=%d  peak mem=%lld  "
              "feasible=%s\n",
              static_cast<long long>(model.words_per_proc),
              model.bfs_steps, model.dfs_steps,
              static_cast<long long>(model.peak_memory_words),
              model.feasible ? "yes" : "no");
  if (n <= 512) {
    const auto exact = parallel::simulate_caps_elementwise(n, p);
    std::printf("  element-level exact: max words/proc=%lld total=%lld\n",
                static_cast<long long>(exact.max_words_per_proc()),
                static_cast<long long>(exact.total_words()));
  }
  const double bound = bounds::fast_parallel_bound(
      {static_cast<double>(n),
       m == 0 ? static_cast<double>(model.peak_memory_words)
              : static_cast<double>(m),
       static_cast<double>(p)},
      kOmega0);
  std::printf("  Theorem 1.1 bound: %.4g\n", bound);

  if (faulted) {
    if (n > 512) {
      usage_error("parallel: fault injection runs the element-level "
                  "simulator; --n must be <= 512, got " + std::to_string(n));
    }
    if (p < 7) {
      usage_error("parallel: fault injection needs a distributed run "
                  "(--p >= 7); P=" + std::to_string(p) +
                  " keeps everything local");
    }
    const double drop_rate = read_drop_rate(args, "parallel");
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::int64_t max_retransmissions =
        read_int(args, "parallel", {"max-retransmissions", 64, 1, ""});
    resilience::FaultSpec fault_spec;
    if (args.has("wipes")) {
      fault_spec.seed = seed;
      fault_spec.message_drop_rate = drop_rate;
      for (const auto& [processor, step] :
           read_at_pairs(args, "parallel", "wipes",
                         "PROC@STEP[,PROC@STEP...] (both >= 0)")) {
        if (processor >= p) {
          usage_error("parallel: --wipes targets processor " +
                      std::to_string(processor) + ", but --p is " +
                      std::to_string(p));
        }
        fault_spec.wipes.push_back(
            {static_cast<int>(processor), static_cast<int>(step)});
      }
    } else {
      const auto wipe_count = static_cast<int>(
          read_int(args, "parallel", {"wipe-count", 1, 0, ""}));
      // Draw the chaos schedule over the steps the recursion will
      // actually reach (known from a clean dry run).
      const auto clean = parallel::simulate_caps_elementwise(n, p);
      fault_spec = resilience::FaultSpec::random_schedule(
          seed, static_cast<int>(p), std::max(1, clean.bfs_steps),
          wipe_count, drop_rate);
    }
    fault_spec.max_retransmissions =
        static_cast<int>(max_retransmissions);
    const auto fr =
        parallel::simulate_caps_elementwise_faulted(n, p, fault_spec);
    std::printf("  fault injection: seed=%llu drop-rate=%g wipes=%zu "
                "(applied %zu)\n",
                static_cast<unsigned long long>(fault_spec.seed),
                fault_spec.message_drop_rate, fault_spec.wipes.size(),
                fr.events.size());
    for (const resilience::FaultEvent& event : fr.events) {
      std::printf("    wipe p%d @ step %d: %lld words recovered by "
                  "recomputation\n",
                  event.processor, event.step,
                  static_cast<long long>(event.recovered_words));
    }
    std::printf("    fault-free max words/proc=%lld  faulted=%lld  "
                "(retransmit=%lld recovery=%lld)\n",
                static_cast<long long>(fr.fault_free.max_words_per_proc()),
                static_cast<long long>(fr.faulted.max_words_per_proc()),
                static_cast<long long>(fr.retransmitted_words),
                static_cast<long long>(fr.recovery_words));
    std::printf("    faulted >= fault-free: %s   both >= Theorem 1.1 "
                "bound (%.4g): %s\n",
                fr.faulted_dominates_fault_free ? "yes" : "NO",
                fr.parallel_lower_bound, fr.bound_holds ? "yes" : "NO");

    const obs::ReportCli cli = report_cli_from(args);
    if (cli.wants_report() || !cli.trace_path.empty()) {
      obs::RunReport report("fmmio.parallel");
      report.set_param("n", n);
      report.set_param("p", p);
      report.set_param("m", m);
      report.set_param("seed", static_cast<std::int64_t>(fault_spec.seed));
      report.set_result("fault_free_max_words",
                        fr.fault_free.max_words_per_proc());
      report.set_result("faulted_max_words",
                        fr.faulted.max_words_per_proc());
      report.set_result("retransmitted_words", fr.retransmitted_words);
      report.set_result("recovery_words", fr.recovery_words);
      report.set_result("faulted_dominates_fault_free",
                        fr.faulted_dominates_fault_free);
      report.add_bound_check(
          "fast_parallel_memory_independent", fr.parallel_lower_bound,
          static_cast<double>(fr.faulted.max_words_per_proc()));
      std::ostringstream resilience_oss;
      resilience_oss << "{\n";
      resilience_oss << "      \"schema\": \"fmm.resilience\",\n";
      resilience_oss << "      \"schema_version\": 1,\n";
      resilience_oss << "      \"seed\": " << fault_spec.seed << ",\n";
      resilience_oss << "      \"message_drop_rate\": "
                     << fault_spec.message_drop_rate << ",\n";
      resilience_oss << "      \"retransmitted_words\": "
                     << fr.retransmitted_words << ",\n";
      resilience_oss << "      \"recovery_words\": " << fr.recovery_words
                     << ",\n";
      resilience_oss << "      \"bound_holds\": "
                     << (fr.bound_holds ? "true" : "false") << ",\n";
      resilience_oss << "      \"fault_events\": "
                     << resilience::fault_events_to_json(fr.events)
                     << "\n    }";
      report.add_raw_section("resilience", resilience_oss.str());
      obs::finalize_run(cli, report);
    }
    return fr.bound_holds && fr.faulted_dominates_fault_free ? 0 : 1;
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.has("alg") || !args.has("n") || !args.has("m")) {
    std::fprintf(stderr,
                 "usage: fmmio sweep --alg A[,A2] --n N1[,N2] --m M1[,M2] "
                 "[--kinds simulate,liveness,dominator,boundcheck,optimal] "
                 "[--schedule dfs|bfs|random] [--policy lru|opt] [--remat] "
                 "[--threads T] [--keep-going] [--seed S] "
                 "[--max-cell-bytes B] [--checkpoint path.jsonl] [--resume] "
                 "[--out r.json]\n");
    return 2;
  }
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();

  sweep::SweepSpec spec;
  spec.algorithms = split_csv(args.get("alg", ""));
  for (const std::string& n : split_csv(args.get("n", ""))) {
    const std::int64_t value = std::atoll(n.c_str());
    if (value < 1) {
      usage_error("sweep: every --n must be >= 1, got '" + n + "'");
    }
    spec.n_grid.push_back(static_cast<std::size_t>(value));
  }
  for (const std::string& m : split_csv(args.get("m", ""))) {
    const std::int64_t value = std::atoll(m.c_str());
    if (value <= 0) {
      usage_error("sweep: every --m (fast memory words) must be > 0, "
                  "got '" + m + "'");
    }
    spec.m_grid.push_back(value);
  }
  if (spec.algorithms.empty() || spec.n_grid.empty() ||
      spec.m_grid.empty()) {
    usage_error("sweep: --alg, --n and --m all need at least one value");
  }
  // Every algorithm must resolve (unknown names / invalid scheme files
  // are usage errors, not mid-sweep failures) and every n must be a
  // power of every resolved scheme's base dim.
  for (const std::string& alg : spec.algorithms) {
    const std::int64_t base =
        require_square_base(pick_traits(alg), "sweep (--alg " + alg + ")");
    for (const std::size_t n : spec.n_grid) {
      if (!is_power_of(static_cast<std::int64_t>(n), base)) {
        usage_error("sweep: every --n must be a power of the scheme's "
                    "base dim " + std::to_string(base) + " (--alg " + alg +
                    "), got " + std::to_string(n));
      }
    }
  }
  if (args.has("kinds")) {
    spec.kinds.clear();
    constexpr int kKinds = static_cast<int>(sweep::TaskKind::kOptimal) + 1;
    for (const std::string& kind : split_csv(args.get("kinds", ""))) {
      int k = 0;
      while (k < kKinds &&
             kind != sweep::task_kind_name(static_cast<sweep::TaskKind>(k))) {
        ++k;
      }
      if (k == kKinds) {
        FMM_LOG_ERROR("unknown sweep kind '" << kind << "'");
        return 2;
      }
      spec.kinds.push_back(static_cast<sweep::TaskKind>(k));
    }
  }
  read_schedule_flags(args, "sweep", spec);
  spec.remat = args.has("remat");
  spec.base_seed = cli.seed;
  spec.num_threads = static_cast<std::size_t>(read_int(
      args, "sweep", {"threads", 1, 0, "0 = hardware concurrency"}));
  spec.keep_going = args.has("keep-going");

  // Resilience knobs (docs/RESILIENCE.md).
  spec.max_cell_bytes =
      read_int(args, "sweep", {"max-cell-bytes", 0, 0, "0 = unlimited"});
  spec.checkpoint_path = args.get("checkpoint", "");
  spec.checkpoint_every = static_cast<std::size_t>(
      read_int(args, "sweep", {"checkpoint-every", 1, 1, ""}));
  spec.resume = args.has("resume");
  if (spec.resume && spec.checkpoint_path.empty()) {
    usage_error("sweep: --resume needs --checkpoint PATH to load from");
  }

  // Sweep cells fetch their CDAGs through the service content cache —
  // the same code path `fmmio serve` and `fmmio query` answer from
  // (docs/SERVICE.md).  Cache state must not change the payload, so
  // --cache-bytes is not part of the deterministic spec.
  service::CacheConfig cache_config;
  cache_config.memory_budget_bytes =
      static_cast<std::size_t>(read_int(args, "sweep", kCacheBytesFlag));
  service::ContentCache cache(cache_config);
  const std::unique_ptr<snapshot::SnapshotStore> snapshot_store =
      snapshot_store_from(args, "sweep");
  service::CachingCdagSource cdag_source(cache, snapshot_store.get());
  const sweep::SweepResult result = sweep::run_sweep(spec, cdag_source);

  std::printf("sweep: %zu tasks on %zu thread(s) in %.3fs\n",
              result.num_tasks,
              spec.num_threads == 0
                  ? static_cast<std::size_t>(
                        std::thread::hardware_concurrency())
                  : spec.num_threads,
              result.wall_seconds);
  Table table({"Kind", "Algorithm", "n", "M", "I/O", "Recomp", "Detail"});
  for (const auto& task : result.tasks) {
    table.begin_row();
    table.add_cell(sweep::task_kind_name(task.cell.kind));
    table.add_cell(task.cell.algorithm);
    table.add_cell(task.cell.n);
    table.add_cell(std::to_string(task.cell.m));
    table.add_cell(std::to_string(task.total_io));
    table.add_cell(std::to_string(task.recomputations));
    std::string detail;
    if (!task.ok) {
      detail = "FAILED: " + task.error;
    } else if (task.skipped) {
      detail = "skipped";
    } else if (task.cell.kind == sweep::TaskKind::kLiveness) {
      detail = "peak=" + std::to_string(task.liveness_peak);
    } else if (task.cell.kind == sweep::TaskKind::kDominator) {
      detail = std::string(task.dominator_holds ? "holds" : "VIOLATED") +
               " worst=" + format_double(task.dominator_worst_ratio);
    } else if (task.cell.kind == sweep::TaskKind::kBoundCheck) {
      detail = std::string(task.bound_holds ? "holds" : "VIOLATED") +
               " ratio=" + format_double(task.bound_ratio);
    } else if (task.cell.kind == sweep::TaskKind::kOptimal) {
      detail = "min_io=" + std::to_string(task.min_io) + " (" +
               task.optimality + ") states=" +
               std::to_string(task.states_explored);
    }
    table.add_cell(detail);
  }
  table.print_console(std::cout);
  std::printf("  aggregate I/O=%lld recomputes=%lld  bounds %s  "
              "dominators %s  (%zu failed, %zu skipped)\n",
              static_cast<long long>(result.aggregate_total_io),
              static_cast<long long>(result.aggregate_recomputations),
              result.all_bounds_hold ? "hold" : "VIOLATED",
              result.all_dominators_hold ? "hold" : "VIOLATED",
              result.failed, result.skipped);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.sweep");
    report.set_param("algorithms", args.get("alg", ""));
    report.set_param("n_grid", args.get("n", ""));
    report.set_param("m_grid", args.get("m", ""));
    report.set_param("schedule", sweep::schedule_policy_name(spec.schedule));
    report.set_param("remat", spec.remat);
    report.set_param("threads",
                     static_cast<std::int64_t>(spec.num_threads));
    report.set_param("seed", static_cast<std::int64_t>(spec.base_seed));
    result.attach_to(report);
    if (snapshot_store != nullptr) {
      report.set_param("snapshot_dir", snapshot_store->directory());
      report.add_raw_section("snapshot", snapshot_store->stats_json());
    }
    if (spec.resume) {
      // Restored rows never executed in this process, so the registry's
      // pebble counters legitimately undercount the report aggregate;
      // the schema checker skips that cross-check for resumed runs.
      report.set_result("sweep_resumed", true);
    }
    obs::finalize_run(cli, report);
  }
  return result.failed == 0 ? 0 : 1;
}

// SIGTERM/SIGINT request a graceful drain, not an abort: the handler
// only flips a sig_atomic_t that serve loops poll.  Installed WITHOUT
// SA_RESTART so a read blocked on stdin (or a socket accept) fails
// with EINTR and the drain path runs — in-flight requests are still
// answered and the run report is still written.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int /*signum*/) { g_stop_requested = 1; }

void install_stop_signals() {
#ifdef __unix__
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked reads must EINTR
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
#else
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
#endif
}

/// Shared by `serve` and `worker` (the daemon the process transport
/// spawns): one NDJSON session over stdin/stdout or a Unix socket,
/// signal-safe graceful shutdown, optional run report.
int run_service_session(const Args& args, const char* command) {
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  install_stop_signals();
  service::ServiceConfig config = service_config_from(args, command);
  config.num_threads = static_cast<std::size_t>(read_int(
      args, command, {"threads", 0, 0, "0 = hardware concurrency"}));
  config.stop_flag = &g_stop_requested;
  service::QueryService service(config);
  bool shutdown = false;
  if (args.has("socket")) {  // serve only: workers speak stdin/stdout
#ifdef __unix__
    shutdown = service.serve_unix_socket(args.get("socket", ""));
#else
    usage_error("serve: --socket needs a Unix platform; use stdin mode");
#endif
  } else {
    shutdown = service.serve(std::cin, std::cout);
  }
  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report(std::string("fmmio.") + command);
    report.set_param("threads",
                     static_cast<std::int64_t>(
                         service.config().num_threads));
    report.set_param("queue",
                     static_cast<std::int64_t>(service.config().max_queue));
    report.set_param(
        "cache_bytes",
        static_cast<std::int64_t>(
            service.config().cache.memory_budget_bytes));
    report.set_param("deadline_ticks", service.config().deadline_ticks);
    report.set_result("shutdown_requested", shutdown);
    report.set_result("stopped_by_signal", g_stop_requested != 0);
    service.attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}

int cmd_router(const Args& args) {
  const obs::ReportCli cli = report_cli_from(args);
  obs::Registry::instance().reset();
  install_stop_signals();

  fabric::FabricConfig config;
  config.num_workers = static_cast<std::size_t>(
      read_int(args, "router", {"workers", 4, 1, ""}));
  config.worker_queue_depth = static_cast<std::size_t>(
      read_int(args, "router", {"queue-depth", 64, 1, ""}));
  config.max_attempts = static_cast<int>(read_int(
      args, "router", {"retries", config.max_attempts, 1, "total attempts"}));
  config.max_respawns = static_cast<int>(
      read_int(args, "router", {"max-respawns", 2, 0, ""}));
  config.chaos.seed =
      static_cast<std::uint64_t>(args.get_int("chaos-seed", 1));
  config.chaos.drop_response_rate = read_drop_rate(args, "router");
  for (const auto& [worker, after] :
       read_at_pairs(args, "router", "kill",
                     "K@J[,K@J...] (kill worker K after J dispatches)")) {
    config.chaos.kills.push_back({static_cast<std::size_t>(worker), after});
  }
  config.stop_flag = &g_stop_requested;

  service::ServiceConfig worker_config =
      service_config_from(args, "router");

  const std::string transport_name = args.get("transport", "inproc");
  std::unique_ptr<fabric::Transport> transport;
  if (transport_name == "inproc") {
    transport =
        std::make_unique<fabric::InProcessTransport>(worker_config);
  } else if (transport_name == "process") {
#ifdef __unix__
    std::string worker_cmd = args.get("worker-cmd", "");
    if (worker_cmd.empty()) {
      char exe[4096];
      const ssize_t got =
          readlink("/proc/self/exe", exe, sizeof(exe) - 1);
      if (got <= 0) {
        usage_error("router: cannot resolve /proc/self/exe; pass "
                    "--worker-cmd PATH");
      }
      exe[got] = '\0';
      worker_cmd = exe;
    }
    std::vector<std::string> worker_argv = {worker_cmd, "worker"};
    const auto forward = [&](const char* flag) {
      if (args.has(flag)) {
        worker_argv.push_back(std::string("--") + flag);
        worker_argv.push_back(args.get(flag, ""));
      }
    };
    for (const IntFlag& flag : kServiceFlags) {
      forward(flag.name);
    }
    forward("snapshot-dir");
    // The router sends a worker one request at a time.
    worker_argv.push_back("--threads");
    worker_argv.push_back("1");
    transport = std::make_unique<fabric::ProcessTransport>(worker_argv);
#else
    usage_error("router: --transport process needs a Unix platform");
#endif
  } else {
    usage_error("router: --transport must be inproc or process, got '" +
                transport_name + "'");
  }

  fabric::Router router(config, *transport);
  const bool shutdown = router.serve(std::cin, std::cout);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("fmmio.router");
    report.set_param("workers",
                     static_cast<std::int64_t>(config.num_workers));
    report.set_param("transport", transport_name);
    report.set_param("queue_depth",
                     static_cast<std::int64_t>(config.worker_queue_depth));
    report.set_param("retries",
                     static_cast<std::int64_t>(config.max_attempts));
    report.set_param("max_respawns",
                     static_cast<std::int64_t>(config.max_respawns));
    report.set_result("shutdown_requested", shutdown);
    report.set_result("stopped_by_signal", g_stop_requested != 0);
    router.attach_to(report);
    if (args.has("snapshot-dir")) {
      // A fresh handle over the workers' shared directory: the census
      // (files/bytes) is live; the snapshot.* counters are this
      // process's — populated for the inproc transport, zero when the
      // fork/exec workers did the loading (their own reports carry the
      // per-worker tallies).
      const std::unique_ptr<snapshot::SnapshotStore> store =
          snapshot_store_from(args, "router");
      report.set_param("snapshot_dir", store->directory());
      report.add_raw_section("snapshot", store->stats_json());
    }
    obs::finalize_run(cli, report);
  }
  return 0;
}

/// Builds one request line from --op/--id/--alg/... flags.  Validation
/// happens in parse_request, exactly as for a network client.
std::string compose_request(const Args& args) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  const auto field = [&](const std::string& key, const std::string& value,
                         bool quote) {
    os << (first ? "" : ", ") << "\"" << key << "\": ";
    if (quote) {
      os << "\"" << json_escape(value) << "\"";
    } else {
      os << value;
    }
    first = false;
  };
  if (args.has("id")) {
    field("id", args.get("id", ""), false);
  }
  field("op", args.get("op", ""), true);
  if (args.has("alg")) {
    field("algorithm", args.get("alg", ""), true);
  }
  for (const char* key : {"n", "m", "p", "seed"}) {
    if (args.has(key)) {
      field(key, args.get(key, ""), false);
    }
  }
  for (const char* key : {"schedule", "policy"}) {
    if (args.has(key)) {
      field(key, args.get(key, ""), true);
    }
  }
  if (args.has("remat")) {
    field("remat", "true", false);
  }
  os << "}";
  return os.str();
}

#ifdef __unix__
/// Sends one request line to a serving daemon's Unix socket and returns
/// the one response line.
std::string query_over_socket(const std::string& path,
                              const std::string& line) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    usage_error("query: cannot create socket");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close(fd);
    usage_error("query: socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    close(fd);
    usage_error("query: cannot connect to " + path +
                " (is `fmmio serve --socket` running?)");
  }
  const std::string request = line + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t wrote =
        write(fd, request.data() + sent, request.size() - sent);
    if (wrote <= 0) {
      close(fd);
      usage_error("query: send failed");
    }
    sent += static_cast<std::size_t>(wrote);
  }
  std::string response;
  char ch = 0;
  while (read(fd, &ch, 1) == 1 && ch != '\n') {
    response.push_back(ch);
  }
  close(fd);
  return response;
}
#endif

int cmd_query(const Args& args) {
  if (!args.has("op")) {
    std::fprintf(stderr,
                 "usage: fmmio query --op <ping|version|stats|bound|"
                 "simulate|liveness|optimal|cdag|shutdown> [--id I] [--alg A] "
                 "[--n N] [--m M] [--p P] [--schedule S] [--policy P] "
                 "[--remat] [--seed S] [--connect SOCKET] [--print]\n");
    return 2;
  }
  const std::string line = compose_request(args);
  if (args.has("print")) {
    // Compose-only mode: emit the request line for scripted sessions
    // (pipe several into `fmmio serve`).
    std::printf("%s\n", line.c_str());
    return 0;
  }
  std::string response;
  if (args.has("connect")) {
#ifdef __unix__
    response = query_over_socket(args.get("connect", ""), line);
#else
    usage_error("query: --connect needs a Unix platform");
#endif
  } else {
    // In-process single shot: the same parse/cache/compute path the
    // daemon runs, so one-off queries and served queries cannot drift.
    service::QueryService service(service_config_from(args, "query"));
    response = service.handle_line(line);
  }
  std::printf("%s\n", response.c_str());
  // Exit code mirrors the response verdict for scripting.
  return response.find("\"ok\": true") != std::string::npos ? 0 : 1;
}

/// Extracts `result` from a daemon response line, or exits loudly —
/// shared by the metrics and tail scrape subcommands.
JsonValue scrape_result(const std::string& response, const char* command) {
  const JsonValue doc = parse_json(response);
  const JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    std::fprintf(stderr, "fmmio: %s scrape failed: %s\n", command,
                 response.c_str());
    std::exit(1);
  }
  return doc.at("result");
}

int cmd_metrics(const Args& args) {
  if (args.has("connect")) {
#ifdef __unix__
    const std::string response = query_over_socket(
        args.get("connect", ""), "{\"op\": \"metrics\"}");
    const JsonValue result =
        scrape_result(response, "metrics");
    std::fputs(result.at("exposition").as_string().c_str(), stdout);
    return 0;
#else
    usage_error("metrics: --connect needs a Unix platform");
#endif
  }
  // No daemon: expose this process's own registry.  Mostly useful for
  // eyeballing the exposition format; a fresh process has no samples.
  std::fputs(obs::Registry::instance().prometheus_text().c_str(), stdout);
  return 0;
}

int cmd_tail(const Args& args) {
#ifdef __unix__
  if (!args.has("connect")) {
    usage_error("tail: needs --connect SOCKET (a running "
                "`fmmio serve --socket` daemon)");
  }
  const std::int64_t limit =
      read_int(args, "tail", {"limit", 0, 0, "0 = everything recorded"});
  std::ostringstream request;
  request << "{\"op\": \"tail\", \"limit\": " << limit << "}";
  const std::string response =
      query_over_socket(args.get("connect", ""), request.str());
  const JsonValue result = scrape_result(response, "tail");
  // One record per line: `--slow` streams the slow-query log, default
  // streams the recent-request ring (oldest first).
  for (const auto& record :
       result.at(args.has("slow") ? "slow" : "recent").items()) {
    std::cout << record.dump() << "\n";
  }
  return 0;
#else
  usage_error("tail: needs a Unix platform");
#endif
}

/// A scheme from a verify/export target.  `file:<path>` and anything
/// that looks like a path (contains '/' or ends in .json) load an
/// fmm.scheme file; everything else goes through the registry.  Either
/// way the result has passed Brent verification.
bilinear::Scheme scheme_from_target(const std::string& target) {
  std::string path = target;
  bool is_file = bilinear::SchemeRegistry::is_file_key(target);
  if (is_file) {
    path = target.substr(5);
  } else if (target.find('/') != std::string::npos ||
             (target.size() > 5 &&
              target.compare(target.size() - 5, 5, ".json") == 0)) {
    is_file = true;
  }
  if (is_file) {
    return bilinear::load_scheme_file(path);
  }
  bilinear::Scheme scheme =
      bilinear::scheme_from_algorithm(sweep::resolve_algorithm(target));
  if (const auto violation = bilinear::verify_scheme(scheme)) {
    throw CheckError("scheme '" + target + "': " + *violation);
  }
  return scheme;
}

int cmd_scheme(const Args& args) {
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: fmmio scheme verify <name-or-file> [...]\n"
                 "       fmmio scheme export <name> [--name NEWNAME] "
                 "[--out scheme.json]\n");
    return 2;
  };
  if (args.positional.size() < 3) {
    return usage();
  }
  const std::string& action = args.positional[1];
  if (action == "verify") {
    bool all_ok = true;
    for (std::size_t i = 2; i < args.positional.size(); ++i) {
      const std::string& target = args.positional[i];
      try {
        const bilinear::Scheme scheme = scheme_from_target(target);
        const bilinear::SchemeTraits traits = bilinear::traits_of(scheme);
        std::printf(
            "%s: PASS  <%zu,%zu,%zu;%zu>  fingerprint=%s  omega0=%s  "
            "row-weights enc=%zu dec=%zu\n",
            target.c_str(), traits.n, traits.m, traits.p, traits.rank,
            traits.fingerprint.c_str(),
            traits.base >= 2 ? format_double(traits.omega0).c_str() : "-",
            traits.max_encoder_row_weight, traits.max_decoder_row_weight);
      } catch (const CheckError& e) {
        all_ok = false;
        std::printf("%s: FAIL  %s\n", target.c_str(), e.what());
      }
    }
    return all_ok ? 0 : 1;
  }
  if (action == "export") {
    bilinear::Scheme scheme;
    try {
      scheme = scheme_from_target(args.positional[2]);
    } catch (const CheckError& e) {
      usage_error(std::string("scheme export: ") + e.what());
    }
    if (args.has("name")) {
      scheme.name = args.get("name", scheme.name);
    }
    const std::string json = bilinear::scheme_to_json(scheme);
    const std::string out = args.get("out", "");
    if (out.empty()) {
      std::printf("%s\n", json.c_str());
      return 0;
    }
    write_file_checked(out, json + "\n");
    std::printf("wrote %s (fingerprint %s)\n", out.c_str(),
                bilinear::scheme_fingerprint(scheme).c_str());
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.positional.empty() && args.has("version")) {
    std::printf("%s\n", obs::build_info_line().c_str());
    return 0;
  }
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: fmmio <list|certify|bounds|simulate|optimal|cdag|"
                 "parallel|sweep|serve|worker|router|query|metrics|tail|"
                 "scheme|version> [args]\n");
    return 2;
  }
  const std::string& command = args.positional[0];

  // The flags each command reads: through args.get/has/get_int or
  // read_int, report_cli_from's --out/--trace/--seed, and, where the
  // command builds a QueryService (service_config_from), kServiceFlags
  // and --snapshot-dir.  Any other flag exits 2 before the command runs,
  // so a misspelt or retired flag cannot run silently with defaults.
  // Only serve and worker start a --threads pool: a router worker and
  // query's in-process service answer one request at a time.
  struct CommandFlags {
    std::string_view command;
    bool service;
    std::vector<std::string_view> flags;
  };
  static const CommandFlags kCommandFlags[] = {
      {"list", false, {}},
      {"certify", false, {"out", "trace", "seed"}},
      {"bounds", false, {"n", "m", "p", "alg"}},
      {"simulate", false,
       {"out", "trace", "seed", "n", "m", "schedule", "policy", "remat",
        "write-cost"}},
      {"optimal", false,
       {"out", "trace", "seed", "n", "m", "remat", "max-states",
        "snapshot-dir", "snapshot-budget"}},
      {"cdag", false, {"n", "dot", "force"}},
      {"parallel", false,
       {"out", "trace", "seed", "n", "p", "m", "faults", "drop-rate",
        "wipes", "wipe-count", "max-retransmissions"}},
      {"sweep", false,
       {"out", "trace", "seed", "alg", "n", "m", "kinds", "schedule",
        "policy", "remat", "threads", "keep-going", "max-cell-bytes",
        "checkpoint", "checkpoint-every", "resume", "cache-bytes",
        "snapshot-dir", "snapshot-budget"}},
      {"serve", true, {"out", "trace", "seed", "threads", "socket"}},
      {"worker", true, {"out", "trace", "seed", "threads"}},
      {"router", true,
       {"out", "trace", "seed", "workers", "queue-depth", "retries",
        "max-respawns", "chaos-seed", "drop-rate", "kill", "transport",
        "worker-cmd"}},
      {"query", true,
       {"op", "id", "alg", "n", "m", "p", "seed", "schedule", "policy",
        "remat", "connect", "print"}},
      {"metrics", false, {"connect"}},
      {"tail", false, {"connect", "limit", "slow"}},
      {"scheme", false, {"name", "out"}},
      {"version", false, {}},
  };
  const auto* const known = std::find_if(
      std::begin(kCommandFlags), std::end(kCommandFlags),
      [&](const CommandFlags& entry) { return entry.command == command; });
  if (known != std::end(kCommandFlags)) {
    for (const auto& [flag, value] : args.flags) {
      const auto reads = [&](std::string_view name) { return name == flag; };
      const bool read =
          std::any_of(known->flags.begin(), known->flags.end(), reads) ||
          (known->service &&
           (reads("snapshot-dir") ||
            std::any_of(std::begin(kServiceFlags), std::end(kServiceFlags),
                        [&](const IntFlag& f) { return reads(f.name); })));
      if (!read) {
        usage_error(command + ": --" + flag + " is not a " + command +
                    " flag");
      }
    }
  }
  try {
    if (command == "list") return cmd_list();
    if (command == "certify") return cmd_certify(args);
    if (command == "bounds") return cmd_bounds(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "optimal") return cmd_optimal(args);
    if (command == "cdag") return cmd_cdag(args);
    if (command == "parallel") return cmd_parallel(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "serve" || command == "worker") {
      return run_service_session(args, command.c_str());
    }
    if (command == "router") return cmd_router(args);
    if (command == "query") return cmd_query(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "tail") return cmd_tail(args);
    if (command == "scheme") return cmd_scheme(args);
    if (command == "version") {
      std::printf("%s\n", obs::build_info_line().c_str());
      return 0;
    }
  } catch (const fmm::CheckError& e) {
    FMM_LOG_ERROR(e.what());
    return 1;
  }
  FMM_LOG_ERROR("unknown command '" << command << "'");
  return 2;
}
