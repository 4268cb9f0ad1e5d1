// E1 — Theorem 1.1 (sequential): measured I/O of schedules on the
// two-level machine vs the Ω((n/sqrt(M))^{log2 7} M) bound, across n and
// M, for DFS/BFS/Belady schedules and for the classical algorithm as the
// exponent-3 contrast.  The interesting column is Measured/Bound: it must
// stay within constant factors for the fast algorithms (cache-oblivious
// DFS), while the classic algorithm's ratio against the *fast* bound
// grows like (n/sqrt(M))^{3 - log2 7}.
//
// `bench_seq_io --out report.json` additionally writes a versioned JSON
// run report (see docs/OBSERVABILITY.md) and report.trace.json, its
// spans in Chrome trace-event format.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bilinear/catalog.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

int main(int argc, char** argv) {
  using namespace fmm;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();  // report covers this run only

  obs::RunReport report("bench_seq_io");
  report.set_param("experiment", "E1 sequential I/O vs Theorem 1.1");
  report.set_param("seed", static_cast<std::int64_t>(cli.seed));
  Stopwatch total_watch;

  std::printf("=== E1: sequential I/O vs Theorem 1.1 bound ===\n\n");

  Table table({"Algorithm", "Schedule", "n", "M", "Measured IO",
               "Bound (n/sqM)^w*M", "Ratio"});

  std::int64_t total_loads = 0;
  std::int64_t total_stores = 0;

  const auto run = [&](const bilinear::BilinearAlgorithm& alg,
                       const char* schedule_name, std::size_t n,
                       std::int64_t m, double omega) {
    const cdag::Cdag cdag = cdag::build_cdag(alg, n);
    pebble::SimOptions options;
    options.cache_size = m;
    std::vector<graph::VertexId> schedule;
    if (std::string(schedule_name) == "BFS") {
      schedule = pebble::bfs_schedule(cdag);
    } else {
      schedule = pebble::dfs_schedule(cdag);
    }
    if (std::string(schedule_name) == "DFS+OPT") {
      options.replacement = pebble::ReplacementPolicy::kBelady;
    }
    const auto result = pebble::simulate(cdag, schedule, options);
    total_loads += result.loads;
    total_stores += result.stores;
    const double bound = bounds::fast_memory_dependent(
        {static_cast<double>(n), static_cast<double>(m), 1}, omega);
    report.add_bound_check(alg.name() + "/" + schedule_name + "/n=" +
                               std::to_string(n) + "/M=" + std::to_string(m),
                           bound, static_cast<double>(result.total_io()));
    table.begin_row();
    table.add_cell(alg.name());
    table.add_cell(schedule_name);
    table.add_cell(static_cast<std::uint64_t>(n));
    table.add_cell(m);
    table.add_cell(result.total_io());
    table.add_cell(bound);
    table.add_cell(format_ratio(static_cast<double>(result.total_io()) /
                                bound));
  };

  {
    const Stopwatch watch;
    for (const std::size_t n : {8u, 16u, 32u}) {
      for (const std::int64_t m : {16, 64, 256}) {
        if (static_cast<std::size_t>(m) >= 2 * n * n) {
          continue;  // cache holds everything; bound degenerates
        }
        run(bilinear::strassen(), "DFS+LRU", n, m, kOmega0);
        run(bilinear::strassen(), "DFS+OPT", n, m, kOmega0);
        run(bilinear::winograd(), "DFS+LRU", n, m, kOmega0);
      }
    }
    // BFS contrast: working set Θ(n^2) per level hurts at small M.
    run(bilinear::strassen(), "BFS", 32, 64, kOmega0);
    report.add_phase_seconds("sweep", watch.seconds());
  }

  // Classic contrast measured against ITS OWN (exponent 3) bound.
  {
    const Stopwatch watch;
    for (const std::size_t n : {8u, 16u, 32u}) {
      const cdag::Cdag cdag =
          cdag::build_cdag(bilinear::classic(2, 2, 2), n);
      pebble::SimOptions options;
      options.cache_size = 64;
      const auto result =
          pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
      total_loads += result.loads;
      total_stores += result.stores;
      const double bound = bounds::classic_memory_dependent(
          {static_cast<double>(n), 64.0, 1});
      report.add_bound_check(
          "classic-2x2x2/DFS+LRU/n=" + std::to_string(n) + "/M=64", bound,
          static_cast<double>(result.total_io()));
      table.begin_row();
      table.add_cell("classic-2x2x2");
      table.add_cell("DFS+LRU");
      table.add_cell(static_cast<std::uint64_t>(n));
      table.add_cell(std::int64_t{64});
      table.add_cell(result.total_io());
      table.add_cell(bound);
      table.add_cell(format_ratio(static_cast<double>(result.total_io()) /
                                  bound));
    }
    report.add_phase_seconds("classic_contrast", watch.seconds());
  }
  table.print_console(std::cout);

  std::printf("\n=== Exponent check: slope of log(IO) vs log(n) at fixed "
              "M ===\n\n");
  Table slope({"Algorithm", "M", "IO(16)", "IO(32)", "slope",
               "expected"});
  {
    const Stopwatch watch;
    for (const auto& [alg, expected] :
         std::vector<std::pair<bilinear::BilinearAlgorithm, double>>{
             {bilinear::strassen(), kOmega0},
             {bilinear::classic(2, 2, 2), 3.0}}) {
      const std::int64_t m = 32;
      std::int64_t io16 = 0, io32 = 0;
      for (const std::size_t n : {16u, 32u}) {
        const cdag::Cdag cdag = cdag::build_cdag(alg, n);
        pebble::SimOptions options;
        options.cache_size = m;
        const auto result =
            pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
        total_loads += result.loads;
        total_stores += result.stores;
        (n == 16 ? io16 : io32) = result.total_io();
      }
      const double measured_slope = std::log2(static_cast<double>(io32) /
                                              static_cast<double>(io16));
      report.set_result("slope." + alg.name(), measured_slope);
      slope.begin_row();
      slope.add_cell(alg.name());
      slope.add_cell(m);
      slope.add_cell(io16);
      slope.add_cell(io32);
      slope.add_cell(measured_slope);
      slope.add_cell(expected);
    }
    report.add_phase_seconds("exponent_check", watch.seconds());
  }
  slope.print_console(std::cout);
  std::printf("\nThe measured slope should approach log2(7)=%.3f for the "
              "fast algorithms and 3 for the classical one.\n",
              kOmega0);

  // The report's headline invariant: summed machine-reported loads and
  // stores — the schema checker cross-checks these against the metrics
  // registry's pebble.loads/pebble.stores.
  report.set_result("loads", total_loads);
  report.set_result("stores", total_stores);
  report.set_result("total_io", total_loads + total_stores);
  report.add_phase_seconds("total", total_watch.seconds());
  obs::finalize_run(cli, report);
  return 0;
}
