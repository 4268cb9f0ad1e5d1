// E3 — The paper's headline claim: recomputation cannot reduce I/O below
// Ω((n/sqrt(M))^{log2 7} M).  Compares three regimes on identical CDAGs:
//   - standard execution (write back live intermediates, no recompute),
//   - bounded rematerialization (drop values recomputable from inputs,
//     recompute on demand),
//   - full recomputation (no intermediate stores at all; requires
//     M = Ω(n^2) to be feasible).
// Every row's Measured/Bound ratio stays >= a positive constant — the
// empirical counterpart of Theorem 1.1's "regardless of recomputations".
#include <cstdio>
#include <iostream>

#include "bilinear/catalog.hpp"
#include "bounds/formulas.hpp"
#include "bounds/segments.hpp"
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
  obs::Registry::instance().reset();

  obs::RunReport report("bench_recompute");
  report.set_param("experiment", "E3 recomputation vs the I/O lower bound");
  report.set_param("seed", static_cast<std::int64_t>(cli.seed));
  Stopwatch total_watch;
  std::int64_t total_loads = 0;
  std::int64_t total_stores = 0;
  std::int64_t total_recomputes = 0;
  const auto tally = [&](const pebble::SimResult& result) {
    total_loads += result.loads;
    total_stores += result.stores;
    total_recomputes += result.recomputations;
  };

  std::printf("=== E3: recomputation vs the I/O lower bound ===\n\n");

  Table table({"n", "M", "Regime", "IO", "Recomputes", "Bound", "IO/Bound"});

  const auto bound_at = [](std::size_t n, std::int64_t m) {
    return bounds::fast_memory_dependent(
        {static_cast<double>(n), static_cast<double>(m), 1}, kOmega0);
  };

  for (const std::size_t n : {16u, 32u}) {
    const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
    const auto schedule = pebble::dfs_schedule(cdag);
    for (const std::int64_t m : {16, 64, 256}) {
      if (static_cast<std::size_t>(m) >= 2 * n * n) {
        continue;
      }
      const double bound = bound_at(n, m);

      pebble::SimOptions standard;
      standard.cache_size = m;
      const auto normal = pebble::simulate(cdag, schedule, standard);
      tally(normal);
      report.add_bound_check("standard/n=" + std::to_string(n) +
                                 "/M=" + std::to_string(m),
                             bound,
                             static_cast<double>(normal.total_io()));
      table.begin_row();
      table.add_cell(static_cast<std::uint64_t>(n));
      table.add_cell(m);
      table.add_cell("standard (no recompute)");
      table.add_cell(normal.total_io());
      table.add_cell(normal.recomputations);
      table.add_cell(bound);
      table.add_cell(format_ratio(
          static_cast<double>(normal.total_io()) / bound));

      pebble::SimOptions remat = standard;
      remat.writeback = pebble::WritebackPolicy::kDropRecomputable;
      const auto recomputed =
          pebble::simulate_with_recomputation(cdag, schedule, remat);
      tally(recomputed);
      report.add_bound_check("rematerializing/n=" + std::to_string(n) +
                                 "/M=" + std::to_string(m),
                             bound,
                             static_cast<double>(recomputed.total_io()));
      table.begin_row();
      table.add_cell(static_cast<std::uint64_t>(n));
      table.add_cell(m);
      table.add_cell("rematerializing");
      table.add_cell(recomputed.total_io());
      table.add_cell(recomputed.recomputations);
      table.add_cell(bound);
      table.add_cell(format_ratio(
          static_cast<double>(recomputed.total_io()) / bound));
    }
  }

  // Full-recomputation regime needs M = Ω(n^2).
  {
    const std::size_t n = 16;
    const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
    for (const std::int64_t m : {6 * 256, 12 * 256}) {
      pebble::SimOptions options;
      options.cache_size = m;
      options.writeback = pebble::WritebackPolicy::kDropIntermediates;
      const auto result = pebble::simulate_with_recomputation(
          cdag, pebble::dfs_schedule(cdag), options);
      tally(result);
      report.add_bound_check("full-recompute/n=" + std::to_string(n) +
                                 "/M=" + std::to_string(m),
                             bound_at(n, m),
                             static_cast<double>(result.total_io()));
      table.begin_row();
      table.add_cell(static_cast<std::uint64_t>(n));
      table.add_cell(m);
      table.add_cell("full recompute (no stores)");
      table.add_cell(result.total_io());
      table.add_cell(result.recomputations);
      table.add_cell(bound_at(n, m));
      table.add_cell(format_ratio(static_cast<double>(result.total_io()) /
                                  bound_at(n, m)));
    }
  }
  table.print_console(std::cout);

  std::printf("\n=== Segment analysis under recomputation (Lemma 3.6) "
              "===\n\n");
  Table segments({"n", "M", "Regime", "Segments", "Min segment IO",
                  "Per-segment bound", "All hold"});
  for (const std::size_t n : {16u, 32u}) {
    const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
    const std::int64_t m = 16;  // r = 8
    for (const bool remat : {false, true}) {
      pebble::SimOptions options;
      options.cache_size = m;
      pebble::ScheduleSummary summary;
      if (remat) {
        options.writeback = pebble::WritebackPolicy::kDropRecomputable;
        const auto result = pebble::simulate_with_recomputation(
            cdag, pebble::dfs_schedule(cdag), options);
        tally(result);
        summary = result.summary;
      } else {
        const auto result =
            pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
        tally(result);
        summary = result.summary;
      }
      const auto analysis = bounds::analyze_segments(cdag, summary, m);
      std::int64_t min_io = INT64_MAX;
      for (const auto& seg : analysis.segments) {
        min_io = std::min(min_io, seg.io);
      }
      segments.begin_row();
      segments.add_cell(static_cast<std::uint64_t>(n));
      segments.add_cell(m);
      segments.add_cell(remat ? "rematerializing" : "standard");
      segments.add_cell(analysis.segments.size());
      segments.add_cell(min_io);
      segments.add_cell(analysis.per_segment_bound);
      segments.add_cell(analysis.all_segments_hold ? "yes" : "NO");
    }
  }
  segments.print_console(std::cout);

  std::printf("\nRecomputation trades arithmetic for I/O but never beats "
              "the bound — exactly Theorem 1.1's claim.\n");

  report.set_result("loads", total_loads);
  report.set_result("stores", total_stores);
  report.set_result("total_io", total_loads + total_stores);
  report.set_result("recomputations", total_recomputes);
  report.add_phase_seconds("total", total_watch.seconds());
  obs::finalize_run(cli, report);
  return 0;
}
