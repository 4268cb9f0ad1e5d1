// E2 — Theorem 1.1 (parallel): the max{memory-dependent,
// memory-independent} bound and its crossover in P, with the CAPS
// operational model as the measured series and classical 2D/3D as the
// Table I row-1 baselines.
#include <cstdio>
#include <iostream>

#include "bounds/formulas.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/caps.hpp"
#include "parallel/classical_comm.hpp"
#include "parallel/distsim.hpp"

int main(int argc, char** argv) {
  using namespace fmm;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();

  obs::RunReport report("bench_parallel_io");
  report.set_param("experiment", "E2 parallel max{} crossover");
  report.set_param("seed", static_cast<std::int64_t>(cli.seed));
  Stopwatch total_watch;

  const std::int64_t n = 4096;
  report.set_param("n", n);
  std::printf("=== E2: parallel bounds vs P at n=%lld ===\n\n",
              static_cast<long long>(n));

  {
    const double m = 3.0 * static_cast<double>(n) * static_cast<double>(n) /
                     49.0;  // memory sized for P=49
    std::printf("Crossover P* (mem-dep == mem-indep) at M=%.3g: %.3g\n\n",
                m, bounds::parallel_crossover_p(static_cast<double>(n), m,
                                                kOmega0));
  }

  Table table({"P", "M/proc", "Bound mem-dep", "Bound mem-indep",
               "max (Thm 1.1)", "CAPS measured", "CAPS/bound", "BFS/DFS"});
  for (const std::int64_t p : {1, 7, 49, 343, 2401}) {
    // Memory per processor fixed at 6 n^2 / P (enough for some BFS steps,
    // not all — realistic strong scaling).
    const std::int64_t m =
        std::max<std::int64_t>(1, 6 * n * n / std::max<std::int64_t>(p, 1));
    const bounds::MmParams params{static_cast<double>(n),
                                  static_cast<double>(m),
                                  static_cast<double>(p)};
    const double dep = bounds::fast_memory_dependent(params, kOmega0);
    const double indep = bounds::fast_memory_independent(params, kOmega0);
    const auto caps = parallel::simulate_caps(n, p, m);
    report.add_bound_check("caps/P=" + std::to_string(p),
                           std::max(dep, indep),
                           static_cast<double>(caps.words_per_proc));
    table.begin_row();
    table.add_cell(p);
    table.add_cell(m);
    table.add_cell(dep);
    table.add_cell(indep);
    table.add_cell(std::max(dep, indep));
    table.add_cell(caps.words_per_proc);
    table.add_cell(p == 1 ? std::string("-")
                          : format_ratio(
                                static_cast<double>(caps.words_per_proc) /
                                std::max(dep, indep)));
    table.add_cell(std::to_string(caps.bfs_steps) + "/" +
                   std::to_string(caps.dfs_steps));
  }
  table.print_console(std::cout);

  std::printf("\n=== Unlimited memory (memory-independent regime) ===\n\n");
  Table unlimited({"P", "Bound n^2/P^(2/w)", "CAPS measured", "Ratio"});
  for (const std::int64_t p : {7, 49, 343, 2401}) {
    const double indep = bounds::fast_memory_independent(
        {static_cast<double>(n), 1, static_cast<double>(p)}, kOmega0);
    const auto caps = parallel::simulate_caps(n, p);
    unlimited.begin_row();
    unlimited.add_cell(p);
    unlimited.add_cell(indep);
    unlimited.add_cell(caps.words_per_proc);
    unlimited.add_cell(format_ratio(
        static_cast<double>(caps.words_per_proc) / indep));
  }
  unlimited.print_console(std::cout);

  std::printf("\n=== Element-level exact simulation (word-granular "
              "ownership tracking) ===\n\n");
  {
    Table exact({"n", "P", "Max words/proc (exact)", "Total words",
                 "Formula model", "Bound n^2/P^(2/w)"});
    for (const std::int64_t p : {7, 49, 343}) {
      for (const std::int64_t ne : {128, 256}) {
        const auto sim = parallel::simulate_caps_elementwise(ne, p);
        const auto model = parallel::simulate_caps(ne, p);
        report.add_bound_check(
            "distsim/n=" + std::to_string(ne) + "/P=" + std::to_string(p),
            bounds::fast_memory_independent(
                {static_cast<double>(ne), 1.0, static_cast<double>(p)},
                kOmega0),
            static_cast<double>(sim.max_words_per_proc()));
        report.set_result("distsim.total_words/n=" + std::to_string(ne) +
                              "/P=" + std::to_string(p),
                          sim.total_words());
        exact.begin_row();
        exact.add_cell(ne);
        exact.add_cell(p);
        exact.add_cell(sim.max_words_per_proc());
        exact.add_cell(sim.total_words());
        exact.add_cell(model.words_per_proc);
        exact.add_cell(bounds::fast_memory_independent(
            {static_cast<double>(ne), 1.0, static_cast<double>(p)},
            kOmega0));
      }
    }
    exact.print_console(std::cout);
  }

  std::printf("\n=== Classical baselines (Table I row 1) ===\n\n");
  Table classical({"Algorithm", "P", "Measured words/proc",
                   "Classic mem-dep bound", "Classic mem-indep bound"});
  for (const std::int64_t p : {16, 64, 256}) {
    const auto c2d = parallel::cannon_2d(n, p);
    classical.begin_row();
    classical.add_cell("Cannon 2D");
    classical.add_cell(p);
    classical.add_cell(c2d.words_per_proc);
    classical.add_cell(bounds::classic_memory_dependent(
        {static_cast<double>(n),
         static_cast<double>(c2d.memory_per_proc),
         static_cast<double>(p)}));
    classical.add_cell(bounds::classic_memory_independent(
        {static_cast<double>(n), 1, static_cast<double>(p)}));
  }
  for (const std::int64_t p : {64, 256}) {
    const auto c25 = parallel::classical_25d(n, p, 4);
    classical.begin_row();
    classical.add_cell("2.5D (c=4)");
    classical.add_cell(p);
    classical.add_cell(c25.words_per_proc);
    classical.add_cell(bounds::classic_memory_dependent(
        {static_cast<double>(n),
         static_cast<double>(4 * c25.memory_per_proc),
         static_cast<double>(p)}));
    classical.add_cell(bounds::classic_memory_independent(
        {static_cast<double>(n), 1, static_cast<double>(p)}));
  }
  for (const std::int64_t p : {8, 64, 512}) {
    const auto c3d = parallel::classical_3d(n, p);
    classical.begin_row();
    classical.add_cell("3D");
    classical.add_cell(p);
    classical.add_cell(c3d.words_per_proc);
    classical.add_cell(bounds::classic_memory_dependent(
        {static_cast<double>(n),
         static_cast<double>(c3d.memory_per_proc),
         static_cast<double>(p)}));
    classical.add_cell(bounds::classic_memory_independent(
        {static_cast<double>(n), 1, static_cast<double>(p)}));
  }
  classical.print_console(std::cout);

  std::printf("\nShape check: CAPS tracks max{dep, indep} within a small "
              "constant; the crossover between the two bound regimes "
              "moves with M as predicted by Theorem 1.1.\n");

  report.add_phase_seconds("total", total_watch.seconds());
  obs::finalize_run(cli, report);
  return 0;
}
