// R1 — resilience: recovery-by-recomputation under injected faults.
//
// Two claims, both rooted in the paper's observation that the Theorem
// 1.1 bounds hold *with recomputation*:
//   1. faulted distributed runs (seeded memory wipes + message drops)
//      complete via recomputation-based recovery, and the faulted cost
//      chain  faulted >= fault-free >= Theorem 1.1 parallel bound
//      holds at every grid cell (the bench aborts otherwise);
//   2. the sweep engine's recovery path is deterministic: a sweep
//      writes byte-identical reports across thread counts, and a sweep
//      killed after its first checkpoint row resumes to the same bytes
//      (the bench aborts otherwise).
//
// `bench_resilience --out report.json` writes a versioned run report
// whose extra.sweep section feeds the schema checker's task-row
// cross-checks.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "parallel/distsim.hpp"
#include "resilience/fault.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace fmm;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();

  std::printf("=== R1: fault injection and recomputation-based recovery "
              "===\n\n");

  // --- Claim 1: faulted distsim stays above the Theorem 1.1 bound ------
  std::printf("faulted CAPS distsim: 2 seeded wipes + 5%% message drops "
              "per cell\n\n");
  Table table({"n", "P", "Fault-free", "Faulted", "Overhead", "Retrans",
               "Recovery", "Bound", "Chain"});
  bool all_chains_hold = true;
  std::int64_t total_recovery = 0;
  for (const std::int64_t n : {16, 32, 64}) {
    for (const std::int64_t p : {7, 49}) {
      const auto spec = resilience::FaultSpec::random_schedule(
          cli.seed + static_cast<std::uint64_t>(n + p), static_cast<int>(p),
          /*max_step=*/2, /*wipe_count=*/2, /*message_drop_rate=*/0.05);
      const auto result =
          parallel::simulate_caps_elementwise_faulted(n, p, spec);
      const bool chain =
          result.faulted_dominates_fault_free && result.bound_holds;
      all_chains_hold = all_chains_hold && chain;
      total_recovery += result.recovery_words;
      const double fault_free =
          static_cast<double>(result.fault_free.max_words_per_proc());
      const double faulted =
          static_cast<double>(result.faulted.max_words_per_proc());
      table.begin_row();
      table.add_cell(n);
      table.add_cell(p);
      table.add_cell(std::to_string(
          result.fault_free.max_words_per_proc()));
      table.add_cell(std::to_string(result.faulted.max_words_per_proc()));
      table.add_cell(format_double((faulted / fault_free - 1.0) * 100.0) +
                     "%");
      table.add_cell(std::to_string(result.retransmitted_words));
      table.add_cell(std::to_string(result.recovery_words));
      table.add_cell(format_double(result.parallel_lower_bound));
      table.add_cell(chain ? "holds" : "VIOLATED");
    }
  }
  table.print_console(std::cout);
  if (!all_chains_hold) {
    std::fprintf(stderr, "FATAL: faulted >= fault-free >= bound chain "
                         "violated — recovery is dropping charged I/O\n");
    return 1;
  }

  // --- Claim 2: checkpoint/resume is deterministic ---------------------
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen", "winograd"};
  spec.n_grid = {8, 16};
  spec.m_grid = {32, 64};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kBoundCheck};
  spec.base_seed = cli.seed;
  spec.keep_going = true;
  spec.num_threads = 1;

  const sweep::SweepResult reference = sweep::run_sweep(spec);
  std::printf("\nsweep: %zu tasks, %zu failed\n",
              reference.num_tasks, reference.failed);
  for (const std::size_t threads : {2u, 4u}) {
    sweep::SweepSpec parallel_spec = spec;
    parallel_spec.num_threads = threads;
    const sweep::SweepResult run = sweep::run_sweep(parallel_spec);
    if (run.to_json() != reference.to_json()) {
      std::fprintf(stderr, "FATAL: sweep diverged at %zu threads — "
                           "determinism contract broken\n",
                   threads);
      return 1;
    }
  }
  std::printf("  byte-identical across 1/2/4 threads: yes\n");

  // Kill/resume: keep only the header + first row, resume, compare.
  const std::string checkpoint_path = "bench_resilience_checkpoint.jsonl";
  sweep::SweepSpec checkpointed = spec;
  checkpointed.checkpoint_path = checkpoint_path;
  const sweep::SweepResult full = sweep::run_sweep(checkpointed);
  std::vector<std::string> lines;
  {
    std::ifstream in(checkpoint_path);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  {
    std::ofstream out(checkpoint_path, std::ios::trunc);
    out << lines[0] << '\n' << lines[1] << '\n';
  }
  sweep::SweepSpec resumed = checkpointed;
  resumed.resume = true;
  resumed.num_threads = 2;
  const sweep::SweepResult after = sweep::run_sweep(resumed);
  std::remove(checkpoint_path.c_str());
  if (full.to_json() != reference.to_json() ||
      after.to_json() != reference.to_json()) {
    std::fprintf(stderr, "FATAL: checkpoint/resume diverged from the "
                         "uninterrupted run\n");
    return 1;
  }
  std::printf("  kill-after-1-row resume byte-identical: yes\n");

  if (cli.wants_report() || !cli.trace_path.empty()) {
    // Re-run the reported sweep on a clean registry so its metrics
    // cover exactly one sweep (the checker's total_io cross-check).
    obs::Registry::instance().reset();
    const sweep::SweepResult reported = sweep::run_sweep(spec);
    obs::RunReport report("bench_resilience");
    report.set_param("experiment", "R1 fault injection + recovery");
    report.set_param("seed", static_cast<std::int64_t>(cli.seed));
    report.set_result("distsim_chains_hold", all_chains_hold);
    report.set_result("distsim_recovery_words", total_recovery);
    report.set_result("deterministic_across_threads", true);
    report.set_result("resume_byte_identical", true);
    reported.attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}
