// Grid workloads: one caller issues sweep::run_sweep calls (2 pool
// threads) over the paper's E1/E3 grid at Strassen n = 64.
//
//   grid-lru     — boundcheck under dfs, a random schedule and remat on
//                  dfs, plus liveness on dfs, all LRU.  The LRU kernel
//                  (and the recomputation runner) dominates; the random
//                  arm gives schedule generation a visible share.
//   grid-belady  — boundcheck under Belady: Strassen n = 64 (dfs, bfs)
//                  and Laderman <3,3,3;23> n = 81 (dfs).  No LRU cell, so
//                  a kernel change that helps LRU at Belady's cost shows.
//
// Every round runs every arm once with the same seeds, so all rounds
// produce identical payloads; the traced replay re-runs one round.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "cdag/builder.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sweep = fmm::sweep;

namespace {

constexpr std::size_t kThreads = 2;
// A set-up is a short share of a round (0.1-0.3 s of 2.5-4 s), so one
// sample a round leaves a run's set-up median resting on 5-8 samples.
constexpr int kSetupsPerRound = 2;
constexpr const char* kLaderman = "file:schemes/laderman_333_23.json";

struct Arm {
  std::string label;
  sweep::SweepSpec spec;
};

std::vector<Arm> make_arms(const Options& options) {
  const bool belady = options.workload == "grid-belady";
  const std::size_t n2 = options.smoke ? 8 : 64;
  const std::size_t n3 = options.smoke ? 9 : 81;
  const std::vector<std::int64_t> m_grid =
      options.smoke ? std::vector<std::int64_t>{16, 64}
                    : std::vector<std::int64_t>{256, 4096};
  std::vector<Arm> arms;
  const auto add = [&](const char* label, const char* algorithm,
                       std::size_t n, sweep::TaskKind kind,
                       sweep::SchedulePolicy schedule, bool remat) {
    Arm arm;
    arm.label = label;
    arm.spec.algorithms = {algorithm};
    arm.spec.n_grid = {n};
    arm.spec.m_grid = m_grid;
    arm.spec.kinds = {kind};
    arm.spec.schedule = schedule;
    arm.spec.replacement = belady ? fmm::pebble::ReplacementPolicy::kBelady
                                  : fmm::pebble::ReplacementPolicy::kLru;
    arm.spec.remat = remat;
    // The workload seed reaches the program only as each arm's base
    // seed (it picks the random arm's schedules via task_seed).
    arm.spec.base_seed = mix(options.seed * 16 + arms.size());
    arm.spec.num_threads = kThreads;
    arms.push_back(std::move(arm));
  };
  using sweep::SchedulePolicy;
  using sweep::TaskKind;
  if (belady) {
    add("strassen-dfs", "strassen", n2, TaskKind::kBoundCheck,
        SchedulePolicy::kDfs, false);
    add("strassen-bfs", "strassen", n2, TaskKind::kBoundCheck,
        SchedulePolicy::kBfs, false);
    add("laderman-dfs", kLaderman, n3, TaskKind::kBoundCheck,
        SchedulePolicy::kDfs, false);
  } else {
    add("dfs", "strassen", n2, TaskKind::kBoundCheck, SchedulePolicy::kDfs,
        false);
    add("random", "strassen", n2, TaskKind::kBoundCheck,
        SchedulePolicy::kRandom, false);
    add("remat", "strassen", n2, TaskKind::kBoundCheck, SchedulePolicy::kDfs,
        true);
    add("liveness", "strassen", n2, TaskKind::kLiveness, SchedulePolicy::kDfs,
        false);
  }
  return arms;
}

/// Distinct (algorithm, n) CDAG keys of the grid, in first-use order.
std::vector<std::pair<std::string, std::size_t>> cdag_keys(
    const std::vector<Arm>& arms) {
  std::vector<std::pair<std::string, std::size_t>> keys;
  for (const Arm& arm : arms) {
    for (const std::string& algorithm : arm.spec.algorithms) {
      for (const std::size_t n : arm.spec.n_grid) {
        if (std::find(keys.begin(), keys.end(), std::make_pair(algorithm, n)) ==
            keys.end()) {
          keys.emplace_back(algorithm, n);
        }
      }
    }
  }
  return keys;
}

/// Distinct algorithm keys of the grid.
std::vector<std::string> algorithm_keys(const std::vector<Arm>& arms) {
  std::vector<std::string> keys;
  for (const auto& [algorithm, n] : cdag_keys(arms)) {
    if (std::find(keys.begin(), keys.end(), algorithm) == keys.end()) {
      keys.push_back(algorithm);
    }
  }
  return keys;
}

/// Set-up: warm the scheme registry, then build every CDAG the grid needs
/// through the source run_sweep(spec, source) reuses.
std::unique_ptr<sweep::BuildingCdagSource> build_source(
    const std::vector<Arm>& arms) {
  warm_registry(algorithm_keys(arms));
  auto source = std::make_unique<sweep::BuildingCdagSource>();
  for (const auto& [algorithm, n] : cdag_keys(arms)) {
    source->get_cdag(algorithm, n);
  }
  return source;
}

/// Output checks of one run_sweep call; returns the failing-cell count.
std::int64_t check_sweep(const sweep::SweepResult& result,
                         std::string* problem) {
  std::int64_t bad = 0;
  for (const sweep::TaskResult& task : result.tasks) {
    const bool bound_ok = task.cell.kind != sweep::TaskKind::kBoundCheck ||
                          task.bound_holds;
    if (!task.ok || task.skipped || !bound_ok) {
      ++bad;
      *problem = "cell " + sweep::task_row_json(task) +
                 " failed (not ok, skipped, or bound_holds false)";
    }
  }
  return bad;
}

}  // namespace

RunResult run_grid(const Options& options) {
  RunResult result;
  E2eSamples samples;
  const std::vector<Arm> arms = make_arms(options);

  // End-to-end pass: rounds until the time is up.  Each round sets up a
  // fresh source kSetupsPerRound times (spread over the run, the set-up
  // samples average the host's drift like the rounds do), then runs
  // every arm through the last one.  Round 0 is a warm-up: its outputs
  // are checked but its run_sweep times are not counted (a fresh
  // process's first round runs on pages it has not touched yet), and the
  // --seconds budget starts after it.
  std::unique_ptr<sweep::BuildingCdagSource> source;
  std::vector<std::string> first_payload(arms.size());
  std::vector<std::vector<std::string>> first_rows(arms.size());
  std::vector<double> round_walls;  // timed rounds only
  std::string walls = "round walls (s, warm-up in brackets):";
  auto rss = std::make_unique<RssSampler>();
  double start = now_s();
  for (int round = 0;; ++round) {
    for (int setup = 0; setup < kSetupsPerRound; ++setup) {
      source.reset();
      const double setup_start = now_s();
      source = build_source(arms);
      samples.setup_s.push_back(now_s() - setup_start);
    }
    const bool timed = round > 0 || options.smoke;
    double round_wall = 0.0;
    std::int64_t round_cells = 0;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const std::int64_t cells =
          static_cast<std::int64_t>(sweep::enumerate_tasks(arms[a].spec).size());
      result.attempted += cells;
      sweep::SweepResult sweep_result;
      const double t0 = now_s();
      try {
        sweep_result = sweep::run_sweep(arms[a].spec, *source);
      } catch (const std::exception& e) {
        result.fail(cells, arms[a].label + ": run_sweep threw: " + e.what());
        continue;
      }
      round_wall += now_s() - t0;
      round_cells += cells;
      std::string problem;
      if (const std::int64_t bad = check_sweep(sweep_result, &problem)) {
        result.fail(bad, arms[a].label + ": " + problem);
      }
      std::string payload = sweep_result.to_json();
      if (first_payload[a].empty()) {
        first_payload[a] = std::move(payload);
        for (const sweep::TaskResult& task : sweep_result.tasks) {
          first_rows[a].push_back(sweep::task_row_json(task));
        }
      } else if (payload != first_payload[a]) {
        result.fail(cells, arms[a].label +
                               ": payload differs from the first round's");
      }
    }
    samples.peak_rss_mb.push_back(rss->take_peak_mb());
    char buf[32];
    std::snprintf(buf, sizeof(buf), timed ? " %.3f" : " [%.3f]", round_wall);
    walls += buf;
    if (timed && round_wall > 0.0) {
      // One sample per round: its cells per second, and its mean
      // run_sweep call wall (each round makes the same calls).
      round_walls.push_back(round_wall);
      samples.timed_s += round_wall;
      samples.ops += round_cells;
      samples.ops_per_s.push_back(static_cast<double>(round_cells) / round_wall);
      samples.latency_ms.push_back(round_wall * 1e3 /
                                   static_cast<double>(arms.size()));
    }
    if (!timed) {
      start = now_s();
    } else if (options.smoke || now_s() - start >= options.seconds) {
      break;
    }
  }
  rss.reset();
  const double typical_round = median(round_walls);

  for (std::size_t a = 0; a < arms.size(); ++a) {
    const std::string label = options.workload + "/" + arms[a].label;
    const std::string got = digest(first_payload[a]);
    if (options.seed == kDigestSeed && !options.smoke &&
        got != expected_digest(label)) {
      result.fail(static_cast<std::int64_t>(first_rows[a].size()),
                  label + ": to_json() digest " + got + " != carried " +
                      expected_digest(label));
    }
  }
  result.notes.push_back(walls);
  finish_e2e(samples, "round (its mean run_sweep call)", result);
  if (!options.trace) {
    return result;
  }

  source.reset();

  // Traced replay of one round, serially: set-up (registry warm-up,
  // resolve + build), then each cell twice back to back on the same
  // CDAG — through the entry point's per-cell call (sweep::run_task,
  // untraced), then as traced public calls.
  SpanRecorder recorder;
  Work work;
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const fmm::cdag::Cdag>>
      cdags;
  {
    const SpanRecorder::Segment segment(recorder);
    {
      const SpanRecorder::Scope span(recorder, "bilinear.resolve");
      warm_registry(algorithm_keys(arms));
    }
    for (const auto& key : cdag_keys(arms)) {
      const fmm::bilinear::BilinearAlgorithm algorithm = [&] {
        const SpanRecorder::Scope span(recorder, "bilinear.resolve");
        return sweep::resolve_algorithm(key.first);
      }();
      const SpanRecorder::Scope span(recorder, "cdag.build");
      cdags[key] = std::make_shared<const fmm::cdag::Cdag>(
          fmm::cdag::build_cdag(algorithm, key.second));
      work.vertices_built +=
          static_cast<double>(cdags[key]->graph.num_vertices());
    }
  }
  const std::int64_t setup_ns = recorder.wall_ns();
  double entry_s = 0.0;
  std::int64_t op = 0;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const sweep::SweepSpec& spec = arms[a].spec;
    const std::vector<sweep::TaskCell> cells = sweep::enumerate_tasks(spec);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const fmm::cdag::Cdag& cdag = *cdags.at({cells[i].algorithm, cells[i].n});
      const double t0 = now_s();
      sweep::run_task(cells[i], cdag, spec);
      entry_s += now_s() - t0;
      const auto counters = counter_values();
      std::string row;
      {
        const SpanRecorder::Segment segment(recorder);
        recorder.set_op(op++);
        const SpanRecorder::Scope cell_span(recorder, "sweep.cell");
        if (i == 0) {
          // run_sweep resolves each algorithm once per call.
          const SpanRecorder::Scope span(recorder, "bilinear.resolve");
          for (const std::string& algorithm : spec.algorithms) {
            sweep::resolve_algorithm(algorithm);
          }
        }
        row = sweep::task_row_json(
            replay_cell(recorder, cells[i], cdag, spec, work));
      }
      add_counter_growth(counters, work);
      if (i >= first_rows[a].size() || row != first_rows[a][i]) {
        result.fail(1, arms[a].label + ": replayed row " + row +
                           " differs from the run_sweep row");
      }
    }
  }
  recorder.set_op(-1);
  const double traced_s =
      static_cast<double>(recorder.wall_ns() - setup_ns) * 1e-9;

  add_layer_metrics(recorder, work, result.layers);
  const double cell_s =
      static_cast<double>(recorder.total_by_name()["sweep.cell"]) * 1e-9;
  result.layers["sweep.parallel_efficiency"] =
      cell_s / (static_cast<double>(kThreads) * typical_round);
  result.layers["trace.overhead_frac"] =
      entry_s > 0.0 ? (traced_s - entry_s) / entry_s : 0.0;
  recorder.write_jsonl(options.spans_path);
  return result;
}

}  // namespace perfbench
