#include "sweep/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "pebble/liveness.hpp"
#include "pebble/optimal.hpp"
#include "pebble/schedules.hpp"
#include "resilience/checkpoint.hpp"

namespace fmm::sweep {

namespace {

inline constexpr const char* kCheckpointSchema = "fmm.sweep.checkpoint";
inline constexpr int kCheckpointSchemaVersion = 1;

/// The deterministic spec echo (excludes num_threads, keep_going and the
/// checkpoint knobs — those must not change the payload).  Also the
/// preimage of spec_fingerprint().
///
/// "retry", "inject_failure_rate" and "inject_seed" are fixed text: the
/// values a sweep without retries or injected faults always wrote.
/// perfbench's seed-1 grid digests hash SweepResult::to_json(), which
/// holds this echo, and spec_fingerprint() hashes it too, so dropping
/// the text would fail every seed-1 grid run as outputs-incorrect and
/// refuse every existing checkpoint.
std::string spec_to_json(const SweepSpec& spec) {
  std::ostringstream oss;
  const auto string_array = [&oss](const auto& items, auto&& render) {
    oss << "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      oss << (i == 0 ? "" : ", ");
      render(items[i]);
    }
    oss << "]";
  };

  oss << "{\"algorithms\": ";
  string_array(spec.algorithms, [&oss](const std::string& s) {
    oss << '"' << json_escape(s) << '"';
  });
  oss << ", \"n_grid\": ";
  string_array(spec.n_grid, [&oss](std::size_t n) { oss << n; });
  oss << ", \"m_grid\": ";
  string_array(spec.m_grid, [&oss](std::int64_t m) { oss << m; });
  oss << ", \"kinds\": ";
  string_array(spec.kinds, [&oss](TaskKind kind) {
    oss << '"' << task_kind_name(kind) << '"';
  });
  oss << ", \"schedule\": \"" << schedule_policy_name(spec.schedule)
      << "\", \"replacement\": \""
      << (spec.replacement == pebble::ReplacementPolicy::kBelady ? "belady"
                                                                 : "lru")
      << "\", \"remat\": " << (spec.remat ? "true" : "false")
      << ", \"base_seed\": " << spec.base_seed
      << ", \"dominator_r\": " << spec.dominator_r
      << ", \"dominator_samples\": " << spec.dominator_samples
      << ", \"retry\": {\"max_attempts\": 1, \"base_backoff_ticks\": 1, "
         "\"backoff_multiplier\": 2, \"deadline_ticks\": 0}, "
         "\"inject_failure_rate\": 0, \"inject_seed\": 0"
      << ", \"max_cell_bytes\": " << spec.max_cell_bytes << "}";
  return oss.str();
}

std::vector<graph::VertexId> make_schedule(const cdag::Cdag& cdag,
                                           SchedulePolicy policy, Rng& rng) {
  switch (policy) {
    case SchedulePolicy::kBfs: return pebble::bfs_schedule(cdag);
    case SchedulePolicy::kRandom:
      return pebble::random_topological_schedule(cdag, rng);
    case SchedulePolicy::kDfs: break;
  }
  return pebble::dfs_schedule(cdag);
}

pebble::SimOptions sim_options(const TaskCell& cell, const SweepSpec& spec) {
  pebble::SimOptions options;
  options.cache_size = cell.m;
  options.replacement = spec.replacement;
  if (spec.remat) {
    options.writeback = pebble::WritebackPolicy::kDropRecomputable;
    // The dynamic recomputation schedule precludes Belady lookahead.
    options.replacement = pebble::ReplacementPolicy::kLru;
  }
  return options;
}

void copy_sim_payload(TaskResult& out, const pebble::SimResult& sim) {
  out.loads = sim.loads;
  out.stores = sim.stores;
  out.total_io = sim.total_io();
  out.weighted_io = sim.weighted_io;
  out.computations = sim.computations;
  out.recomputations = sim.recomputations;
}

/// "<kind> <algorithm> (n=.., M=..)" — the coordinate prefix every task
/// error carries.
std::string cell_prefix(const TaskCell& cell) {
  std::ostringstream oss;
  oss << task_kind_name(cell.kind) << " " << cell.algorithm
      << " (n=" << cell.n << ", M=" << cell.m << ")";
  return oss.str();
}

/// True iff (alg, n) must degrade to skipped(budget) rows under
/// `max_cell_bytes`: its census footprint exceeds the budget, or the
/// census refuses its size.  A bad base or n stays a build error.
bool cell_over_budget(const bilinear::BilinearAlgorithm& alg,
                      std::size_t n, std::int64_t max_cell_bytes) {
  try {
    return cdag::census(alg, n).memory_bytes >
           static_cast<std::size_t>(max_cell_bytes);
  } catch (const CheckError&) {
    return alg.is_square() && is_power_of(static_cast<std::int64_t>(n),
                                          static_cast<std::int64_t>(alg.n()));
  }
}

/// Reads a JSON number field that write_double may have rendered as
/// null (non-finite) — restored as NaN so re-rendering gives null again.
double double_or_nan(const JsonValue& value) {
  if (value.kind() == JsonValue::Kind::kNull) {
    return std::nan("");
  }
  return value.as_double();
}

std::string checkpoint_header_json(const SweepSpec& spec,
                                   std::size_t num_tasks) {
  std::ostringstream oss;
  oss << "{\"schema\": \"" << kCheckpointSchema
      << "\", \"schema_version\": " << kCheckpointSchemaVersion
      << ", \"fingerprint\": \"" << spec_fingerprint(spec)
      << "\", \"num_tasks\": " << num_tasks << "}";
  return oss.str();
}

}  // namespace

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kSimulate: return "simulate";
    case TaskKind::kLiveness: return "liveness";
    case TaskKind::kDominator: return "dominator";
    case TaskKind::kBoundCheck: return "boundcheck";
    case TaskKind::kOptimal: return "optimal";
  }
  return "?";
}

const char* schedule_policy_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kDfs: return "dfs";
    case SchedulePolicy::kBfs: return "bfs";
    case SchedulePolicy::kRandom: return "random";
  }
  return "?";
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // SplitMix64 over a golden-ratio stride keyed by (base_seed, index).
  return splitmix64_finalize(base_seed + kSplitMixGamma * (task_index + 1));
}

namespace {

/// The alternative-basis keys and the standard-basis algorithm each
/// core is the sparsest-basis transform of: the registry builds the
/// cores from it, and certify_key certifies each core against it
/// (Theorem 4.1).
struct AlternativeBasisKey {
  const char* key;
  bilinear::BilinearAlgorithm (*original)();
};
constexpr AlternativeBasisKey kAlternativeBasisKeys[] = {
    {"strassen-alt", bilinear::strassen},
    {"winograd-alt", bilinear::winograd},
};

/// The process-wide scheme registry, with the alternative-basis variants
/// registered on first use: their basis transform lives in altbasis,
/// above bilinear in the layer stack.
bilinear::SchemeRegistry& registry() {
  auto& registry = bilinear::SchemeRegistry::instance();
  static std::once_flag registered;
  std::call_once(registered, [&registry] {
    for (const auto& [key, original] : kAlternativeBasisKeys) {
      registry.register_factory(key, [original = original] {
        return altbasis::make_alternative_basis(original()).transformed;
      });
    }
  });
  return registry;
}

}  // namespace

bilinear::BilinearAlgorithm resolve_algorithm(const std::string& name) {
  return registry().resolve(name);
}

bilinear::SchemeTraits resolve_traits(const std::string& name) {
  return registry().traits(name);
}

std::vector<std::string> algorithm_keys() { return registry().keys(); }

bounds::CertificationReport certify_key(const std::string& name) {
  const bilinear::BilinearAlgorithm algorithm = resolve_algorithm(name);
  for (const auto& [key, original] : kAlternativeBasisKeys) {
    if (name == key) {
      const bilinear::BilinearAlgorithm source = original();
      const auto basis = altbasis::make_alternative_basis(source);
      return bounds::certify_algorithm(algorithm, &source, &basis);
    }
  }
  return bounds::certify_algorithm(algorithm);
}

std::vector<TaskCell> enumerate_tasks(const SweepSpec& spec) {
  std::vector<TaskCell> cells;
  cells.reserve(spec.algorithms.size() * spec.n_grid.size() *
                spec.m_grid.size() * spec.kinds.size());
  std::size_t index = 0;
  for (const std::string& algorithm : spec.algorithms) {
    for (const std::size_t n : spec.n_grid) {
      for (const std::int64_t m : spec.m_grid) {
        for (const TaskKind kind : spec.kinds) {
          TaskCell cell;
          cell.index = index;
          cell.kind = kind;
          cell.algorithm = algorithm;
          cell.n = n;
          cell.m = m;
          cell.seed = task_seed(spec.base_seed, index);
          cells.push_back(std::move(cell));
          ++index;
        }
      }
    }
  }
  return cells;
}

pebble::SimResult run_simulation(const TaskCell& cell,
                                 const cdag::Cdag& cdag,
                                 const SweepSpec& spec) {
  Rng rng(cell.seed);
  const auto schedule = make_schedule(cdag, spec.schedule, rng);
  const pebble::SimOptions options = sim_options(cell, spec);
  if (spec.remat) {
    return pebble::simulate_with_recomputation(cdag, schedule, options);
  }
  return pebble::simulate(cdag, schedule, options);
}

bool cell_needs_cdag(const TaskCell& cell, const SweepSpec& spec) {
  return cell.kind != TaskKind::kLiveness ||
         spec.schedule != SchedulePolicy::kDfs ||
         !pebble::has_dfs_liveness_closed_form(
             resolve_algorithm(cell.algorithm));
}

namespace {

/// Both run_task overloads: `cdag` is null for a cell that needs none.
TaskResult run_cell(const TaskCell& cell, const cdag::Cdag* cdag,
                    const SweepSpec& spec) {
  TaskResult result;
  result.cell = cell;
  // When a service request drove this task, its span gets the whole
  // pebble/liveness/dominator evaluation as simulate time.  Timing is
  // observation only — the result payload stays untouched, preserving
  // the sweep determinism contract.
  obs::PhaseFrame* frame = obs::current_phase_frame();
  const ScopedNsAccumulator simulate_timer(
      frame != nullptr ? &frame->simulate_ns : nullptr);
  try {
    // Scheme identity travels with every row (cached resolution; the
    // sweep engine and the service both resolve names up front, so this
    // never does file I/O or a basis search on the task path).
    const bilinear::SchemeTraits traits = resolve_traits(cell.algorithm);
    result.scheme_name = traits.name;
    result.scheme_fingerprint = traits.fingerprint;
    result.omega0 = traits.omega0;
    FMM_CHECK_MSG(cdag != nullptr || !cell_needs_cdag(cell, spec),
                  "the cell needs its CDAG");
    switch (cell.kind) {
      case TaskKind::kSimulate: {
        copy_sim_payload(result, run_simulation(cell, *cdag, spec));
        break;
      }
      case TaskKind::kLiveness: {
        std::optional<std::size_t> peak;
        if (spec.schedule == SchedulePolicy::kDfs) {
          peak = pebble::dfs_liveness_peak(resolve_algorithm(cell.algorithm),
                                           cell.n);
        }
        if (!peak) {
          Rng rng(cell.seed);
          const auto schedule = make_schedule(*cdag, spec.schedule, rng);
          peak = pebble::liveness_profile(*cdag, schedule).peak;
        }
        result.liveness_peak = static_cast<std::int64_t>(*peak);
        break;
      }
      case TaskKind::kDominator: {
        if (!cdag->has_subproblems(spec.dominator_r) ||
            cell.n < spec.dominator_r) {
          result.skipped = true;
          break;
        }
        Rng rng(cell.seed);
        const auto cert = bounds::certify_dominator_bound(
            *cdag, spec.dominator_r, spec.dominator_samples,
            bounds::ZChoice::kUniformRandom, rng);
        result.dominator_samples =
            static_cast<std::int64_t>(cert.samples.size());
        result.dominator_worst_ratio = cert.worst_ratio;
        result.dominator_holds = cert.all_hold;
        break;
      }
      case TaskKind::kBoundCheck: {
        const pebble::SimResult sim = run_simulation(cell, *cdag, spec);
        copy_sim_payload(result, sim);
        result.lower_bound = bounds::fast_memory_dependent(
            bounds::mm_params_from_ints(
                static_cast<std::int64_t>(cell.n), cell.m),
            traits);
        result.bound_ratio =
            result.lower_bound == 0.0
                ? 0.0
                : static_cast<double>(sim.total_io()) / result.lower_bound;
        result.bound_holds = static_cast<double>(sim.total_io()) >=
                             result.lower_bound / kBoundSlack;
        break;
      }
      case TaskKind::kOptimal: {
        pebble::OptimalPebbleOptions options;
        options.cache_size = cell.m;
        // The variant follows the sweep's rematerialization regime, so
        // optimal rows compare like-for-like against simulate rows of
        // the same spec: standard sweeps certify the once-only game,
        // --remat sweeps the recomputation-allowed game.
        options.allow_recomputation = spec.remat;
        double floor_bound = 0.0;
        if (traits.base >= 2) {
          // Theorem 1.1's certified floor (the Ω-constant reading the
          // repo certifies, bound/kBoundSlack) doubles as the solver's
          // root pruning bound — every reported min_io sits above it by
          // construction.
          floor_bound = std::ceil(
              bounds::fast_memory_dependent(
                  bounds::mm_params_from_ints(
                      static_cast<std::int64_t>(cell.n), cell.m),
                  traits) /
              kBoundSlack);
          options.root_lower_bound =
              static_cast<std::int64_t>(floor_bound);
        }
        try {
          const pebble::OptimalPebbleResult opt =
              pebble::optimal_io(pebble::to_instance(*cdag), options);
          result.min_io = opt.min_io;
          result.states_explored =
              static_cast<std::int64_t>(opt.states_explored);
          result.optimality = pebble::optimality_name(opt.optimality);
          result.lower_bound = floor_bound;
          result.bound_holds =
              static_cast<double>(opt.min_io) >= floor_bound;
        } catch (const pebble::InfeasibleError&) {
          // Structured skip, not a failure: the instance is over the
          // solver's 64-vertex ceiling or unsolvable at this M.  The
          // sweep carries on even in fail-fast mode, mirroring budget
          // skips.
          result.skipped = true;
          result.skip_reason = "infeasible";
        }
        break;
      }
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = cell_prefix(cell) + ": " + e.what();
  }
  return result;
}

}  // namespace

TaskResult run_task(const TaskCell& cell, const cdag::Cdag& cdag,
                    const SweepSpec& spec) {
  return run_cell(cell, &cdag, spec);
}

TaskResult run_task(const TaskCell& cell, const SweepSpec& spec) {
  return run_cell(cell, nullptr, spec);
}

std::string task_row_json(const TaskResult& task) {
  std::ostringstream oss;
  oss << "{\"index\": " << task.cell.index << ", \"kind\": \""
      << task_kind_name(task.cell.kind) << "\", \"algorithm\": \""
      << json_escape(task.cell.algorithm) << "\", \"n\": " << task.cell.n
      << ", \"m\": " << task.cell.m << ", \"seed\": " << task.cell.seed;
  if (!task.scheme_fingerprint.empty()) {
    oss << ", \"scheme\": \"" << json_escape(task.scheme_name)
        << "\", \"scheme_fingerprint\": \"" << task.scheme_fingerprint
        << "\", \"omega0\": ";
    write_double(oss, task.omega0);
  }
  oss << ", \"ok\": " << (task.ok ? "true" : "false");
  if (task.skip_reason == "budget") {
    // A budget skip never ran.  Its row keeps the "attempts": 0 it has
    // always carried, so reports and checkpoints stay byte-identical.
    oss << ", \"attempts\": 0";
  }
  if (task.skipped) {
    oss << ", \"skipped\": true";
  }
  if (!task.skip_reason.empty()) {
    oss << ", \"skip_reason\": \"" << json_escape(task.skip_reason) << '"';
  }
  if (!task.error.empty()) {
    oss << ", \"error\": \"" << json_escape(task.error) << '"';
  }
  if (task.ok && !task.skipped) {
    switch (task.cell.kind) {
      case TaskKind::kSimulate:
      case TaskKind::kBoundCheck:
        oss << ", \"loads\": " << task.loads
            << ", \"stores\": " << task.stores
            << ", \"total_io\": " << task.total_io
            << ", \"weighted_io\": " << task.weighted_io
            << ", \"computations\": " << task.computations
            << ", \"recomputations\": " << task.recomputations;
        if (task.cell.kind == TaskKind::kBoundCheck) {
          oss << ", \"lower_bound\": ";
          write_double(oss, task.lower_bound);
          oss << ", \"bound_ratio\": ";
          write_double(oss, task.bound_ratio);
          oss << ", \"bound_holds\": "
              << (task.bound_holds ? "true" : "false");
        }
        break;
      case TaskKind::kLiveness:
        oss << ", \"liveness_peak\": " << task.liveness_peak;
        break;
      case TaskKind::kDominator:
        oss << ", \"dominator_samples\": " << task.dominator_samples
            << ", \"dominator_worst_ratio\": ";
        write_double(oss, task.dominator_worst_ratio);
        oss << ", \"dominator_holds\": "
            << (task.dominator_holds ? "true" : "false");
        break;
      case TaskKind::kOptimal:
        oss << ", \"min_io\": " << task.min_io
            << ", \"states_explored\": " << task.states_explored
            << ", \"optimality\": \"" << json_escape(task.optimality)
            << "\", \"lower_bound\": ";
        write_double(oss, task.lower_bound);
        oss << ", \"bound_holds\": "
            << (task.bound_holds ? "true" : "false");
        break;
    }
  }
  oss << "}";
  return oss.str();
}

std::string spec_fingerprint(const SweepSpec& spec) {
  return fingerprint64(spec_to_json(spec));
}

void write_sweep_checkpoint(const std::string& path, const SweepSpec& spec,
                            const std::vector<TaskResult>& rows) {
  resilience::CheckpointWriter writer(
      path, checkpoint_header_json(spec, enumerate_tasks(spec).size()));
  for (const TaskResult& row : rows) {
    writer.append_row(task_row_json(row));
  }
  writer.flush();
}

std::vector<TaskResult> load_sweep_checkpoint(const std::string& path,
                                              const SweepSpec& spec) {
  const std::vector<TaskCell> cells = enumerate_tasks(spec);
  const resilience::CheckpointFile file =
      resilience::load_checkpoint(path);
  FMM_CHECK_MSG(file.header.is_object() &&
                    file.header.at("schema").as_string() ==
                        kCheckpointSchema,
                "checkpoint '" << path << "' is not a sweep checkpoint");
  FMM_CHECK_MSG(file.header.at("schema_version").as_i64() ==
                    kCheckpointSchemaVersion,
                "checkpoint '" << path << "' has unsupported version");
  FMM_CHECK_MSG(
      file.header.at("fingerprint").as_string() == spec_fingerprint(spec),
      "checkpoint '" << path
                     << "' belongs to a different sweep spec — refusing "
                        "to resume (fingerprint mismatch)");
  FMM_CHECK_MSG(file.header.at("num_tasks").as_u64() == cells.size(),
                "checkpoint '" << path << "' task count "
                               << file.header.at("num_tasks").as_u64()
                               << " != " << cells.size());

  std::vector<TaskResult> rows;
  std::vector<char> seen(cells.size(), 0);
  for (std::size_t i = 0; i < file.rows.size(); ++i) {
    const JsonValue& row = file.rows[i];
    const std::size_t index =
        static_cast<std::size_t>(row.at("index").as_u64());
    FMM_CHECK_MSG(index < cells.size(),
                  "checkpoint row index " << index << " out of range");
    FMM_CHECK_MSG(!seen[index],
                  "checkpoint row " << index
                                    << " appears more than once — refusing "
                                       "a corrupt resume");
    const TaskCell& cell = cells[index];
    FMM_CHECK_MSG(
        row.at("kind").as_string() == task_kind_name(cell.kind) &&
            row.at("algorithm").as_string() == cell.algorithm &&
            row.at("n").as_u64() == cell.n &&
            row.at("m").as_i64() == cell.m &&
            row.at("seed").as_u64() == cell.seed,
        "checkpoint row " << index
                          << " does not match the spec's grid cell");

    TaskResult r;
    r.cell = cell;
    r.ok = row.at("ok").as_bool();
    if (const auto* v = row.find("scheme")) {
      r.scheme_name = v->as_string();
    }
    if (const auto* v = row.find("scheme_fingerprint")) {
      r.scheme_fingerprint = v->as_string();
    }
    if (const auto* v = row.find("omega0")) {
      r.omega0 = double_or_nan(*v);
    }
    if (const auto* v = row.find("skipped")) {
      r.skipped = v->as_bool();
    }
    if (const auto* v = row.find("skip_reason")) {
      r.skip_reason = v->as_string();
    }
    if (const auto* v = row.find("error")) {
      r.error = v->as_string();
    }
    if (const auto* v = row.find("loads")) {
      r.loads = v->as_i64();
    }
    if (const auto* v = row.find("stores")) {
      r.stores = v->as_i64();
    }
    if (const auto* v = row.find("total_io")) {
      r.total_io = v->as_i64();
    }
    if (const auto* v = row.find("weighted_io")) {
      r.weighted_io = v->as_i64();
    }
    if (const auto* v = row.find("computations")) {
      r.computations = v->as_i64();
    }
    if (const auto* v = row.find("recomputations")) {
      r.recomputations = v->as_i64();
    }
    if (const auto* v = row.find("liveness_peak")) {
      r.liveness_peak = v->as_i64();
    }
    if (const auto* v = row.find("dominator_samples")) {
      r.dominator_samples = v->as_i64();
    }
    if (const auto* v = row.find("dominator_worst_ratio")) {
      r.dominator_worst_ratio = double_or_nan(*v);
    }
    if (const auto* v = row.find("dominator_holds")) {
      r.dominator_holds = v->as_bool();
    }
    if (const auto* v = row.find("lower_bound")) {
      r.lower_bound = double_or_nan(*v);
    }
    if (const auto* v = row.find("bound_ratio")) {
      r.bound_ratio = double_or_nan(*v);
    }
    if (const auto* v = row.find("bound_holds")) {
      r.bound_holds = v->as_bool();
    }
    if (const auto* v = row.find("min_io")) {
      r.min_io = v->as_i64();
    }
    if (const auto* v = row.find("states_explored")) {
      r.states_explored = v->as_i64();
    }
    if (const auto* v = row.find("optimality")) {
      r.optimality = v->as_string();
    }

    // Byte-identity is the whole point of resuming: the restored row
    // must re-render to exactly the line the checkpoint holds.
    FMM_CHECK_MSG(task_row_json(r) == file.raw_rows[i],
                  "checkpoint row " << index
                                    << " does not round-trip — refusing "
                                       "a resume that would diverge");
    seen[index] = 1;
    rows.push_back(std::move(r));
  }
  return rows;
}

std::shared_ptr<const cdag::Cdag> BuildingCdagSource::get_cdag(
    const std::string& algorithm, std::size_t n) {
  const Key key{algorithm, n};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = built_.find(key);
    if (it != built_.end()) {
      return it->second;
    }
    if (!building_.count(key)) {
      break;
    }
    // Single-flight: another thread is mid-build for this key; waiting
    // beats duplicating a potentially multi-second CDAG construction.
    // If that build throws, waiters wake to neither built nor building
    // and retry it themselves.
    build_done_.wait(lock);
  }
  building_.insert(key);
  lock.unlock();
  std::shared_ptr<const cdag::Cdag> built;
  try {
    built = std::make_shared<const cdag::Cdag>(
        cdag::build_cdag(resolve_algorithm(algorithm), n));
  } catch (...) {
    lock.lock();
    building_.erase(key);
    build_done_.notify_all();
    throw;
  }
  lock.lock();
  built_.emplace(key, built);
  building_.erase(key);
  build_done_.notify_all();
  return built;
}

SweepResult run_sweep(const SweepSpec& spec) {
  BuildingCdagSource source;
  return run_sweep(spec, source);
}

SweepResult run_sweep(const SweepSpec& spec, CdagSource& cdag_source) {
  FMM_TRACE_SPAN("sweep.run", "sweep");
  Stopwatch watch;
  FMM_CHECK_MSG(spec.max_cell_bytes >= 0,
                "max_cell_bytes must be >= 0, got " << spec.max_cell_bytes);
  SweepResult result;
  result.spec = spec;

  const std::vector<TaskCell> cells = enumerate_tasks(spec);
  result.num_tasks = cells.size();
  result.tasks.resize(cells.size());

  // Resolve every algorithm up front: unknown names fail here, before
  // any parallel work starts.
  for (const std::string& name : spec.algorithms) {
    resolve_algorithm(name);
  }

  std::vector<char> restored(cells.size(), 0);
  if (spec.resume) {
    FMM_CHECK_MSG(!spec.checkpoint_path.empty(),
                  "sweep: resume requires a checkpoint path");
    for (TaskResult& row : load_sweep_checkpoint(spec.checkpoint_path,
                                                 spec)) {
      const std::size_t index = row.cell.index;
      result.tasks[index] = std::move(row);
      restored[index] = 1;
    }
  }
  std::unique_ptr<resilience::CheckpointWriter> checkpoint;
  std::mutex checkpoint_mutex;
  if (!spec.checkpoint_path.empty()) {
    // On resume the writer seeds a temporary and publish() renames it
    // over the old checkpoint only after the restored rows are flushed:
    // a kill at any point during re-seeding leaves the previous file —
    // and every completed row it holds — intact.
    checkpoint = std::make_unique<resilience::CheckpointWriter>(
        spec.checkpoint_path, checkpoint_header_json(spec, cells.size()),
        spec.checkpoint_every, /*replace_atomically=*/spec.resume);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (restored[i]) {
        checkpoint->append_row(task_row_json(result.tasks[i]));
      }
    }
    checkpoint->flush();
    checkpoint->publish();
  }

  parallel::ThreadPool pool(spec.num_threads);

  // Fetch one frozen CDAG per distinct (algorithm, n) through the
  // source, sharded across the pool (the source single-flights duplicate
  // keys; a warm service cache returns instantly); every task of that
  // cell shares it read-only afterwards.  Under a memory budget, a cell
  // whose census footprint exceeds it is not fetched at all — its rows
  // degrade to skipped(budget) below.  A cell whose pending tasks all
  // need no CDAG is not fetched either: its census stands in for the
  // build's refusal.
  std::vector<std::pair<std::string, std::size_t>> keys;
  std::map<std::pair<std::string, std::size_t>, std::size_t> key_index;
  for (const TaskCell& cell : cells) {
    const auto key = std::make_pair(cell.algorithm, cell.n);
    if (key_index.emplace(key, keys.size()).second) {
      keys.push_back(key);
    }
  }
  enum class Need : char { kNothing, kCensus, kCdag };
  std::vector<Need> needs(keys.size(), Need::kNothing);
  for (const TaskCell& cell : cells) {
    if (!restored[cell.index]) {
      Need& need = needs[key_index.at({cell.algorithm, cell.n})];
      need = std::max(
          need, cell_needs_cdag(cell, spec) ? Need::kCdag : Need::kCensus);
    }
  }
  std::vector<char> over_budget(keys.size(), 0);
  std::vector<std::shared_ptr<const cdag::Cdag>> cdags(keys.size());
  std::vector<std::string> build_errors(keys.size());
  std::int64_t fetched = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (needs[i] == Need::kNothing) {
      continue;  // every row of this cell was restored from checkpoint
    }
    if (spec.max_cell_bytes > 0 &&
        cell_over_budget(resolve_algorithm(keys[i].first), keys[i].second,
                         spec.max_cell_bytes)) {
      over_budget[i] = 1;
      continue;
    }
    if (needs[i] == Need::kCensus) {
      try {
        cdag::census(resolve_algorithm(keys[i].first), keys[i].second);
      } catch (const std::exception& e) {
        build_errors[i] = e.what();
      }
      continue;
    }
    ++fetched;
    pool.submit([&, i] {
      try {
        cdags[i] = cdag_source.get_cdag(keys[i].first, keys[i].second);
      } catch (const std::exception& e) {
        build_errors[i] = e.what();
      }
    });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    FMM_CHECK_MSG(build_errors[i].empty(),
                  "sweep: CDAG build failed for "
                      << keys[i].first << " n=" << keys[i].second << ": "
                      << build_errors[i]);
  }

  // Shard the cells.  Each task writes only to its own slot; under
  // fail-fast the first failure cancels the remaining queue (the report
  // is never emitted on that path, so cancellation cannot perturb it).
  parallel::CancellationToken cancel;
  std::size_t budget_skips = 0;
  for (const TaskCell& cell : cells) {
    if (restored[cell.index]) {
      continue;
    }
    const std::size_t key = key_index.at({cell.algorithm, cell.n});
    if (over_budget[key]) {
      // Graceful degradation: the oversized cell becomes a recorded
      // skip, not an OOM kill.  Deterministic, so checkpointable.
      TaskResult& slot = result.tasks[cell.index];
      slot.cell = cell;
      const bilinear::SchemeTraits traits = resolve_traits(cell.algorithm);
      slot.scheme_name = traits.name;
      slot.scheme_fingerprint = traits.fingerprint;
      slot.omega0 = traits.omega0;
      slot.ok = true;
      slot.skipped = true;
      slot.skip_reason = "budget";
      ++budget_skips;
      if (checkpoint) {
        // Workers submitted by earlier iterations may already be
        // appending; the writer is thread-compatible, not thread-safe.
        const std::scoped_lock lock(checkpoint_mutex);
        checkpoint->append_row(task_row_json(slot));
      }
      continue;
    }
    const cdag::Cdag* cdag = cdags[key].get();
    pool.submit([&, cell, cdag] {
      TaskResult& slot = result.tasks[cell.index];
      if (cancel.cancelled()) {
        slot.cell = cell;
        slot.error = "cancelled";
        return;
      }
      slot = cdag != nullptr ? run_task(cell, *cdag, spec)
                             : run_task(cell, spec);
      if (checkpoint) {
        const std::scoped_lock lock(checkpoint_mutex);
        checkpoint->append_row(task_row_json(slot));
      }
      if (!slot.ok && !spec.keep_going) {
        cancel.cancel();
        pool.cancel_pending();
      }
    });
  }
  pool.wait_idle();
  if (checkpoint) {
    checkpoint->flush();
  }

  // Fail-fast: surface the lowest-index genuine failure (deterministic
  // even when several workers failed concurrently).
  if (!spec.keep_going) {
    for (const TaskResult& task : result.tasks) {
      if (!task.ok && !task.error.empty() && task.error != "cancelled") {
        obs::Registry::instance().counter("sweep.failures").increment();
        throw CheckError("sweep task failed: " + task.error);
      }
    }
  }

  // Aggregate in task-index order.  The certified chain compares each
  // optimal cell against the simulate cell at the same coordinates, so
  // collect the heuristic I/O per (algorithm, n, M) first.
  std::map<std::tuple<std::string, std::size_t, std::int64_t>,
           std::int64_t>
      simulated_io;
  for (const TaskResult& task : result.tasks) {
    if (task.ok && !task.skipped &&
        task.cell.kind == TaskKind::kSimulate) {
      simulated_io[{task.cell.algorithm, task.cell.n, task.cell.m}] =
          task.total_io;
    }
  }
  bool any_bound = false;
  bool any_dominator = false;
  for (const TaskResult& task : result.tasks) {
    if (!task.ok) {
      ++result.failed;
      continue;
    }
    if (task.skipped) {
      ++result.skipped;
      ++result.completed;
      continue;
    }
    ++result.completed;
    result.aggregate_total_io += task.total_io;
    result.aggregate_recomputations += task.recomputations;
    if (task.cell.kind == TaskKind::kOptimal) {
      ++result.optimal_cells;
      if (task.optimality == "exact") {
        ++result.optimal_exact;
      }
      // bound <= optimal holds per row (bound_holds); optimal <=
      // heuristic holds against the matching simulate cell — valid for
      // budget_exceeded rows too, whose min_io is a certified lower
      // bound on the optimum.
      bool chain_holds = task.bound_holds;
      const auto sim = simulated_io.find(
          {task.cell.algorithm, task.cell.n, task.cell.m});
      if (sim != simulated_io.end()) {
        ++result.optimal_chains_checked;
        chain_holds = chain_holds && task.min_io <= sim->second;
      }
      result.all_chains_hold = result.all_chains_hold && chain_holds;
    }
    if (task.cell.kind == TaskKind::kBoundCheck) {
      result.all_bounds_hold = result.all_bounds_hold && task.bound_holds;
      result.worst_bound_ratio =
          any_bound ? std::min(result.worst_bound_ratio, task.bound_ratio)
                    : task.bound_ratio;
      any_bound = true;
    }
    if (task.cell.kind == TaskKind::kDominator) {
      result.all_dominators_hold =
          result.all_dominators_hold && task.dominator_holds;
      result.worst_dominator_ratio =
          any_dominator ? std::min(result.worst_dominator_ratio,
                                   task.dominator_worst_ratio)
                        : task.dominator_worst_ratio;
      any_dominator = true;
    }
  }

  result.wall_seconds = watch.seconds();
  auto& registry = obs::Registry::instance();
  registry.counter("sweep.runs").increment();
  registry.counter("sweep.tasks")
      .add(static_cast<std::int64_t>(result.num_tasks));
  registry.counter("sweep.task_failures")
      .add(static_cast<std::int64_t>(result.failed));
  registry.counter("sweep.cdags_built").add(fetched);
  registry.counter("sweep.budget_skips")
      .add(static_cast<std::int64_t>(budget_skips));
  if (checkpoint) {
    registry.counter("sweep.checkpoint_rows")
        .add(static_cast<std::int64_t>(checkpoint->rows_written()));
  }
  registry.gauge("sweep.threads")
      .set(static_cast<std::int64_t>(pool.num_threads()));
  return result;
}

std::string SweepResult::to_json() const {
  std::ostringstream oss;
  oss << "{\n";
  oss << "      \"schema\": \"" << kSweepSchema << "\",\n";
  oss << "      \"schema_version\": " << kSweepSchemaVersion << ",\n";

  oss << "      \"spec\": " << spec_to_json(spec) << ",\n";

  oss << "      \"num_tasks\": " << num_tasks << ",\n";
  oss << "      \"completed\": " << completed << ",\n";
  oss << "      \"failed\": " << failed << ",\n";
  oss << "      \"skipped\": " << skipped << ",\n";
  oss << "      \"aggregate\": {\"total_io\": " << aggregate_total_io
      << ", \"recomputations\": " << aggregate_recomputations
      << ", \"all_bounds_hold\": " << (all_bounds_hold ? "true" : "false")
      << ", \"worst_bound_ratio\": ";
  write_double(oss, worst_bound_ratio);
  oss << ", \"all_dominators_hold\": "
      << (all_dominators_hold ? "true" : "false")
      << ", \"worst_dominator_ratio\": ";
  write_double(oss, worst_dominator_ratio);
  // The certified-chain aggregate exists only for sweeps that ran the
  // optimal oracle; reports without it stay byte-identical to before.
  if (std::find(spec.kinds.begin(), spec.kinds.end(),
                TaskKind::kOptimal) != spec.kinds.end()) {
    oss << ", \"optimal_cells\": " << optimal_cells
        << ", \"optimal_exact\": " << optimal_exact
        << ", \"optimal_chains_checked\": " << optimal_chains_checked
        << ", \"all_chains_hold\": "
        << (all_chains_hold ? "true" : "false");
  }
  oss << "},\n";

  oss << "      \"tasks\": [";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    oss << (i == 0 ? "\n" : ",\n") << "        "
        << task_row_json(tasks[i]);
  }
  oss << (tasks.empty() ? "" : "\n      ") << "]\n";
  oss << "    }";
  return oss.str();
}

void SweepResult::attach_to(obs::RunReport& report) const {
  report.set_result("sweep_tasks", static_cast<std::int64_t>(num_tasks));
  report.set_result("sweep_completed", static_cast<std::int64_t>(completed));
  report.set_result("sweep_failed", static_cast<std::int64_t>(failed));
  report.set_result("sweep_skipped", static_cast<std::int64_t>(skipped));
  report.set_result("total_io", aggregate_total_io);
  report.set_result("recomputations", aggregate_recomputations);
  report.set_result("all_bounds_hold", all_bounds_hold);
  report.set_result("all_dominators_hold", all_dominators_hold);
  report.add_phase_seconds("sweep", wall_seconds);
  report.add_raw_section("sweep", to_json());
}

}  // namespace fmm::sweep
