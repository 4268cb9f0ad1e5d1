#include "replay.hpp"

#include <cmath>

#include "bounds/formulas.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/optimal.hpp"
#include "pebble/schedules.hpp"

namespace perfbench {

namespace sweep = fmm::sweep;
namespace pebble = fmm::pebble;

namespace {

/// Span names whose self time is reported as "<name>_ms".
constexpr const char* kSpanMetrics[] = {
    "bilinear.resolve", "cdag.build",      "snapshot.load",
    "snapshot.publish", "pebble.schedule", "pebble.lru",
    "pebble.remat",     "pebble.belady",   "pebble.liveness",
    "pebble.optimal",   "service.parse",   "service.cache"};

constexpr const char* kLayers[] = {"bilinear", "cdag",    "snapshot", "pebble",
                                   "sweep",    "service", "fabric"};

/// Registry counters reported as per-layer counts (deltas).
constexpr const char* kCounters[] = {
    "cdag.builds",         "pebble.loads",     "pebble.stores",
    "pebble.evictions",    "pebble.recomputations",
    "snapshot.lookups",    "snapshot.hits",    "service.cache.hits",
    "service.cache.misses", "service.cache.evictions"};

double executed_refs(const fmm::cdag::Cdag& cdag,
                     const std::vector<fmm::graph::VertexId>& steps) {
  double refs = 0;
  for (const fmm::graph::VertexId v : steps) {
    refs += static_cast<double>(cdag.graph.in_degree(v) + 1);
  }
  return refs;
}

std::vector<fmm::graph::VertexId> make_schedule(const fmm::cdag::Cdag& cdag,
                                                sweep::SchedulePolicy policy,
                                                fmm::Rng& rng) {
  switch (policy) {
    case sweep::SchedulePolicy::kBfs: return pebble::bfs_schedule(cdag);
    case sweep::SchedulePolicy::kRandom:
      return pebble::random_topological_schedule(cdag, rng);
    case sweep::SchedulePolicy::kDfs: break;
  }
  return pebble::dfs_schedule(cdag);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

sweep::TaskResult replay_cell(SpanRecorder& recorder,
                              const sweep::TaskCell& cell,
                              const fmm::cdag::Cdag& cdag,
                              const sweep::SweepSpec& spec, Work& work) {
  sweep::TaskResult row;
  row.cell = cell;
  fmm::bilinear::SchemeTraits traits;
  {
    const SpanRecorder::Scope span(recorder, "bilinear.resolve");
    traits = sweep::resolve_traits(cell.algorithm);
  }
  row.scheme_name = traits.name;
  row.scheme_fingerprint = traits.fingerprint;
  row.omega0 = traits.omega0;
  row.ok = true;
  const auto theorem_bound = [&] {
    return fmm::bounds::fast_memory_dependent(
        fmm::bounds::mm_params_from_ints(static_cast<std::int64_t>(cell.n),
                                         cell.m),
        traits);
  };

  if (cell.kind == sweep::TaskKind::kOptimal) {
    pebble::OptimalPebbleOptions options;
    options.cache_size = cell.m;
    options.allow_recomputation = spec.remat;
    double floor_bound = 0.0;
    if (traits.base >= 2) {
      floor_bound = std::ceil(theorem_bound() / sweep::kBoundSlack);
      options.root_lower_bound = static_cast<std::int64_t>(floor_bound);
    }
    try {
      const SpanRecorder::Scope span(recorder, "pebble.optimal");
      const pebble::OptimalPebbleResult opt =
          pebble::optimal_io(pebble::to_instance(cdag), options);
      row.min_io = opt.min_io;
      row.states_explored = static_cast<std::int64_t>(opt.states_explored);
      row.optimality = pebble::optimality_name(opt.optimality);
      row.lower_bound = floor_bound;
      row.bound_holds = static_cast<double>(opt.min_io) >= floor_bound;
      work.optimal_states += row.states_explored;
    } catch (const pebble::InfeasibleError&) {
      row.skipped = true;
      row.skip_reason = "infeasible";
    }
    return row;
  }

  fmm::Rng rng(cell.seed);
  std::vector<fmm::graph::VertexId> schedule;
  {
    const SpanRecorder::Scope span(recorder, "pebble.schedule");
    schedule = make_schedule(cdag, spec.schedule, rng);
  }
  if (cell.kind == sweep::TaskKind::kLiveness) {
    const SpanRecorder::Scope span(recorder, "pebble.liveness");
    row.liveness_peak = static_cast<std::int64_t>(
        pebble::liveness_profile(cdag, schedule).peak);
    return row;
  }

  pebble::SimOptions options;
  options.cache_size = cell.m;
  options.replacement = spec.replacement;
  const char* span_name = spec.replacement == pebble::ReplacementPolicy::kBelady
                              ? "pebble.belady"
                              : "pebble.lru";
  pebble::SimResult sim;
  if (spec.remat) {
    options.writeback = pebble::WritebackPolicy::kDropRecomputable;
    options.replacement = pebble::ReplacementPolicy::kLru;
    span_name = "pebble.remat";
    const SpanRecorder::Scope span(recorder, span_name);
    sim = pebble::simulate_with_recomputation(cdag, schedule, options);
  } else {
    const SpanRecorder::Scope span(recorder, span_name);
    sim = pebble::simulate(cdag, schedule, options);
  }
  work.refs[span_name] += executed_refs(cdag, sim.summary.compute_order);
  row.loads = sim.loads;
  row.stores = sim.stores;
  row.total_io = sim.total_io();
  row.weighted_io = sim.weighted_io;
  row.computations = sim.computations;
  row.recomputations = sim.recomputations;
  if (cell.kind == sweep::TaskKind::kBoundCheck) {
    row.lower_bound = theorem_bound();
    row.bound_ratio = row.lower_bound == 0.0
                          ? 0.0
                          : static_cast<double>(sim.total_io()) /
                                row.lower_bound;
    row.bound_holds = static_cast<double>(sim.total_io()) >=
                      row.lower_bound / sweep::kBoundSlack;
  }
  return row;
}

std::map<std::string, std::int64_t> counter_values() {
  std::map<std::string, std::int64_t> values;
  auto& registry = fmm::obs::Registry::instance();
  for (const char* name : kCounters) {
    values[name] = registry.counter(name).value();
  }
  return values;
}

void add_counter_growth(const std::map<std::string, std::int64_t>& before,
                        Work& work) {
  for (const auto& [name, value] : counter_values()) {
    work.counters[name] += value - before.at(name);
  }
}

void add_layer_metrics(const SpanRecorder& recorder, const Work& work,
                       std::map<std::string, double>& layers) {
  const std::map<std::string, std::int64_t> self = recorder.self_by_name();
  const auto self_ms = [&self](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
  };
  for (const char* name : kSpanMetrics) {
    layers[std::string(name) + "_ms"] = self_ms(name);
  }
  for (const char* layer : kLayers) {
    layers["layer." + std::string(layer) + "_ms"] = 0.0;
  }
  for (const auto& [name, ns] : self) {
    layers["layer." + layer_of(name) + "_ms"] +=
        static_cast<double>(ns) * 1e-6;
  }
  for (const char* kind : {"lru", "remat", "belady"}) {
    const std::string span = std::string("pebble.") + kind;
    const auto refs = work.refs.find(span);
    layers[span + "_refs_per_s"] =
        ratio(refs == work.refs.end() ? 0.0 : refs->second,
              self_ms(span) * 1e-3);
  }
  layers["pebble.optimal_states_per_s"] =
      ratio(static_cast<double>(work.optimal_states),
            self_ms("pebble.optimal") * 1e-3);
  layers["cdag.vertices_per_s"] =
      ratio(work.vertices_built, self_ms("cdag.build") * 1e-3);
  layers["snapshot.load_mb_per_s"] =
      ratio(work.snapshot_bytes_loaded / 1e6, self_ms("snapshot.load") * 1e-3);

  const auto delta = [&work](const char* name) {
    const auto it = work.counters.find(name);
    return it == work.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  layers["cdag.builds"] = delta("cdag.builds");
  layers["pebble.loads"] = delta("pebble.loads");
  layers["pebble.stores"] = delta("pebble.stores");
  layers["pebble.evictions"] = delta("pebble.evictions");
  layers["pebble.recomputations"] = delta("pebble.recomputations");
  layers["snapshot.hit_ratio"] =
      ratio(delta("snapshot.hits"), delta("snapshot.lookups"));
  layers["service.cache_hit_ratio"] =
      ratio(delta("service.cache.hits"),
            delta("service.cache.hits") + delta("service.cache.misses"));
  layers["service.cache_evictions"] = delta("service.cache.evictions");

  const double wall_ns = static_cast<double>(recorder.wall_ns());
  layers["trace.wall_ms"] = wall_ns * 1e-6;
  layers["trace.unattributed_frac"] =
      ratio(wall_ns - static_cast<double>(recorder.attributed_ns()), wall_ns);
}

}  // namespace perfbench
