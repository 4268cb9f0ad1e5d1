// Shared pieces of the traced replay.
//
// replay_cell performs one sweep cell as the public calls sweep::run_task
// makes (schedule generator seeded with the cell's task_seed, then the
// pebble call), each wrapped in a span; the rebuilt row must render to
// the same bytes as the entry point's row.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cdag/cdag.hpp"
#include "spans.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

/// Work counted next to the spans, for the rate metrics.
struct Work {
  /// Per pebble span name: references, Σ(in-degree + 1) over executed
  /// steps (recomputed steps included).
  std::map<std::string, double> refs;
  std::int64_t optimal_states = 0;
  /// Vertices of the CDAGs built inside cdag.build spans.
  double vertices_built = 0;
  /// Snapshot bytes verified inside snapshot.load spans.
  double snapshot_bytes_loaded = 0;
  /// Growth of the registry counters during the traced ops alone (the
  /// untraced reference calls between them move the counters too).
  std::map<std::string, std::int64_t> counters;
};

fmm::sweep::TaskResult replay_cell(SpanRecorder& recorder,
                                   const fmm::sweep::TaskCell& cell,
                                   const fmm::cdag::Cdag& cdag,
                                   const fmm::sweep::SweepSpec& spec,
                                   Work& work);

/// Registry counter values the per-layer counts are deltas of.
std::map<std::string, std::int64_t> counter_values();

/// Adds the counters' growth since `before` (a counter_values() taken
/// just before a traced op) to work.counters.
void add_counter_growth(const std::map<std::string, std::int64_t>& before,
                        Work& work);

/// Per-layer metrics every workload shares: self time of each named span,
/// self time per layer, the rate metrics, the registry counts of the
/// traced ops (work.counters), and the trace accounting (wall,
/// unattributed share).
void add_layer_metrics(const SpanRecorder& recorder, const Work& work,
                       std::map<std::string, double>& layers);

}  // namespace perfbench
