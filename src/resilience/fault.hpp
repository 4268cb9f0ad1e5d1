// Deterministic, seed-driven fault injection for the simulation stack.
//
// Theorem 1.1 holds *even when recomputation is allowed*, which makes
// recomputation the natural recovery mechanism for a faulted execution:
// a processor that loses its memory can recompute lost intermediates,
// and the extra I/O the recovery incurs must still sit above the same
// lower bound.  This header supplies the fault model of the faulted
// distributed simulator (parallel/distsim):
//
//   - FaultSpec describes WHAT goes wrong: per-processor memory-wipe
//     events pinned to BFS steps, and a per-transfer message-drop
//     probability;
//   - FaultInjector decides WHEN, drawing every decision from a
//     SplitMix64-seeded stream keyed by the spec's seed, so a fault
//     schedule is a pure function of (spec, event order) — two runs with
//     the same spec fault identically, on any machine;
//   - FaultEvent records WHAT HAPPENED, sorted by step, for the
//     `extra.resilience` section of run reports.
//
// The injector never touches wall-clock time or std::random: determinism
// is the contract that lets faulted runs be diffed byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fmm::resilience {

/// One scheduled memory wipe: processor `processor` loses the encoded
/// operands it received during BFS step `step` (0-based, pre-order over
/// the recursion tree as counted by DistSimResult::bfs_steps).
struct WipeEvent {
  int processor = 0;
  int step = 0;
};

/// Declarative fault schedule for one simulated execution.
struct FaultSpec {
  /// Seed of the SplitMix64 decision stream (message drops).
  std::uint64_t seed = 1;
  /// Probability in [0, 1) that any single transferred word is dropped
  /// in flight and must be retransmitted (each retransmission can drop
  /// again; the retry count is geometric and charged word-by-word).
  double message_drop_rate = 0.0;
  /// Scheduled memory wipes, applied when the simulation reaches the
  /// named BFS step.  Need not be sorted; reports sort by (step, proc).
  std::vector<WipeEvent> wipes;
  /// Cap on retransmissions of a single transfer (>= 1).  A transfer
  /// still dropping at the cap is a hard fault: retransmissions()
  /// throws CheckError naming the failing (step, processor) coordinate
  /// instead of silently truncating the geometric retry count.  The
  /// default of 64 preserves the historic byte-for-byte behavior (at
  /// rate < 1 the cap is unreachable in practice).
  int max_retransmissions = 64;

  bool any_faults() const {
    return message_drop_rate > 0.0 || !wipes.empty();
  }

  /// Draws `wipe_count` wipe events uniformly over processors [0, procs)
  /// and steps [0, max_step) from the spec seed's SplitMix64 stream —
  /// the reproducible "chaos schedule" used by tests and benches.
  static FaultSpec random_schedule(std::uint64_t seed, int procs,
                                   int max_step, int wipe_count,
                                   double message_drop_rate);
};

/// What actually happened, for reports: one row per applied wipe.
struct FaultEvent {
  int step = 0;
  int processor = 0;
  /// Words re-sent to the wiped processor by recovery (sources
  /// recompute their contributions locally and retransmit).
  std::int64_t recovered_words = 0;
};

/// Per-run fault decision engine.  All methods are deterministic in
/// (spec, call arguments); the injector carries no hidden RNG state
/// beyond the per-transfer counter the caller advances.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }

  /// How many extra times transfer number `transfer_index` must be
  /// re-sent before it gets through (0 = delivered first try).
  /// Geometric in the drop rate, bounded by spec.max_retransmissions:
  /// a transfer still dropping at the cap throws CheckError carrying
  /// the (step, processor) coordinate (pass -1 for unknown, as the
  /// coordinate-free overload does).
  int retransmissions(std::uint64_t transfer_index) const;
  int retransmissions(std::uint64_t transfer_index, int step,
                      int processor) const;

  /// The processors wiped at BFS step `step` (sorted ascending;
  /// duplicates in the spec collapse to one wipe).
  std::vector<int> wiped_at(int step) const;

 private:
  FaultSpec spec_;
};

/// Renders a sorted fault-event log as a JSON array (the
/// `fault_events` field of `extra.resilience`).
std::string fault_events_to_json(std::vector<FaultEvent> events);

}  // namespace fmm::resilience
