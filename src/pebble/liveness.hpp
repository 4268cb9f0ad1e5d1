// Liveness profiling of schedules: the working-set view of I/O.
//
// For a fixed schedule, the minimum fast-memory size that admits a
// ZERO-SPILL execution (each input loaded once, nothing evicted before
// its last use) equals the peak number of simultaneously live values.
// Comparing this peak with the paper's M thresholds explains the phase
// transitions in the measured I/O curves: from M = peak on, Belady's I/O
// is the trivial floor (inputs + outputs); below it, the
// Ω((n/√M)^{ω0} M) regime kicks in.
#pragma once

#include <cstdint>
#include <vector>

#include "cdag/cdag.hpp"

namespace fmm::pebble {

struct LivenessProfile {
  /// live_after[i]: number of live values right after schedule step i.
  std::vector<std::size_t> live_after;
  /// Maximum over the run — the zero-spill memory requirement.
  std::size_t peak = 0;
  /// Step index at which the peak occurs (first occurrence).
  std::size_t peak_step = 0;
};

/// Computes the liveness profile of a (valid, non-recomputing) schedule.
/// A value is live from its creation (inputs: from their first use) to
/// its last use; an output is live only at its own step (its store is
/// mandatory I/O, not a spill).
LivenessProfile liveness_profile(const cdag::Cdag& cdag,
                                 const std::vector<graph::VertexId>& schedule);

/// The zero-spill memory requirement (peak liveness) of the schedule.
std::size_t min_cache_for_zero_spill(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& schedule);

}  // namespace fmm::pebble
