// Liveness of schedules: the working-set view of I/O.
//
// For a fixed schedule, the minimum fast-memory size that admits a
// ZERO-SPILL execution (each input loaded once, nothing evicted before
// its last use) equals the peak number of simultaneously live values.
// Comparing this peak with the paper's M thresholds explains the phase
// transitions in the measured I/O curves: from M = peak on, Belady's I/O
// is the trivial floor (inputs + outputs); below it, the
// Ω((n/√M)^{ω0} M) regime kicks in.
#pragma once

#include <cstddef>
#include <vector>

#include "cdag/cdag.hpp"

namespace fmm::pebble {

struct LivenessProfile {
  /// Maximum number of live values over the run — the zero-spill memory
  /// requirement.
  std::size_t peak = 0;
};

/// The peak liveness of a non-recomputing schedule.  A value is live
/// from its first reference (an input: its first use; any other value:
/// its own step) through its last reference, so an output that nothing
/// reads is live only at its own step (its store is mandatory I/O, not a
/// spill).
///
/// The schedule must compute every non-input vertex exactly once, after
/// its operands.  Anything else throws a one-line CheckError that names
/// the step and the vertex: a vertex out of range, an input, a vertex
/// computed twice, or a vertex computed before one of its operands.  A
/// schedule that is only short names its step count and the CDAG's
/// non-input count.
///
/// Cost: one validating pass over the schedule's edges, then one pass
/// over the vertices and one over the steps.  Its working memory is two
/// 32-bit arrays, one entry per vertex and one per step.
LivenessProfile liveness_profile(const cdag::Cdag& cdag,
                                 const std::vector<graph::VertexId>& schedule);

}  // namespace fmm::pebble
