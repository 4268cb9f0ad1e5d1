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
#include <optional>
#include <vector>

#include "bilinear/algorithm.hpp"
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

/// liveness_profile(build_cdag(algorithm, n), dfs_schedule(...)).peak
/// without the graph: every sub-problem of one size runs the same steps,
/// so one representative per recursion level gives the peak.
///
/// The walk.  A sub-problem of size s, with quadrants of S = (s/b)^2
/// elements, runs in the builder's id order: encode A (t rows of S steps
/// (r, e), row r summing element e of the A quadrants that U's row r
/// reads), encode B likewise, the t children, then decode (b^2 rows of S
/// steps, each summing one element of the products W's row reads).  A
/// quadrant element read in rows first..last is live from step
/// (first, e) through (last, e).  Live at each step:
///   - encode A: the r S + e + 1 encoders made so far, the A operands
///     still to be read, and all s^2 B operands;
///   - encode B: the t S A encoders, the B encoders made so far, and the
///     B operands still to be read;
///   - child k: (2t - 2 - k) S values of this level (the encoder blocks
///     of later children, the outputs of earlier ones) beside the child's
///     own peak, so child 0 gives the maximum;
///   - decode never sets the peak: it holds at most the t S products and
///     the b^2 S decoders the parent reads later, never more than encode
///     A's first step (2 b^2 S + 1) or encode B's last (at least 2 t S).
/// At the root the operands are inputs, live only from their first read
/// (B's not at all during encode A), and an output is live only at its
/// own step, so decode holds at most t S + 1.  A size-1 sub-problem holds
/// 3: its product and two operands.  Every count is linear in e within a
/// row, so e = 0 and e = S - 1 bound it, and the peak is the maximum over
/// the phases, taken level by level from size 1 up: O(depth t b^2) steps.
///
/// cdag::census runs first, so this refuses exactly what build_cdag
/// refuses, with the same CheckError texts.  It declines (nullopt) a
/// scheme without has_dfs_liveness_closed_form; the caller measures on a
/// build instead.
std::optional<std::size_t> dfs_liveness_peak(
    const bilinear::BilinearAlgorithm& algorithm, std::size_t n);

/// True iff dfs_liveness_peak counts `algorithm` rather than declining:
/// every operand quadrant is read by some product and every product by
/// some output quadrant (no zero column of U, V or W).  The walk counts a
/// computed value live until its last read; an unread one dies at its
/// own step.
bool has_dfs_liveness_closed_form(
    const bilinear::BilinearAlgorithm& algorithm);

}  // namespace fmm::pebble
