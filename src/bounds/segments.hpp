// Segment analysis of computation schedules — the proof pipeline of
// Theorem 1.1 run on *measured* schedules.
//
// The proof partitions a schedule into segments, each containing exactly
// 4M first-time computations of output vertices of SUB_H^{2√M x 2√M},
// and shows every segment performs at least M I/O operations (Lemma 3.6
// with r = 2√M, n_init <= M).  Multiplying by the segment count
// (n / 2√M)^{ω0} (Lemma 2.2) yields the bound.
//
// Given a schedule trace produced by the pebble simulator (the ordered
// compute steps plus a running I/O counter), this analyzer reproduces the
// partition and checks the per-segment guarantee — including on schedules
// that USE recomputation, which is exactly the regime the paper's theorem
// newly covers.
#pragma once

#include <cstdint>
#include <vector>

#include "cdag/cdag.hpp"
#include "pebble/schedules.hpp"

namespace fmm::bounds {

/// Analysis of one segment.
struct Segment {
  std::size_t first_step = 0;   // inclusive
  std::size_t last_step = 0;    // inclusive
  std::size_t outputs_computed = 0;
  std::int64_t io = 0;          // measured I/O during the segment
};

struct SegmentAnalysis {
  std::size_t r = 0;            // sub-problem size 2*sqrt(M)
  std::int64_t cache_m = 0;
  std::vector<Segment> segments;
  /// Theoretical per-full-segment minimum (Lemma 3.6): r^2/2 - M = M.
  std::int64_t per_segment_bound = 0;
  /// Sum of per-segment bounds over full segments — the implied total.
  std::int64_t implied_total_bound = 0;
  /// Measured total I/O of the schedule.
  std::int64_t measured_total_io = 0;
  /// True iff every full segment's measured I/O >= per_segment_bound.
  bool all_segments_hold = true;
};

/// Partitions the schedule into segments of 4M first-time computations of
/// V_out(SUB_H^{r x r}) with r = 2 sqrt(M) (M must be a power of 4 so r
/// is a power of 2, and r must divide the CDAG size).
SegmentAnalysis analyze_segments(const cdag::Cdag& cdag,
                                 const pebble::ScheduleSummary& schedule,
                                 std::int64_t cache_m);

/// The paper's segment size: r = 2 sqrt(M); throws unless M is a perfect
/// square with power-of-two root matching the CDAG base.
std::size_t segment_subproblem_size(std::int64_t cache_m);

}  // namespace fmm::bounds
