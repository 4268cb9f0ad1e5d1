#include "bounds/segments.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::bounds {

std::size_t segment_subproblem_size(std::int64_t cache_m) {
  FMM_CHECK(cache_m >= 1);
  const auto root = static_cast<std::int64_t>(
      std::llround(std::sqrt(static_cast<double>(cache_m))));
  FMM_CHECK_MSG(root * root == cache_m,
                "M=" << cache_m << " must be a perfect square");
  const std::size_t r = static_cast<std::size_t>(2 * root);
  FMM_CHECK_MSG(is_pow2(r), "2*sqrt(M)=" << r << " must be a power of two");
  return r;
}

SegmentAnalysis analyze_segments(const cdag::Cdag& cdag,
                                 const ScheduleSummary& schedule,
                                 std::int64_t cache_m) {
  FMM_TRACE_SPAN("bounds.analyze_segments", "bounds");
  SegmentAnalysis analysis;
  analysis.cache_m = cache_m;
  analysis.r = segment_subproblem_size(cache_m);
  FMM_CHECK_MSG(cdag.has_subproblems(analysis.r),
                "CDAG has no sub-problems of size " << analysis.r
                                                    << " (n too small?)");
  FMM_CHECK(schedule.compute_order.size() == schedule.io_before.size());

  std::vector<bool> is_sub_output(cdag.graph.num_vertices(), false);
  for (const graph::VertexId v : cdag.sub_outputs_flat(analysis.r)) {
    is_sub_output[v] = true;
  }

  // Lemma 3.6 with r = 2 sqrt(M) and n_init <= M: IO >= r^2/2 - M = M.
  analysis.per_segment_bound = cache_m;
  const std::size_t per_segment_outputs =
      static_cast<std::size_t>(4 * cache_m);  // = r^2

  std::vector<bool> computed(cdag.graph.num_vertices(), false);
  Segment current;
  current.first_step = 0;
  bool open = false;
  for (std::size_t step = 0; step < schedule.compute_order.size(); ++step) {
    if (!open) {
      current = Segment{};
      current.first_step = step;
      open = true;
    }
    const graph::VertexId v = schedule.compute_order[step];
    // Only FIRST-TIME computations count toward the partition — exactly
    // the proof's "consider only computations performed for the first
    // time"; recomputations still contribute their I/O to the segment.
    if (is_sub_output[v] && !computed[v]) {
      ++current.outputs_computed;
    }
    computed[v] = true;
    if (current.outputs_computed == per_segment_outputs) {
      current.last_step = step;
      const std::int64_t io_end =
          (step + 1 < schedule.io_before.size())
              ? schedule.io_before[step + 1]
              : schedule.total_io;
      current.io = io_end - schedule.io_before[current.first_step];
      analysis.segments.push_back(current);
      open = false;
    }
  }
  // A trailing partial segment (fewer than 4M outputs) is not bounded by
  // the lemma and is ignored, as in the proof.

  for (const Segment& segment : analysis.segments) {
    analysis.implied_total_bound += analysis.per_segment_bound;
    if (segment.io < analysis.per_segment_bound) {
      analysis.all_segments_hold = false;
    }
  }
  analysis.measured_total_io = schedule.total_io;
  auto& registry = obs::Registry::instance();
  registry.counter("bounds.segments.analyses").increment();
  registry.counter("bounds.segments.closed")
      .add(static_cast<std::int64_t>(analysis.segments.size()));
  return analysis;
}

}  // namespace fmm::bounds
