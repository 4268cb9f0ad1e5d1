// Tests for the segment analysis (Lemma 3.6 / Theorem 1.1 pipeline run on
// measured schedules).
#include <gtest/gtest.h>

#include "bilinear/catalog.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/math_util.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::bounds {
namespace {

using cdag::build_cdag;

TEST(SegmentSize, RIsTwoSqrtM) {
  EXPECT_EQ(segment_subproblem_size(1), 2u);
  EXPECT_EQ(segment_subproblem_size(4), 4u);
  EXPECT_EQ(segment_subproblem_size(16), 8u);
  EXPECT_EQ(segment_subproblem_size(64), 16u);
}

TEST(SegmentSize, RejectsBadM) {
  EXPECT_THROW(segment_subproblem_size(3), CheckError);   // not square
  EXPECT_THROW(segment_subproblem_size(9), CheckError);   // 2*3 not pow2
  EXPECT_THROW(segment_subproblem_size(0), CheckError);
}

pebble::ScheduleSummary run_dfs(const cdag::Cdag& cdag, std::int64_t m) {
  pebble::SimOptions options;
  options.cache_size = m;
  return pebble::simulate(cdag, pebble::dfs_schedule(cdag), options).summary;
}

TEST(Segments, CountMatchesLemma22) {
  // Number of full segments = (n / 2 sqrt(M))^{log2 7}: each segment
  // holds 4M = r^2 outputs, and there are (n/r)^{log2 7} sub-problems.
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 16);
  const std::int64_t m = 16;  // r = 8
  const SegmentAnalysis analysis = analyze_segments(cdag, run_dfs(cdag, m),
                                                    m);
  EXPECT_EQ(analysis.r, 8u);
  EXPECT_EQ(analysis.segments.size(), 7u);  // (16/8)^{log2 7} = 7
  for (const auto& segment : analysis.segments) {
    EXPECT_EQ(segment.outputs_computed, 64u);  // 4M
  }
}

TEST(Segments, PerSegmentIoAtLeastM) {
  // Lemma 3.6's guarantee measured: every full segment performs at least
  // M I/O operations.
  for (const std::size_t n : {16u, 32u}) {
    const cdag::Cdag cdag = build_cdag(bilinear::strassen(), n);
    for (const std::int64_t m : {16, 64}) {
      const SegmentAnalysis analysis =
          analyze_segments(cdag, run_dfs(cdag, m), m);
      EXPECT_TRUE(analysis.all_segments_hold) << "n=" << n << " M=" << m;
      for (const auto& segment : analysis.segments) {
        EXPECT_GE(segment.io, analysis.per_segment_bound)
            << "n=" << n << " M=" << m;
      }
    }
  }
}

TEST(Segments, HoldsUnderRecomputation) {
  // The theorem's whole point: the segment bound survives recomputation.
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 16);
  pebble::SimOptions options;
  options.cache_size = 16;  // r = 8
  options.writeback = pebble::WritebackPolicy::kDropRecomputable;
  const auto result = pebble::simulate_with_recomputation(
      cdag, pebble::dfs_schedule(cdag), options);
  EXPECT_GT(result.recomputations, 0);  // the regime is actually exercised
  const SegmentAnalysis analysis =
      analyze_segments(cdag, result.summary, options.cache_size);
  EXPECT_FALSE(analysis.segments.empty());
  EXPECT_TRUE(analysis.all_segments_hold);
}

TEST(Segments, ImpliedBoundBelowMeasured) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 16);
  const std::int64_t m = 16;
  const SegmentAnalysis analysis = analyze_segments(cdag, run_dfs(cdag, m),
                                                    m);
  EXPECT_EQ(analysis.implied_total_bound,
            static_cast<std::int64_t>(analysis.segments.size()) * m);
  EXPECT_GE(analysis.measured_total_io, analysis.implied_total_bound);
}

TEST(Segments, BfsScheduleAlsoHolds) {
  const cdag::Cdag cdag = build_cdag(bilinear::winograd(), 16);
  pebble::SimOptions options;
  options.cache_size = 16;
  const auto result =
      pebble::simulate(cdag, pebble::bfs_schedule(cdag), options);
  const SegmentAnalysis analysis =
      analyze_segments(cdag, result.summary, options.cache_size);
  EXPECT_TRUE(analysis.all_segments_hold);
}

TEST(Segments, RejectsMissingSubproblemSize) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 4);
  // M = 16 -> r = 8 > n = 4: no such sub-problems.
  EXPECT_THROW(analyze_segments(cdag, run_dfs(cdag, 16), 16), CheckError);
}

TEST(Segments, SegmentsCoverDistinctSteps) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 8);
  // Analyze at M = 1 (r = 2, many segments) over a schedule run at M = 16.
  const SegmentAnalysis analysis = analyze_segments(cdag, run_dfs(cdag, 16),
                                                    /*cache_m=*/1);
  // r=2: (8/2)^{log2 7} = 49 segments of 4 outputs each.
  EXPECT_EQ(analysis.segments.size(), 49u);
  for (std::size_t i = 1; i < analysis.segments.size(); ++i) {
    EXPECT_GT(analysis.segments[i].first_step,
              analysis.segments[i - 1].last_step);
  }
}

}  // namespace
}  // namespace fmm::bounds
