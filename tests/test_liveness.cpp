// Tests for the liveness profiler (zero-spill memory requirement) and
// 2.5D classical communication.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "parallel/classical_comm.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::pebble {
namespace {

using cdag::build_cdag;

TEST(Liveness, BaseCaseProfile) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 2);
  const auto profile = liveness_profile(cdag, dfs_schedule(cdag));
  EXPECT_GE(profile.peak, 8u);  // at least the inputs
  EXPECT_LE(profile.peak, 25u);
}

TEST(Liveness, PeakGrowsWithN) {
  std::size_t prev = 0;
  for (const std::size_t n : {2u, 4u, 8u, 16u}) {
    const cdag::Cdag cdag = build_cdag(bilinear::strassen(), n);
    const std::size_t peak = liveness_profile(cdag, dfs_schedule(cdag)).peak;
    EXPECT_GT(peak, prev) << "n=" << n;
    prev = peak;
  }
}

TEST(Liveness, PeakIsThetaOfN2ForDfs) {
  // DFS on Strassen keeps O(n^2) values live (the recursion frontier).
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 16);
  const std::size_t peak = liveness_profile(cdag, dfs_schedule(cdag)).peak;
  EXPECT_GE(peak, 16u * 16u / 2);
  EXPECT_LE(peak, 12u * 16u * 16u);
}

std::int64_t belady_io(const cdag::Cdag& cdag,
                       const std::vector<graph::VertexId>& schedule,
                       std::size_t cache_size) {
  SimOptions options;
  options.cache_size = static_cast<std::int64_t>(cache_size);
  options.replacement = ReplacementPolicy::kBelady;
  return simulate(cdag, schedule, options).total_io();
}

TEST(Liveness, AtPeakCacheIoCollapsesToFloor) {
  // The peak is exactly the zero-spill threshold for a liveness-aware
  // policy: Belady never evicts a live value while a dead one is
  // resident, so at M = peak I/O equals the trivial floor.  One word
  // short, some live value must leave fast memory: Belady spills one
  // intermediate, a store and its reload.  LRU needs more slack — it can
  // evict long-idle live values.
  const std::string schemes =
      std::string("file:") + FMM_SOURCE_ROOT + "/schemes/";
  const std::vector<std::pair<std::string, std::vector<std::size_t>>> grid =
      {{"strassen", {4, 8, 16, 32}},
       {"winograd", {4, 8, 16, 32}},
       {schemes + "laderman_333_23.json", {3, 9, 27}},
       {schemes + "hk_style_222_7.json", {4, 8, 16, 32}},
       {"strassen-dual", {4, 8, 16}},
       {"strassen-perm", {4, 8, 16}},
       {"winograd-dual", {4, 8, 16}},
       {"classic", {4, 8, 16}}};
  for (const auto& [name, sizes] : grid) {
    const bilinear::BilinearAlgorithm alg =
        bilinear::SchemeRegistry::instance().resolve(name);
    for (const std::size_t n : sizes) {
      const cdag::Cdag cdag = build_cdag(alg, n);
      const std::int64_t io_floor = trivial_io_floor(cdag);
      Rng rng(7);
      for (const auto& [kind, schedule] :
           {std::pair{"dfs", dfs_schedule(cdag)},
            std::pair{"bfs", bfs_schedule(cdag)},
            std::pair{"random", random_topological_schedule(cdag, rng)}}) {
        const std::size_t peak = liveness_profile(cdag, schedule).peak;
        EXPECT_EQ(belady_io(cdag, schedule, peak), io_floor)
            << name << "/" << n << "/" << kind << " M=" << peak;
        EXPECT_EQ(belady_io(cdag, schedule, peak - 1), io_floor + 2)
            << name << "/" << n << "/" << kind << " M=" << peak - 1;
      }
    }
  }
}

TEST(Liveness, BelowPeakForcesSpills) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 8);
  const auto schedule = dfs_schedule(cdag);
  const std::size_t peak = liveness_profile(cdag, schedule).peak;
  SimOptions options;
  options.cache_size = static_cast<std::int64_t>(peak) / 4;
  const auto result = simulate(cdag, schedule, options);
  EXPECT_GT(result.total_io(), trivial_io_floor(cdag));
}

TEST(Liveness, BfsPeakExceedsDfsPeak) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 16);
  EXPECT_GT(liveness_profile(cdag, bfs_schedule(cdag)).peak,
            liveness_profile(cdag, dfs_schedule(cdag)).peak);
}

TEST(Liveness, ProfileMonotoneSanity) {
  // The peak is the maximum of the per-step live counts, recounted here
  // from the definition: after step i, every value whose first and last
  // references bracket i is live.
  const cdag::Cdag cdag = build_cdag(bilinear::winograd(), 4);
  Rng rng(7);
  for (const auto& schedule :
       {dfs_schedule(cdag), bfs_schedule(cdag),
        random_topological_schedule(cdag, rng)}) {
    const std::size_t nv = cdag.graph.num_vertices();
    std::vector<std::size_t> first(nv, schedule.size());
    std::vector<std::size_t> last(nv, 0);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const graph::VertexId v = schedule[i];
      first[v] = std::min(first[v], i);
      last[v] = i;
      for (const graph::VertexId u : cdag.graph.in_neighbors(v)) {
        first[u] = std::min(first[u], i);
        last[u] = i;
      }
    }
    std::size_t peak = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      std::size_t live = 0;
      for (graph::VertexId v = 0; v < nv; ++v) {
        live += first[v] <= i && i <= last[v] ? 1 : 0;
      }
      peak = std::max(peak, live);
    }
    EXPECT_EQ(liveness_profile(cdag, schedule).peak, peak);
  }
}

TEST(Liveness, RejectsInvalidSchedule) {
  const cdag::Cdag cdag = build_cdag(bilinear::strassen(), 2);
  auto schedule = dfs_schedule(cdag);
  schedule.pop_back();
  EXPECT_THROW(liveness_profile(cdag, schedule), CheckError);
}

}  // namespace
}  // namespace fmm::pebble

namespace fmm::parallel {
namespace {

TEST(Classical25d, InterpolatesBetween2dAnd3d) {
  const std::int64_t n = 1024;
  // c = 1 on a 64-processor square grid reproduces Cannon's volume
  // (modulo the initial skew accounting).
  const auto c1 = classical_25d(n, 64, 1);
  const auto cannon = cannon_2d(n, 64);
  EXPECT_NEAR(static_cast<double>(c1.words_per_proc),
              static_cast<double>(cannon.words_per_proc),
              static_cast<double>(cannon.words_per_proc) * 0.2);
  // Larger c strictly reduces communication.
  const auto c4 = classical_25d(n, 256, 4);
  const auto c1_256 = classical_25d(n, 256, 1);
  EXPECT_LT(c4.words_per_proc, c1_256.words_per_proc);
}

TEST(Classical25d, MatchesSqrtCpScaling) {
  // words ~ 2 n^2 / sqrt(c P): quadrupling c halves the shift volume.
  const std::int64_t n = 4096;
  const auto a = classical_25d(n, 1024, 1);
  const auto b = classical_25d(n, 1024, 4);
  const double shift_a = static_cast<double>(a.words_per_proc);
  const double shift_b = static_cast<double>(b.words_per_proc);
  // Pure shift terms scale by sqrt(4) = 2; replication/reduction
  // overhead dilutes the measured ratio slightly below that.
  EXPECT_GE(shift_a / shift_b, 1.4);
  EXPECT_LT(shift_a / shift_b, 2.5);
}

TEST(Classical25d, RejectsBadConfigs) {
  EXPECT_THROW(classical_25d(64, 10, 3), fmm::CheckError);   // c !| P
  EXPECT_THROW(classical_25d(64, 12, 3), fmm::CheckError);   // P/c not square
  EXPECT_THROW(classical_25d(10, 64, 1), fmm::CheckError);   // grid !| n
  EXPECT_THROW(classical_25d(64, 144, 3), fmm::CheckError);  // c !| grid
}

}  // namespace
}  // namespace fmm::parallel
