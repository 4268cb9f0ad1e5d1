// Tests for the liveness profiler (zero-spill memory requirement) and
// 2.5D classical communication.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "parallel/classical_comm.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "sweep/sweep.hpp"

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

std::size_t measured_dfs_peak(const bilinear::BilinearAlgorithm& alg,
                              std::size_t n) {
  const cdag::Cdag cdag = build_cdag(alg, n);
  return liveness_profile(cdag, dfs_schedule(cdag)).peak;
}

std::string zoo_dir() { return std::string(FMM_SOURCE_ROOT) + "/schemes/"; }

TEST(DfsLivenessPeak, MatchesMeasuredPeakOnEveryKeyAndZooFile) {
  // Every registry key, classic-3x3x3, classic-4x4x4 and every square zoo
  // file, at each n up to 64 (bases 2 and 4) or 81 (base 3): 88 cells,
  // CdagGolden's 16 among them.
  std::vector<std::string> keys = sweep::algorithm_keys();
  keys.insert(keys.end(), {"classic-3x3x3", "classic-4x4x4"});
  for (const auto& entry : std::filesystem::directory_iterator(zoo_dir())) {
    keys.push_back("file:" + entry.path().string());
  }
  std::size_t cells = 0;
  for (const std::string& key : keys) {
    const bilinear::BilinearAlgorithm alg = sweep::resolve_algorithm(key);
    if (!alg.is_square()) {
      continue;  // rect_336_46: no recursion on H^{n x n}
    }
    EXPECT_TRUE(has_dfs_liveness_closed_form(alg)) << key;
    const std::size_t limit = alg.n() == 3 ? 81 : 64;
    for (std::size_t n = 1; n <= limit; n *= alg.n()) {
      EXPECT_EQ(dfs_liveness_peak(alg, n).value_or(0),
                measured_dfs_peak(alg, n))
          << key << " n=" << n;
      ++cells;
    }
  }
  EXPECT_EQ(cells, 88u);
}

TEST(DfsLivenessPeak, MatchesMeasuredPeakWhereEncodeADecides) {
  // A rank-4 base (no multiplication scheme, but a CDAG all the same)
  // whose A operands stay live longer than its B operands: encode A, not
  // encode B or the children, sets the peak.
  bilinear::IntMat u(4, 4);
  bilinear::IntMat v(4, 4);
  bilinear::IntMat w(4, 4);
  const int u_rows[4][4] = {{1, 1, 1, 1}, {1, 1, 1, 0}, {1, 0, 0, 0},
                            {1, 1, 0, 0}};
  const int v_rows[4][4] = {{1, 1, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1},
                            {0, 0, 1, 0}};
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t q = 0; q < 4; ++q) {
      u.at(r, q) = u_rows[r][q];
      v.at(r, q) = v_rows[r][q];
      w.at(q, r) = 1;
    }
  }
  const bilinear::BilinearAlgorithm alg("rank-4", 2, 2, 2, u, v, w);
  for (std::size_t n = 1; n <= 64; n *= 2) {
    EXPECT_EQ(dfs_liveness_peak(alg, n).value_or(0), measured_dfs_peak(alg, n))
        << "n=" << n;
  }
}

TEST(DfsLivenessPeak, PinsThePeaksOfTheRecurrence) {
  // The walk is the certificate; each scheme's peaks satisfy
  // P(b s) = b^2 P(s) + c, which checks it beyond the sizes a test can
  // build: 4n^2 + 1 for Strassen and 4n^2 for Winograd up to n = 512.
  for (std::size_t n = 2; n <= 512; n *= 2) {
    EXPECT_EQ(dfs_liveness_peak(bilinear::strassen(), n), 4 * n * n + 1);
    EXPECT_EQ(dfs_liveness_peak(bilinear::winograd(), n), 4 * n * n);
  }
  const bilinear::BilinearAlgorithm laderman =
      sweep::resolve_algorithm("file:" + zoo_dir() + "laderman_333_23.json");
  EXPECT_EQ(dfs_liveness_peak(laderman, 81), 36083u);
}

/// Strassen with an 8th product that is zero, placed first or last, and
/// read by C11 or by no output: Brent-valid either way.
bilinear::BilinearAlgorithm strassen_with_zero_product(bool first,
                                                       bool read) {
  const bilinear::BilinearAlgorithm strassen = bilinear::strassen();
  bilinear::IntMat u(8, 4);
  bilinear::IntMat v(8, 4);
  bilinear::IntMat w(4, 8);
  const std::size_t shift = first ? 1 : 0;
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t q = 0; q < 4; ++q) {
      u.at(r + shift, q) = strassen.u().at(r, q);
      v.at(r + shift, q) = strassen.v().at(r, q);
      w.at(q, r + shift) = strassen.w().at(q, r);
    }
  }
  if (read) {
    w.at(0, first ? 0 : 7) = 1;
  }
  return {std::string("strassen-zero-") + (first ? "first" : "last") +
              (read ? "-read" : "-unread"),
          2, 2, 2, u, v, w};
}

TEST(DfsLivenessPeak, CountsAZeroProductAndDeclinesAnUnreadOne) {
  // A zero product that C11 reads keeps the closed form: its encoders
  // read no operand but are made and read all the same.  One that no
  // output reads makes the closed form decline, and the sweep measures
  // the peak on a build.
  for (const bool first : {true, false}) {
    const bilinear::BilinearAlgorithm read =
        strassen_with_zero_product(first, /*read=*/true);
    ASSERT_TRUE(read.is_valid()) << read.name();
    EXPECT_TRUE(has_dfs_liveness_closed_form(read)) << read.name();
    for (std::size_t n = 1; n <= 64; n *= 2) {
      EXPECT_EQ(dfs_liveness_peak(read, n).value_or(0),
                measured_dfs_peak(read, n))
          << read.name() << " n=" << n;
    }

    const bilinear::BilinearAlgorithm unread =
        strassen_with_zero_product(first, /*read=*/false);
    SCOPED_TRACE(unread.name());
    ASSERT_TRUE(unread.is_valid());
    EXPECT_FALSE(has_dfs_liveness_closed_form(unread));
    const std::string path = testing::TempDir() + unread.name() + ".json";
    write_file_checked(path,
                       bilinear::scheme_to_json(
                           bilinear::scheme_from_algorithm(unread)));
    sweep::SweepSpec spec;
    spec.algorithms = {"file:" + path};
    spec.n_grid = {1, 2, 4, 8, 16};
    spec.m_grid = {1};
    spec.kinds = {sweep::TaskKind::kLiveness};
    const sweep::SweepResult result = sweep::run_sweep(spec);
    ASSERT_EQ(result.tasks.size(), spec.n_grid.size());
    for (const sweep::TaskResult& row : result.tasks) {
      EXPECT_TRUE(sweep::cell_needs_cdag(row.cell, spec));
      EXPECT_EQ(dfs_liveness_peak(unread, row.cell.n), std::nullopt);
      EXPECT_EQ(row.liveness_peak,
                static_cast<std::int64_t>(
                    measured_dfs_peak(unread, row.cell.n)))
          << "n=" << row.cell.n;
    }
    std::filesystem::remove(path);
  }
}

TEST(DfsLivenessPeak, RefusesWhatTheBuilderRefuses) {
  // Same CheckError text as build_cdag: a bad n, a size beyond 32-bit
  // ids, a rectangular base.
  const auto refusal = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const CheckError& e) {
      return e.what();
    }
    return "no refusal";
  };
  const bilinear::BilinearAlgorithm strassen = bilinear::strassen();
  const bilinear::BilinearAlgorithm rect =
      sweep::resolve_algorithm("file:" + zoo_dir() + "rect_336_46.json");
  const std::pair<const bilinear::BilinearAlgorithm*, std::size_t> cells[] =
      {{&strassen, 0}, {&strassen, 6}, {&strassen, 4096}, {&rect, 3}};
  for (const auto& [alg, n] : cells) {
    const std::string built = refusal([&] { build_cdag(*alg, n); });
    EXPECT_NE(built, "no refusal") << alg->name() << " n=" << n;
    EXPECT_EQ(refusal([&] { dfs_liveness_peak(*alg, n); }), built);
  }
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
