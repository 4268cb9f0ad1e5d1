// Property-style sweeps across the full algorithm orbit and randomized
// workloads — broad invariants rather than targeted unit checks.
#include <gtest/gtest.h>

#include <string>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "linalg/matmul.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "sweep/sweep.hpp"

namespace fmm {
namespace {

// ------------------------------------------------------------------
// The whole symmetry orbit (32 structurally distinct 7-mult algorithms).
// ------------------------------------------------------------------

TEST(Orbit, SizeAndShape) {
  const auto orbit = bilinear::fast_2x2_orbit();
  EXPECT_EQ(orbit.size(), 32u);
  for (const auto& alg : orbit) {
    EXPECT_TRUE(alg.is_square());
    EXPECT_EQ(alg.num_products(), 7u);
  }
}

class OrbitProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OrbitProperty, BrentValidAndLemmasHold) {
  const auto orbit = bilinear::fast_2x2_orbit();
  const bilinear::BilinearAlgorithm& alg = orbit[GetParam()];
  ASSERT_TRUE(alg.is_valid()) << alg.name();
  // Paper's encoder lemmas quantify over this entire family.
  EXPECT_TRUE(bounds::certify_encoder(alg, bilinear::Side::kA).all_pass())
      << alg.name();
  EXPECT_TRUE(bounds::certify_encoder(alg, bilinear::Side::kB).all_pass())
      << alg.name();
  EXPECT_TRUE(bounds::certify_hopcroft_kerr(alg).pass) << alg.name();
}

TEST_P(OrbitProperty, ExecutorMatchesOracle) {
  const auto orbit = bilinear::fast_2x2_orbit();
  const bilinear::BilinearAlgorithm& alg = orbit[GetParam()];
  bilinear::RecursiveExecutor executor(alg);
  linalg::Mat a(8, 8), b(8, 8);
  linalg::fill_random(a, 3000 + GetParam());
  linalg::fill_random(b, 4000 + GetParam());
  EXPECT_LT(linalg::max_abs_diff(executor.multiply(a, b),
                                 linalg::multiply_naive(a, b)),
            1e-9)
      << alg.name();
}

TEST_P(OrbitProperty, AlternativeBasisExists) {
  const auto orbit = bilinear::fast_2x2_orbit();
  const bilinear::BilinearAlgorithm& alg = orbit[GetParam()];
  const auto ab = altbasis::make_alternative_basis(alg);
  EXPECT_TRUE(ab.is_twisted_valid(alg)) << alg.name();
  // 12 is the Karstadt–Schwartz optimum for <2,2,2;7>; the search can
  // never beat it and must always reach the naive count or better.
  EXPECT_GE(ab.base_linear_ops, 12u) << alg.name();
  EXPECT_LE(ab.base_linear_ops, alg.base_linear_ops()) << alg.name();
}

INSTANTIATE_TEST_SUITE_P(All32, OrbitProperty,
                         ::testing::Range<std::size_t>(0, 32));

// ------------------------------------------------------------------
// Randomized numerical properties of the executors.
// ------------------------------------------------------------------

TEST(RandomizedExec, PaddedMultiplyArbitraryShapes) {
  Rng rng(606);
  bilinear::RecursiveExecutor executor(bilinear::winograd());
  for (int trial = 0; trial < 20; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 17));
    const auto inner = static_cast<std::size_t>(rng.uniform_int(1, 17));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 17));
    linalg::Mat a(rows, inner), b(inner, cols);
    linalg::fill_random(a, 100 + trial);
    linalg::fill_random(b, 200 + trial);
    EXPECT_LT(linalg::max_abs_diff(executor.multiply_padded(a, b),
                                   linalg::multiply_naive(a, b)),
              1e-9)
        << rows << "x" << inner << "x" << cols;
  }
}

TEST(RandomizedExec, AssociativityAcrossAlgorithms) {
  // (A*B)*C computed with Strassen equals A*(B*C) computed with Winograd.
  const std::size_t n = 16;
  linalg::Mat a(n, n), b(n, n), c(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  linalg::fill_random(c, 3);
  bilinear::RecursiveExecutor strassen_exec(bilinear::strassen());
  bilinear::RecursiveExecutor winograd_exec(bilinear::winograd());
  const linalg::Mat left =
      strassen_exec.multiply(strassen_exec.multiply(a, b), c);
  const linalg::Mat right =
      winograd_exec.multiply(a, winograd_exec.multiply(b, c));
  EXPECT_LT(linalg::max_abs_diff(left, right), 1e-7);
}

TEST(RandomizedExec, LinearityInFirstArgument) {
  // (A1 + A2) * B == A1*B + A2*B — bilinearity of the implementation.
  const std::size_t n = 8;
  linalg::Mat a1(n, n), a2(n, n), b(n, n);
  linalg::fill_random(a1, 10);
  linalg::fill_random(a2, 11);
  linalg::fill_random(b, 12);
  linalg::Mat sum(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      sum(i, j) = a1(i, j) + a2(i, j);
    }
  }
  bilinear::RecursiveExecutor executor(bilinear::strassen());
  const linalg::Mat lhs = executor.multiply(sum, b);
  const linalg::Mat c1 = executor.multiply(a1, b);
  const linalg::Mat c2 = executor.multiply(a2, b);
  double worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, std::abs(lhs(i, j) - c1(i, j) - c2(i, j)));
    }
  }
  EXPECT_LT(worst, 1e-10);
}

// ------------------------------------------------------------------
// Machine invariants over random schedules and policies.
// ------------------------------------------------------------------

struct MachineSweepCase {
  std::size_t n;
  std::int64_t m;
  pebble::ReplacementPolicy policy;
};

class MachineSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::int64_t,
                                                 int>> {};

TEST_P(MachineSweep, InvariantsHold) {
  const auto [n, m, policy_index] = GetParam();
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  Rng rng(n * 1000 + static_cast<std::uint64_t>(m));
  pebble::SimOptions options;
  options.cache_size = m;
  options.replacement = policy_index == 0
                            ? pebble::ReplacementPolicy::kLru
                            : pebble::ReplacementPolicy::kBelady;
  const auto schedule = pebble::random_topological_schedule(cdag, rng);
  const auto result = pebble::simulate(cdag, schedule, options);

  // Invariant 1: never below the trivial floor.
  EXPECT_GE(result.total_io(), pebble::trivial_io_floor(cdag));
  // Invariant 2: every input is loaded at least once -> loads >= 2n^2.
  EXPECT_GE(result.loads, static_cast<std::int64_t>(2 * n * n));
  // Invariant 3: every output is stored at least once.
  EXPECT_GE(result.stores, static_cast<std::int64_t>(n * n));
  // Invariant 4: no recomputation in a once-per-vertex schedule.
  EXPECT_EQ(result.recomputations, 0);
  // Invariant 5: the bound of Theorem 1.1 (generous constant for
  // adversarial random schedules).
  const double bound = bounds::fast_memory_dependent(
      {static_cast<double>(n), static_cast<double>(m), 1}, kOmega0);
  EXPECT_GE(static_cast<double>(result.total_io()), bound / 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSchedules, MachineSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 8),
                       ::testing::Values<std::int64_t>(9, 16, 64),
                       ::testing::Values(0, 1)));

// ------------------------------------------------------------------
// Recomputation-regime invariants across cache sizes.
// ------------------------------------------------------------------

class RematSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RematSweep, ReplayConsistencyAndBound) {
  const std::int64_t m = GetParam();
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::winograd(), 8);
  pebble::SimOptions options;
  options.cache_size = m;
  options.writeback = pebble::WritebackPolicy::kDropRecomputable;
  const auto dynamic = pebble::simulate_with_recomputation(
      cdag, pebble::dfs_schedule(cdag), options);
  // Replay determinism: static re-execution reproduces the exact I/O.
  const auto replay =
      pebble::simulate(cdag, dynamic.summary.compute_order, options);
  EXPECT_EQ(replay.loads, dynamic.loads) << "M=" << m;
  EXPECT_EQ(replay.stores, dynamic.stores) << "M=" << m;
  EXPECT_EQ(replay.recomputations, dynamic.recomputations) << "M=" << m;
  // Bound.
  const double bound = bounds::fast_memory_dependent(
      {8.0, static_cast<double>(m), 1}, kOmega0);
  EXPECT_GE(static_cast<double>(dynamic.total_io()), bound / 8.0);
}

// M = 12 is below this regime's feasibility threshold for n = 8 (a
// decode vertex with 7 rematerializable operands thrashes) — start at 16.
INSTANTIATE_TEST_SUITE_P(CacheSizes, RematSweep,
                         ::testing::Values<std::int64_t>(16, 24, 48, 96));

// ------------------------------------------------------------------
// Degenerate grids routed through the sweep engine.
// ------------------------------------------------------------------

TEST(DegenerateGrid, EmptyGridYieldsEmptyValidReport) {
  sweep::SweepSpec spec;  // all grids empty
  const sweep::SweepResult result = sweep::run_sweep(spec);
  EXPECT_EQ(result.num_tasks, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(result.all_bounds_hold);
  EXPECT_NE(result.to_json().find("\"tasks\": []"), std::string::npos);

  // One empty axis is enough to empty the cross product.
  spec.algorithms = {"strassen"};
  spec.n_grid = {4, 8};
  spec.m_grid = {};
  EXPECT_EQ(sweep::run_sweep(spec).num_tasks, 0u);
}

TEST(DegenerateGrid, SingleCellMatchesDirectSimulation) {
  sweep::SweepSpec spec;
  spec.algorithms = {"winograd"};
  spec.n_grid = {8};
  spec.m_grid = {24};
  spec.kinds = {sweep::TaskKind::kSimulate};
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.num_tasks, 1u);
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::winograd(), 8);
  pebble::SimOptions options;
  options.cache_size = 24;
  const auto direct =
      pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
  EXPECT_EQ(result.tasks[0].total_io, direct.total_io());
  EXPECT_EQ(result.aggregate_total_io, direct.total_io());
}

TEST(DegenerateGrid, BaseCaseN1SimulatesAndSkipsDominator) {
  // H^{1x1} is the recursion base case: 2 inputs, one product vertex.
  // Simulation and liveness work; the r=2 dominator level does not exist
  // and must be skipped, not failed.
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {1};
  spec.m_grid = {4};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness,
                sweep::TaskKind::kDominator};
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.num_tasks, 3u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.skipped, 1u);
  // 2 loads (the scalar inputs) + 1 store (the scalar output).
  EXPECT_EQ(result.tasks[0].total_io, 3);
  EXPECT_TRUE(result.tasks[2].skipped);
}

TEST(DegenerateGrid, CacheLargerThanWholeCdagHitsTrivialFloor) {
  // M beyond the vertex count ⇒ nothing is ever evicted: I/O collapses
  // to the trivial floor (2n² compulsory loads + n² output stores).
  const std::size_t n = 8;
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {n};
  spec.m_grid = {
      static_cast<std::int64_t>(cdag.graph.num_vertices()) + 10};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness};
  const sweep::SweepResult result = sweep::run_sweep(spec);
  ASSERT_EQ(result.num_tasks, 2u);
  EXPECT_EQ(result.tasks[0].total_io, pebble::trivial_io_floor(cdag));
  // Zero-spill requirement is certainly below such an M.
  EXPECT_LT(result.tasks[1].liveness_peak, spec.m_grid[0]);
}

// ------------------------------------------------------------------
// Replacement policies on a sweep grid.
// ------------------------------------------------------------------

// Belady's MIN minimizes faults, and a first reference faults under every
// policy, so on every cell of a sweep grid Belady loads no more than LRU
// on the same schedule and M (Machine.BeladyNeverLoadsMoreThanLru checks
// the MachineGolden cells).
TEST(SweepGrid, BeladyNeverLoadsMoreThanLru) {
  std::size_t cells = 0;
  for (const sweep::SchedulePolicy schedule :
       {sweep::SchedulePolicy::kDfs, sweep::SchedulePolicy::kBfs,
        sweep::SchedulePolicy::kRandom}) {
    sweep::SweepSpec spec;
    spec.algorithms = {"strassen", "winograd", "strassen-dual", "classic"};
    spec.n_grid = {4, 8, 16, 32};
    spec.m_grid = {8, 16, 64, 256};
    spec.schedule = schedule;
    const sweep::SweepResult lru = sweep::run_sweep(spec);
    spec.replacement = pebble::ReplacementPolicy::kBelady;
    const sweep::SweepResult belady = sweep::run_sweep(spec);
    ASSERT_EQ(lru.tasks.size(), belady.tasks.size());
    for (std::size_t i = 0; i < lru.tasks.size(); ++i) {
      const sweep::TaskResult& l = lru.tasks[i];
      const sweep::TaskResult& b = belady.tasks[i];
      const std::string cell =
          l.cell.algorithm + " n=" + std::to_string(l.cell.n) +
          " M=" + std::to_string(l.cell.m) + " " +
          sweep::schedule_policy_name(schedule);
      ASSERT_TRUE(l.ok && b.ok) << cell << ": " << l.error << b.error;
      EXPECT_LE(b.loads, l.loads) << cell;
      ++cells;
    }
  }
  EXPECT_EQ(cells, 192u);
}

}  // namespace
}  // namespace fmm
