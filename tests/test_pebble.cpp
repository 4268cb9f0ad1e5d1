// Tests for the two-level machine simulator (red-blue pebble executor),
// schedule generators, and the recomputation runner.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "pebble/liveness.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::pebble {
namespace {

using cdag::build_cdag;

cdag::Cdag strassen_cdag(std::size_t n) {
  return build_cdag(bilinear::strassen(), n);
}

// liveness_profile validates a schedule in the pass that measures it.
TEST(Schedules, DfsIsValid) {
  for (const std::size_t n : {2u, 4u, 8u}) {
    const cdag::Cdag cdag = strassen_cdag(n);
    EXPECT_NO_THROW(liveness_profile(cdag, dfs_schedule(cdag))) << n;
  }
}

TEST(Schedules, BfsIsValid) {
  const cdag::Cdag cdag = strassen_cdag(8);
  EXPECT_NO_THROW(liveness_profile(cdag, bfs_schedule(cdag)));
}

TEST(Schedules, RandomTopologicalIsValid) {
  const cdag::Cdag cdag = strassen_cdag(4);
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    EXPECT_NO_THROW(
        liveness_profile(cdag, random_topological_schedule(cdag, rng)));
  }
}

// The one-line CheckError liveness_profile refuses `schedule` with.
std::string refusal(const cdag::Cdag& cdag,
                    const std::vector<graph::VertexId>& schedule) {
  try {
    liveness_profile(cdag, schedule);
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    return what;
  }
  ADD_FAILURE() << "schedule of " << schedule.size() << " steps accepted";
  return "";
}

TEST(Schedules, InvalidSchedulesRejected) {
  const cdag::Cdag cdag = strassen_cdag(2);  // 8 inputs, 25 others
  const auto schedule = dfs_schedule(cdag);
  const auto refuses = [&cdag](const std::vector<graph::VertexId>& bad,
                               const std::string& text) {
    const std::string what = refusal(cdag, bad);
    EXPECT_NE(what.find(text), std::string::npos) << what;
  };
  const auto at = [](std::size_t step, graph::VertexId v) {
    return "at step " + std::to_string(step) + ": vertex " +
           std::to_string(v) + " is ";
  };
  // Reversed order breaks dependencies.
  const std::vector<graph::VertexId> reversed(schedule.rbegin(),
                                              schedule.rend());
  refuses(reversed, at(0, reversed[0]) + "computed before its operand ");
  // Missing one vertex.
  auto truncated = schedule;
  truncated.pop_back();
  refuses(truncated, "24 steps for the CDAG's 25 non-input vertices");
  // Duplicate vertex.
  auto duplicated = schedule;
  duplicated.push_back(schedule.back());
  refuses(duplicated, at(25, schedule.back()) + "computed twice");
  // Contains an input.
  auto with_input = schedule;
  with_input.insert(with_input.begin(), cdag.inputs_a[0]);
  refuses(with_input, at(0, cdag.inputs_a[0]) + "an input");
  // An id past the last vertex.
  auto out_of_range = schedule;
  out_of_range[3] = 33;
  refuses(out_of_range, at(3, 33) + "out of range (the CDAG has 33 vertices)");
  // Nothing at all.
  refuses({}, "0 steps for the CDAG's 25 non-input vertices");
}

TEST(Machine, TinyCdagExactIo) {
  // H^{2x2} with a huge cache: every input read once, every output
  // written once: IO = 8 + 4 = trivial floor.
  const cdag::Cdag cdag = strassen_cdag(2);
  SimOptions options;
  options.cache_size = 1000;
  const SimResult result = simulate(cdag, dfs_schedule(cdag), options);
  EXPECT_EQ(result.loads, 8);
  EXPECT_EQ(result.stores, 4);
  EXPECT_EQ(result.total_io(), trivial_io_floor(cdag));
  EXPECT_EQ(result.recomputations, 0);
}

TEST(Machine, TrivialFloorValue) {
  EXPECT_EQ(trivial_io_floor(strassen_cdag(4)), 3 * 16);
}

TEST(Machine, IoNeverBelowTrivialFloor) {
  const cdag::Cdag cdag = strassen_cdag(8);
  for (const std::int64_t m : {8, 16, 32, 64, 1 << 20}) {
    SimOptions options;
    options.cache_size = m;
    const SimResult result = simulate(cdag, dfs_schedule(cdag), options);
    EXPECT_GE(result.total_io(), trivial_io_floor(cdag)) << "M=" << m;
  }
}

TEST(Machine, IoDecreasesWithCache) {
  const cdag::Cdag cdag = strassen_cdag(16);
  const auto schedule = dfs_schedule(cdag);
  std::int64_t prev = INT64_MAX;
  for (const std::int64_t m : {8, 32, 128, 512, 4096}) {
    SimOptions options;
    options.cache_size = m;
    const SimResult result = simulate(cdag, schedule, options);
    EXPECT_LE(result.total_io(), prev) << "M=" << m;
    prev = result.total_io();
  }
}

TEST(Machine, BeladyNeverWorseThanLruOnDfs) {
  const cdag::Cdag cdag = strassen_cdag(8);
  const auto schedule = dfs_schedule(cdag);
  for (const std::int64_t m : {16, 64, 256}) {
    SimOptions lru;
    lru.cache_size = m;
    lru.replacement = ReplacementPolicy::kLru;
    SimOptions opt = lru;
    opt.replacement = ReplacementPolicy::kBelady;
    // Belady optimizes hits; with write-backs the totals can differ
    // slightly, so compare loads (misses).
    EXPECT_LE(simulate(cdag, schedule, opt).loads,
              simulate(cdag, schedule, lru).loads)
        << "M=" << m;
  }
}

TEST(Machine, DfsBeatsBfsAtSmallCache) {
  const cdag::Cdag cdag = strassen_cdag(16);
  SimOptions options;
  options.cache_size = 32;
  const std::int64_t dfs_io = simulate(cdag, dfs_schedule(cdag), options)
                                  .total_io();
  const std::int64_t bfs_io = simulate(cdag, bfs_schedule(cdag), options)
                                  .total_io();
  EXPECT_LT(dfs_io, bfs_io);
}

TEST(Machine, IoAboveAsymptoticBound) {
  // Measured I/O of a legal schedule must sit above a constant times the
  // (n/sqrt(M))^{log2 7} * M formula; we use constant 1/8 (conservative,
  // the paper's constants are not optimized).
  const cdag::Cdag cdag = strassen_cdag(16);
  const auto schedule = dfs_schedule(cdag);
  for (const std::int64_t m : {16, 64}) {
    SimOptions options;
    options.cache_size = m;
    const SimResult result = simulate(cdag, schedule, options);
    const double bound = bounds::fast_memory_dependent(
        {16.0, static_cast<double>(m), 1.0}, kOmega0);
    EXPECT_GE(static_cast<double>(result.total_io()), bound / 8.0)
        << "M=" << m;
  }
}

TEST(Machine, SummaryTracksIoMonotonically) {
  const cdag::Cdag cdag = strassen_cdag(4);
  SimOptions options;
  options.cache_size = 8;
  const SimResult result = simulate(cdag, dfs_schedule(cdag), options);
  ASSERT_EQ(result.summary.compute_order.size(),
            result.summary.io_before.size());
  for (std::size_t i = 1; i < result.summary.io_before.size(); ++i) {
    EXPECT_LE(result.summary.io_before[i - 1], result.summary.io_before[i]);
  }
  EXPECT_EQ(result.summary.total_io, result.total_io());
}

TEST(Machine, WeightedIoRespectsCosts) {
  const cdag::Cdag cdag = strassen_cdag(4);
  SimOptions options;
  options.cache_size = 16;
  options.read_cost = 1;
  options.write_cost = 5;  // NVM-style asymmetric writes
  const SimResult result = simulate(cdag, dfs_schedule(cdag), options);
  EXPECT_EQ(result.weighted_io, result.loads + 5 * result.stores);
  EXPECT_GT(result.weighted_io, result.total_io());
}

/// The CheckError message `run` throws, or "" when it returns normally.
template <typename Run>
std::string check_error(Run&& run) {
  try {
    run();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// The fully-pinned diagnostic for the first step of `order` at M = 2.
std::string fully_pinned_at_first_step(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& order) {
  return "fast memory of size 2 fully pinned at step 0 (vertex " +
         std::to_string(order[0]) + " with " +
         std::to_string(cdag.graph.in_degree(order[0])) + " operands)";
}

TEST(Machine, TooSmallCacheThrows) {
  const cdag::Cdag cdag = strassen_cdag(2);
  const auto schedule = dfs_schedule(cdag);
  SimOptions options;
  options.cache_size = 1;
  EXPECT_THROW(simulate(cdag, schedule, options), CheckError);
  const std::string what =
      check_error([&] { simulate(cdag, schedule, options); });
  EXPECT_NE(what.find("fast memory of size 1 is too small"), std::string::npos)
      << what;
  EXPECT_NE(what.find("M must be >= 2"), std::string::npos) << what;
  // M = 2 passes the precondition, but the first step's two operands
  // fill fast memory: the error names M, the step, the vertex and its
  // operand count, under either replacement policy.
  options.cache_size = 2;
  for (const auto policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kBelady}) {
    options.replacement = policy;
    const std::string pinned =
        check_error([&] { simulate(cdag, schedule, options); });
    EXPECT_NE(pinned.find(fully_pinned_at_first_step(cdag, schedule)),
              std::string::npos)
        << pinned;
  }
}

TEST(Machine, MissingOutputDetected) {
  const cdag::Cdag cdag = strassen_cdag(2);
  auto schedule = dfs_schedule(cdag);
  schedule.pop_back();  // drop the last output computation
  SimOptions options;
  options.cache_size = 100;
  EXPECT_THROW(simulate(cdag, schedule, options), CheckError);
  // A zero-step schedule has an empty reference string, so Belady's
  // next-use bitset is sized for no positions.
  for (const auto policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kBelady}) {
    options.replacement = policy;
    const std::string what = check_error([&] { simulate(cdag, {}, options); });
    EXPECT_NE(what.find("schedule never computes output vertex " +
                        std::to_string(cdag.outputs[0])),
              std::string::npos)
        << what;
  }
}

TEST(Machine, DroppedIntermediateWithoutRecomputeIsIllegal) {
  // With kDropIntermediates and a small cache, a plain DFS schedule that
  // reuses a dropped value must be detected as illegal.
  const cdag::Cdag cdag = strassen_cdag(8);
  SimOptions options;
  options.cache_size = 8;
  options.writeback = WritebackPolicy::kDropIntermediates;
  EXPECT_THROW(simulate(cdag, dfs_schedule(cdag), options), CheckError);
}

TEST(Recompute, ProducesLegalReplayableSchedule) {
  const cdag::Cdag cdag = strassen_cdag(4);
  SimOptions options;
  options.cache_size = 16;
  options.writeback = WritebackPolicy::kDropRecomputable;
  const SimResult dynamic =
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options);
  EXPECT_GT(dynamic.computations, 0);
  // Replaying the effective schedule through the static simulator with
  // identical options must succeed and yield identical I/O.
  const SimResult replay =
      simulate(cdag, dynamic.summary.compute_order, options);
  EXPECT_EQ(replay.loads, dynamic.loads);
  EXPECT_EQ(replay.stores, dynamic.stores);
}

TEST(Recompute, NoRecomputationWithBigCache) {
  const cdag::Cdag cdag = strassen_cdag(4);
  SimOptions options;
  options.cache_size = 1 << 16;
  options.writeback = WritebackPolicy::kDropIntermediates;
  const SimResult result =
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options);
  EXPECT_EQ(result.recomputations, 0);
  EXPECT_EQ(result.total_io(), trivial_io_floor(cdag));
}

TEST(Recompute, SmallCacheTriggersRecomputation) {
  const cdag::Cdag cdag = strassen_cdag(8);
  SimOptions options;
  options.cache_size = 24;
  options.writeback = WritebackPolicy::kDropRecomputable;
  const SimResult result =
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options);
  EXPECT_GT(result.recomputations, 0);
}

TEST(Recompute, AllDropRegimeNeedsOmegaN2Memory) {
  // With NO intermediate stores, the live frontier of the recursion is
  // Θ(n^2); smaller fast memory livelocks, and the runner detects it.
  const cdag::Cdag cdag = strassen_cdag(8);
  SimOptions options;
  options.cache_size = 24;  // << 2 n^2 = 128
  options.writeback = WritebackPolicy::kDropIntermediates;
  EXPECT_THROW(
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options),
      CheckError);
  // With M ~ 6 n^2 the same regime completes and recomputes.
  options.cache_size = 6 * 64;
  const SimResult result =
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options);
  EXPECT_GT(result.recomputations, 0);
}

TEST(Recompute, IoStillAboveBound) {
  // The paper's headline: recomputation cannot push I/O below
  // Ω((n/sqrt(M))^{log2 7} M).
  const cdag::Cdag cdag = strassen_cdag(8);
  for (const std::int64_t m : {24, 48, 96}) {
    SimOptions options;
    options.cache_size = m;
    options.writeback = WritebackPolicy::kDropRecomputable;
    const SimResult result =
        simulate_with_recomputation(cdag, dfs_schedule(cdag), options);
    const double bound = bounds::fast_memory_dependent(
        {8.0, static_cast<double>(m), 1.0}, kOmega0);
    EXPECT_GE(static_cast<double>(result.total_io()), bound / 8.0)
        << "M=" << m;
  }
}

TEST(Recompute, TooSmallCacheThrows) {
  // The recomputation runner shares simulate()'s precondition and its
  // fully-pinned diagnostic.
  const cdag::Cdag cdag = strassen_cdag(2);
  const auto order = dfs_schedule(cdag);
  SimOptions options;
  options.writeback = WritebackPolicy::kDropRecomputable;
  for (const std::int64_t m : {0, 1}) {
    options.cache_size = m;
    const std::string what = check_error(
        [&] { simulate_with_recomputation(cdag, order, options); });
    EXPECT_NE(what.find("fast memory of size " + std::to_string(m) +
                        " is too small"),
              std::string::npos)
        << what;
  }
  options.cache_size = 2;
  const std::string pinned =
      check_error([&] { simulate_with_recomputation(cdag, order, options); });
  EXPECT_NE(pinned.find(fully_pinned_at_first_step(cdag, order)),
            std::string::npos)
      << pinned;
}

TEST(Recompute, RequiresLruAndDrop) {
  const cdag::Cdag cdag = strassen_cdag(2);
  SimOptions options;
  options.cache_size = 16;
  options.writeback = WritebackPolicy::kDropIntermediates;
  options.replacement = ReplacementPolicy::kBelady;
  EXPECT_THROW(
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options),
      CheckError);
  options.replacement = ReplacementPolicy::kLru;
  options.writeback = WritebackPolicy::kWritebackLive;
  EXPECT_THROW(
      simulate_with_recomputation(cdag, dfs_schedule(cdag), options),
      CheckError);
}

TEST(Machine, RandomSchedulesAreLegalAndBounded) {
  const cdag::Cdag cdag = strassen_cdag(4);
  Rng rng(909);
  SimOptions options;
  options.cache_size = 32;
  for (int trial = 0; trial < 5; ++trial) {
    const auto schedule = random_topological_schedule(cdag, rng);
    const SimResult result = simulate(cdag, schedule, options);
    EXPECT_GE(result.total_io(), trivial_io_floor(cdag));
  }
}

}  // namespace
}  // namespace fmm::pebble
