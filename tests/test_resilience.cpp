// Fault injection, retry, checkpoint/resume, and recovery-by-
// recomputation: the resilience layer's determinism contracts.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "parallel/distsim.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace fmm;

// ---------------------------------------------------------------------------
// Fault model

TEST(ResilienceFault, SplitmixIsDeterministicAndKeyed) {
  EXPECT_EQ(splitmix64(1, 2, 3), splitmix64(1, 2, 3));
  EXPECT_NE(splitmix64(1, 2, 3), splitmix64(2, 2, 3));
  EXPECT_NE(splitmix64(1, 2, 3), splitmix64(1, 3, 2));
  for (std::uint64_t a = 0; a < 100; ++a) {
    const double u = splitmix_unit(42, a);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(ResilienceFault, RandomScheduleIsReproducible) {
  const auto a = resilience::FaultSpec::random_schedule(7, 49, 10, 3, 0.1);
  const auto b = resilience::FaultSpec::random_schedule(7, 49, 10, 3, 0.1);
  ASSERT_EQ(a.wipes.size(), 3u);
  for (std::size_t i = 0; i < a.wipes.size(); ++i) {
    EXPECT_EQ(a.wipes[i].processor, b.wipes[i].processor);
    EXPECT_EQ(a.wipes[i].step, b.wipes[i].step);
    EXPECT_GE(a.wipes[i].processor, 0);
    EXPECT_LT(a.wipes[i].processor, 49);
    EXPECT_GE(a.wipes[i].step, 0);
    EXPECT_LT(a.wipes[i].step, 10);
  }
  const auto c = resilience::FaultSpec::random_schedule(8, 49, 10, 3, 0.1);
  bool any_different = false;
  for (std::size_t i = 0; i < a.wipes.size(); ++i) {
    any_different = any_different ||
                    a.wipes[i].processor != c.wipes[i].processor ||
                    a.wipes[i].step != c.wipes[i].step;
  }
  EXPECT_TRUE(any_different) << "different seeds drew identical schedules";
}

TEST(ResilienceFault, RetransmissionsAreDeterministicAndZeroWithoutDrops) {
  resilience::FaultSpec clean;
  clean.message_drop_rate = 0.0;
  const resilience::FaultInjector none(clean);
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(none.retransmissions(t), 0);
  }

  resilience::FaultSpec lossy;
  lossy.seed = 5;
  lossy.message_drop_rate = 0.3;
  const resilience::FaultInjector a(lossy);
  const resilience::FaultInjector b(lossy);
  std::int64_t total = 0;
  for (std::uint64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(a.retransmissions(t), b.retransmissions(t));
    EXPECT_GE(a.retransmissions(t), 0);
    total += a.retransmissions(t);
  }
  EXPECT_GT(total, 0) << "30% drop rate produced no retransmissions";
}

TEST(ResilienceFault, InjectorRejectsBadSpecs) {
  resilience::FaultSpec bad;
  bad.message_drop_rate = 1.0;  // would retransmit forever
  EXPECT_THROW(resilience::FaultInjector{bad}, CheckError);
  bad.message_drop_rate = -0.1;
  EXPECT_THROW(resilience::FaultInjector{bad}, CheckError);
  bad.message_drop_rate = 0.0;
  bad.wipes.push_back({-1, 0});
  EXPECT_THROW(resilience::FaultInjector{bad}, CheckError);
  resilience::FaultSpec capless;
  capless.max_retransmissions = 0;
  EXPECT_THROW(resilience::FaultInjector{capless}, CheckError);
  capless.max_retransmissions = -3;
  EXPECT_THROW(resilience::FaultInjector{capless}, CheckError);
}

TEST(ResilienceFault, RetransmissionCapMatchesLegacyDefault) {
  // The configurable cap defaults to the historical hard-coded 64:
  // every count a legacy run produced is reproduced byte-for-byte.
  resilience::FaultSpec legacy;
  legacy.seed = 5;
  legacy.message_drop_rate = 0.3;
  EXPECT_EQ(legacy.max_retransmissions, 64);
  resilience::FaultSpec widened = legacy;
  widened.max_retransmissions = 1024;  // never reached at 30%
  const resilience::FaultInjector a(legacy);
  const resilience::FaultInjector b(widened);
  for (std::uint64_t t = 0; t < 2000; ++t) {
    EXPECT_EQ(a.retransmissions(t), b.retransmissions(t));
  }
}

TEST(ResilienceFault, ExceededCapReportsStepAndProcessor) {
  // cap=1 with a near-certain drop rate: some transfer keeps dropping
  // past its cap, and the error must carry the (step, processor)
  // coordinate the schedule is debugged by.
  resilience::FaultSpec harsh;
  harsh.seed = 9;
  harsh.message_drop_rate = 0.99;
  harsh.max_retransmissions = 1;
  const resilience::FaultInjector injector(harsh);
  bool threw = false;
  for (std::uint64_t t = 0; t < 64 && !threw; ++t) {
    try {
      injector.retransmissions(t, 3, 5);
    } catch (const CheckError& e) {
      threw = true;
      const std::string what = e.what();
      EXPECT_NE(what.find("retransmission cap of 1"), std::string::npos);
      EXPECT_NE(what.find("at step 3 on processor 5"), std::string::npos);
    }
  }
  EXPECT_TRUE(threw) << "99% drop never exceeded a cap of 1";

  // The coordinate-free overload still names the cap, but marks the
  // location unknown instead of inventing one.
  bool threw_unknown = false;
  for (std::uint64_t t = 0; t < 64 && !threw_unknown; ++t) {
    try {
      injector.retransmissions(t);
    } catch (const CheckError& e) {
      threw_unknown = true;
      EXPECT_NE(std::string(e.what()).find("(step/processor unknown)"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(threw_unknown);
}

TEST(ResilienceFault, EventsJsonIsSortedByStepThenProcessor) {
  std::vector<resilience::FaultEvent> events;
  events.push_back({2, 1, 10});
  events.push_back({0, 3, 5});
  events.push_back({0, 1, 7});
  const std::string json = resilience::fault_events_to_json(events);
  const auto parsed = parse_json(json);
  ASSERT_EQ(parsed.items().size(), 3u);
  EXPECT_EQ(parsed.items()[0].at("step").as_i64(), 0);
  EXPECT_EQ(parsed.items()[0].at("processor").as_i64(), 1);
  EXPECT_EQ(parsed.items()[1].at("processor").as_i64(), 3);
  EXPECT_EQ(parsed.items()[2].at("step").as_i64(), 2);
  EXPECT_EQ(parsed.items()[2].at("recovered_words").as_i64(), 10);
  for (const auto& event : parsed.items()) {
    EXPECT_EQ(event.at("kind").as_string(), "wipe");
  }
}

// ---------------------------------------------------------------------------
// Faulted distributed simulation (Theorem 1.1 with recomputation)

TEST(ResilienceDistSim, ZeroFaultSpecMatchesCleanSimulation) {
  const auto clean = parallel::simulate_caps_elementwise(16, 7);
  resilience::FaultSpec spec;  // no wipes, no drops
  const auto result = parallel::simulate_caps_elementwise_faulted(16, 7, spec);
  EXPECT_EQ(result.faulted.max_words_per_proc(),
            clean.max_words_per_proc());
  EXPECT_EQ(result.faulted.total_words(), clean.total_words());
  EXPECT_EQ(result.retransmitted_words, 0);
  EXPECT_EQ(result.recovery_words, 0);
  EXPECT_TRUE(result.events.empty());
  EXPECT_TRUE(result.faulted_dominates_fault_free);
  EXPECT_TRUE(result.bound_holds);
}

TEST(ResilienceDistSim, FaultedRunsAreReproducible) {
  const auto spec =
      resilience::FaultSpec::random_schedule(11, 7, 3, 2, 0.05);
  const auto a = parallel::simulate_caps_elementwise_faulted(32, 7, spec);
  const auto b = parallel::simulate_caps_elementwise_faulted(32, 7, spec);
  EXPECT_EQ(a.faulted.sent, b.faulted.sent);
  EXPECT_EQ(a.faulted.received, b.faulted.received);
  EXPECT_EQ(a.retransmitted_words, b.retransmitted_words);
  EXPECT_EQ(a.recovery_words, b.recovery_words);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].recovered_words, b.events[i].recovered_words);
  }
}

// The acceptance scenario: seeded schedules with at least one wipe and a
// nonzero drop rate, at Strassen sizes n in {16, 32} on P in {7, 49}.
// Recovery must complete and the faulted cost chain
// faulted >= fault-free >= Theorem 1.1 bound must hold at every cell.
TEST(ResilienceDistSim, FaultedCostDominatesAndStaysAboveTheorem11) {
  for (const std::int64_t n : {16, 32}) {
    for (const std::int64_t p : {7, 49}) {
      const auto spec = resilience::FaultSpec::random_schedule(
          /*seed=*/13, static_cast<int>(p), /*max_step=*/2,
          /*wipe_count=*/2, /*message_drop_rate=*/0.05);
      ASSERT_GE(spec.wipes.size(), 1u);
      const auto result =
          parallel::simulate_caps_elementwise_faulted(n, p, spec);
      EXPECT_TRUE(result.faulted_dominates_fault_free)
          << "n=" << n << " P=" << p;
      EXPECT_TRUE(result.bound_holds) << "n=" << n << " P=" << p;
      EXPECT_GE(static_cast<double>(result.faulted.max_words_per_proc()),
                result.parallel_lower_bound);
      EXPECT_GT(result.parallel_lower_bound, 0.0);
    }
  }
}

TEST(ResilienceDistSim, WipeRecoveryChargesEveryReplayedWord) {
  resilience::FaultSpec spec;
  spec.wipes.push_back({0, 0});  // wipe processor 0 at the root step
  const auto result =
      parallel::simulate_caps_elementwise_faulted(32, 7, spec);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_GT(result.events[0].recovered_words, 0);
  EXPECT_EQ(result.recovery_words, result.events[0].recovered_words);
  // Recovery words are charged on top of the fault-free totals.
  EXPECT_EQ(result.faulted.total_words(),
            result.fault_free.total_words() + result.recovery_words);
}

TEST(ResilienceDistSim, RejectsBadFaultArguments) {
  resilience::FaultSpec spec;
  spec.wipes.push_back({99, 0});  // processor outside [0, 7)
  EXPECT_THROW(parallel::simulate_caps_elementwise_faulted(32, 7, spec),
               CheckError);
  resilience::FaultSpec ok_spec;
  EXPECT_THROW(parallel::simulate_caps_elementwise_faulted(32, 1, ok_spec),
               CheckError)
      << "P=1 has no communication to fault";
}

// ---------------------------------------------------------------------------
// Retry with virtual-clock backoff

TEST(ResilienceRetry, BackoffGrowsGeometrically) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff_ticks = 3;
  policy.backoff_multiplier = 2;
  EXPECT_EQ(resilience::backoff_before_attempt(policy, 2), 3);
  EXPECT_EQ(resilience::backoff_before_attempt(policy, 3), 6);
  EXPECT_EQ(resilience::backoff_before_attempt(policy, 4), 12);
  EXPECT_EQ(resilience::backoff_before_attempt(policy, 5), 24);
}

TEST(ResilienceRetry, TryAdvanceStopsAtMaxAttempts) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 3;
  resilience::RetryState state;
  EXPECT_TRUE(resilience::try_advance(policy, state));   // attempt 1
  EXPECT_EQ(state.attempts, 1);
  EXPECT_EQ(state.clock_ticks, 0);
  EXPECT_TRUE(resilience::try_advance(policy, state));   // attempt 2
  EXPECT_EQ(state.clock_ticks, 1);
  EXPECT_TRUE(resilience::try_advance(policy, state));   // attempt 3
  EXPECT_EQ(state.clock_ticks, 3);
  EXPECT_FALSE(resilience::try_advance(policy, state));  // exhausted
  EXPECT_TRUE(state.gave_up);
  EXPECT_EQ(state.attempts, 3);
}

TEST(ResilienceRetry, VirtualDeadlineCutsRetriesShort) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ticks = 3;
  policy.backoff_multiplier = 2;
  policy.deadline_ticks = 4;  // allows the first 3-tick backoff only
  resilience::RetryState state;
  EXPECT_TRUE(resilience::try_advance(policy, state));   // attempt 1
  EXPECT_TRUE(resilience::try_advance(policy, state));   // attempt 2, clock 3
  EXPECT_FALSE(resilience::try_advance(policy, state));  // +6 > deadline
  EXPECT_TRUE(state.gave_up);
  EXPECT_EQ(state.attempts, 2);
  EXPECT_EQ(state.clock_ticks, 3);
}

TEST(ResilienceRetry, OverflowingBackoffSaturatesInsteadOfThrowing) {
  // A long retry budget legitimately overflows int64 backoff around
  // attempt 64; try_advance must saturate, not throw, and without a
  // deadline the task keeps its full attempt budget.
  resilience::RetryPolicy policy;
  policy.max_attempts = 80;
  policy.base_backoff_ticks = 1;
  policy.backoff_multiplier = 2;
  policy.deadline_ticks = 0;
  resilience::RetryState state;
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(resilience::try_advance(policy, state)) << "attempt "
                                                        << (i + 1);
  }
  EXPECT_EQ(state.attempts, 80);
  EXPECT_EQ(state.clock_ticks, std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(resilience::try_advance(policy, state));
  EXPECT_TRUE(state.gave_up);
}

TEST(ResilienceRetry, SaturatedBackoffTripsNonzeroDeadline) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 200;
  policy.base_backoff_ticks = 1;
  policy.backoff_multiplier = 2;
  policy.deadline_ticks = std::int64_t{1} << 62;
  resilience::RetryState state;
  while (resilience::try_advance(policy, state)) {
  }
  EXPECT_TRUE(state.gave_up);
  EXPECT_LT(state.attempts, 80) << "deadline should cut the budget short";
  EXPECT_LE(state.clock_ticks, policy.deadline_ticks);
}

TEST(ResilienceRetry, ValidateRejectsMalformedPolicies) {
  resilience::RetryPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(resilience::validate(policy), CheckError);
  policy.max_attempts = 1;
  policy.backoff_multiplier = 0;
  EXPECT_THROW(resilience::validate(policy), CheckError);
  policy.backoff_multiplier = 2;
  policy.base_backoff_ticks = -1;
  EXPECT_THROW(resilience::validate(policy), CheckError);
}

// ---------------------------------------------------------------------------
// Resilient sweep engine

sweep::SweepSpec tiny_spec() {
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {4, 8};
  spec.m_grid = {16};
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kBoundCheck};
  spec.base_seed = 42;
  spec.num_threads = 1;
  return spec;
}

/// The census footprint of tiny_spec's Strassen n=8 cell: 64,133 B,
/// against 8,235 B at n=4.  One byte less keeps n=4 and degrades n=8.
std::int64_t n8_footprint() {
  return static_cast<std::int64_t>(
      cdag::census(bilinear::strassen(), 8).memory_bytes);
}

TEST(ResilienceSweep, InjectedFailuresRecoverDeterministically) {
  sweep::SweepSpec spec = tiny_spec();
  spec.retry.max_attempts = 4;
  spec.inject_failure_rate = 0.4;
  spec.inject_seed = 7;
  spec.keep_going = true;

  const sweep::SweepResult reference = sweep::run_sweep(spec);
  EXPECT_EQ(reference.failed, 0u)
      << "40% transient faults with 4 attempts should always recover";
  bool any_retried = false;
  for (const auto& task : reference.tasks) {
    any_retried = any_retried || task.attempts > 1;
  }
  EXPECT_TRUE(any_retried)
      << "seed 7 at 40% should fault at least one attempt";

  for (const std::size_t threads : {2u, 8u}) {
    sweep::SweepSpec parallel_spec = spec;
    parallel_spec.num_threads = threads;
    const sweep::SweepResult run = sweep::run_sweep(parallel_spec);
    EXPECT_EQ(run.to_json(), reference.to_json())
        << "retry path not deterministic at " << threads << " threads";
    EXPECT_EQ(run.resilience_json(), reference.resilience_json());
  }
}

TEST(ResilienceSweep, GivesUpWithCoordinatesAfterMaxAttempts) {
  sweep::SweepSpec spec = tiny_spec();
  spec.retry.max_attempts = 3;
  spec.inject_failure_rate = 1.0;  // every attempt faults
  spec.keep_going = true;

  const sweep::SweepResult result = sweep::run_sweep(spec);
  EXPECT_EQ(result.failed, result.num_tasks);
  for (const auto& task : result.tasks) {
    EXPECT_FALSE(task.ok);
    EXPECT_TRUE(task.gave_up);
    EXPECT_EQ(task.attempts, 3);
    // The error names the cell and the attempt count.
    EXPECT_NE(task.error.find("strassen"), std::string::npos) << task.error;
    EXPECT_NE(task.error.find("(n=" + std::to_string(task.cell.n) +
                              ", M=16)"),
              std::string::npos)
        << task.error;
    EXPECT_NE(task.error.find("giving up after 3 attempt(s)"),
              std::string::npos)
        << task.error;
  }
}

TEST(ResilienceSweep, FailFastStillThrowsWhenRetriesExhaust) {
  sweep::SweepSpec spec = tiny_spec();
  spec.retry.max_attempts = 2;
  spec.inject_failure_rate = 1.0;
  spec.keep_going = false;
  EXPECT_THROW(sweep::run_sweep(spec), CheckError);
}

TEST(ResilienceSweep, BudgetDegradesOversizedCellsToSkippedRows) {
  sweep::SweepSpec spec = tiny_spec();
  spec.max_cell_bytes = n8_footprint() - 1;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  EXPECT_EQ(result.failed, 0u);
  for (const auto& task : result.tasks) {
    if (task.cell.n == 4) {
      EXPECT_FALSE(task.skipped);
      EXPECT_GT(task.total_io, 0);
    } else {
      EXPECT_TRUE(task.ok);
      EXPECT_TRUE(task.skipped);
      EXPECT_EQ(task.skip_reason, "budget");
      EXPECT_EQ(task.attempts, 0);
    }
  }
  // The aggregates re-derive from the rows.
  const auto section = parse_json(result.resilience_json());
  EXPECT_EQ(section.at("budget_skipped").as_i64(), 2);
}

TEST(ResilienceSweep, BudgetBoundaryIsTheCensusFootprint) {
  // A budget equal to a cell's footprint keeps it; one byte less skips it.
  const std::int64_t footprint = n8_footprint();
  for (const std::int64_t budget : {footprint, footprint - 1}) {
    sweep::SweepSpec spec = tiny_spec();
    spec.n_grid = {8};
    spec.max_cell_bytes = budget;
    const sweep::SweepResult result = sweep::run_sweep(spec);
    for (const auto& task : result.tasks) {
      EXPECT_TRUE(task.ok);
      EXPECT_EQ(task.skipped, budget < footprint) << "budget " << budget;
    }
  }
}

TEST(ResilienceSweep, BudgetRowsAreDeterministicAcrossThreadCounts) {
  sweep::SweepSpec spec = tiny_spec();
  spec.max_cell_bytes = n8_footprint() - 1;
  const sweep::SweepResult reference = sweep::run_sweep(spec);
  for (const std::size_t threads : {2u, 8u}) {
    sweep::SweepSpec parallel_spec = spec;
    parallel_spec.num_threads = threads;
    EXPECT_EQ(sweep::run_sweep(parallel_spec).to_json(),
              reference.to_json());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "fmm_resilience_" + name;
}

TEST(ResilienceCheckpoint, JsonParserRoundTripsUint64Seeds) {
  const auto doc = parse_json(
      "{\"seed\": 18446744073709551615, \"neg\": -7, \"pi\": 3.25, "
      "\"s\": \"a\\\"b\\nc\", \"flag\": true, \"none\": null, "
      "\"arr\": [1, 2]}");
  EXPECT_EQ(doc.at("seed").as_u64(), 18446744073709551615ULL);
  EXPECT_EQ(doc.at("neg").as_i64(), -7);
  EXPECT_DOUBLE_EQ(doc.at("pi").as_double(), 3.25);
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\nc");
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_EQ(doc.at("none").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(doc.at("arr").items().size(), 2u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), CheckError);
  EXPECT_THROW(parse_json("{\"x\": }"), CheckError);
  EXPECT_THROW(parse_json("{} trailing"), CheckError);
}

TEST(ResilienceCheckpoint, TornTailIsDroppedMidFileCorruptionRefused) {
  const std::string path = temp_path("torn.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"x\"}\n";
    out << "{\"index\": 0}\n";
    out << "{\"index\": 1, \"tr";  // killed mid-append
  }
  const auto file = resilience::load_checkpoint(path);
  EXPECT_TRUE(file.truncated_tail);
  ASSERT_EQ(file.rows.size(), 1u);
  EXPECT_EQ(file.rows[0].at("index").as_i64(), 0);

  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"x\"}\n";
    out << "{\"index\": 0, \"tr\n";  // torn...
    out << "{\"index\": 1}\n";       // ...but complete rows follow
  }
  EXPECT_THROW(resilience::load_checkpoint(path), CheckError);
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, RefusesResumeUnderDifferentSpec) {
  const std::string path = temp_path("fingerprint.jsonl");
  sweep::SweepSpec spec = tiny_spec();
  sweep::write_sweep_checkpoint(path, spec, {});
  sweep::SweepSpec other = spec;
  other.m_grid = {64};
  EXPECT_THROW(sweep::load_sweep_checkpoint(path, other), CheckError);
  // Checkpoint knobs are excluded from the fingerprint: a resume that
  // only adds them must be accepted.
  sweep::SweepSpec same = spec;
  same.checkpoint_path = path;
  same.resume = true;
  EXPECT_NO_THROW(sweep::load_sweep_checkpoint(path, same));
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, BudgetSkipsCheckpointSafelyAlongsideWorkers) {
  // Budget-skip rows are appended from the submitting thread while
  // already-queued workers append their own rows; both sides must
  // serialize on the checkpoint mutex (TSan guards this test).
  sweep::SweepSpec spec = tiny_spec();
  spec.max_cell_bytes = n8_footprint() - 1;
  spec.num_threads = 8;
  const std::string path = temp_path("budget.jsonl");
  spec.checkpoint_path = path;
  const sweep::SweepResult result = sweep::run_sweep(spec);
  const auto file = resilience::load_checkpoint(path);
  EXPECT_FALSE(file.truncated_tail);
  ASSERT_EQ(file.rows.size(), result.tasks.size());
  std::size_t skipped = 0;
  for (const auto& row : file.rows) {
    if (const auto* v = row.find("skipped")) {
      skipped += v->as_bool() ? 1 : 0;
    }
  }
  EXPECT_EQ(skipped, 2u);
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, DuplicateRowIsRejectedAsCorruption) {
  sweep::SweepSpec spec = tiny_spec();
  const sweep::SweepResult reference = sweep::run_sweep(spec);
  const std::string path = temp_path("duplicate.jsonl");
  sweep::write_sweep_checkpoint(path, spec, reference.tasks);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_GE(lines.size(), 2u);
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) {
      out << line << '\n';
    }
    out << lines[1] << '\n';  // the same task index appears twice
  }
  EXPECT_THROW(sweep::load_sweep_checkpoint(path, spec), CheckError);
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, AtomicWriterPreservesOldFileUntilPublish) {
  const std::string path = temp_path("atomic.jsonl");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\": \"old\"}\n{\"index\": 0}\n";
  }
  {
    resilience::CheckpointWriter writer(path, "{\"schema\": \"new\"}", 1,
                                        /*replace_atomically=*/true);
    writer.append_row("{\"index\": 7}");
    writer.flush();
    // Until publish(), the original checkpoint is untouched.
    const auto before = resilience::load_checkpoint(path);
    EXPECT_EQ(before.header.at("schema").as_string(), "old");
    ASSERT_EQ(before.rows.size(), 1u);

    writer.publish();
    const auto after = resilience::load_checkpoint(path);
    EXPECT_EQ(after.header.at("schema").as_string(), "new");
    ASSERT_EQ(after.rows.size(), 1u);
    EXPECT_EQ(after.rows[0].at("index").as_i64(), 7);
    EXPECT_FALSE(std::ifstream(tmp).good()) << "tmp must be renamed away";

    // The renamed stream keeps appending to the published file.
    writer.append_row("{\"index\": 8}");
    writer.flush();
  }
  const auto final_file = resilience::load_checkpoint(path);
  ASSERT_EQ(final_file.rows.size(), 2u);
  EXPECT_EQ(final_file.rows[1].at("index").as_i64(), 8);

  // An unpublished writer cleans up its temporary and leaves the
  // original authoritative.
  {
    resilience::CheckpointWriter writer(path, "{\"schema\": \"later\"}", 1,
                                        /*replace_atomically=*/true);
    writer.append_row("{\"index\": 9}");
  }
  EXPECT_FALSE(std::ifstream(tmp).good());
  EXPECT_EQ(resilience::load_checkpoint(path).rows.size(), 2u);
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, KilledSweepResumesByteIdentical) {
  sweep::SweepSpec spec = tiny_spec();
  spec.kinds = {sweep::TaskKind::kSimulate, sweep::TaskKind::kLiveness,
                sweep::TaskKind::kBoundCheck};
  const sweep::SweepResult reference = sweep::run_sweep(spec);

  const std::string path = temp_path("resume.jsonl");
  sweep::SweepSpec checkpointed = spec;
  checkpointed.checkpoint_path = path;
  const sweep::SweepResult full = sweep::run_sweep(checkpointed);
  EXPECT_EQ(full.to_json(), reference.to_json())
      << "checkpointing must not perturb the payload";

  // Simulate a kill: drop the last two rows and tear the new last line.
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  ASSERT_EQ(lines.size(), 1 + reference.tasks.size());
  {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i + 2 < lines.size(); ++i) {
      out << lines[i] << '\n';
    }
    out << lines[lines.size() - 2].substr(
        0, lines[lines.size() - 2].size() / 2);  // torn mid-write
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    // Each resume rewrites the checkpoint, so re-tear it per thread
    // count from a fresh copy.
    {
      std::ofstream out(path, std::ios::trunc);
      for (std::size_t i = 0; i + 2 < lines.size(); ++i) {
        out << lines[i] << '\n';
      }
      out << lines[lines.size() - 2].substr(
          0, lines[lines.size() - 2].size() / 2);
    }
    sweep::SweepSpec resumed = spec;
    resumed.checkpoint_path = path;
    resumed.resume = true;
    resumed.num_threads = threads;
    const sweep::SweepResult result = sweep::run_sweep(resumed);
    EXPECT_EQ(result.to_json(), reference.to_json())
        << "resumed sweep diverged at " << threads << " threads";
    EXPECT_EQ(result.resilience_json(), reference.resilience_json());
  }
  std::remove(path.c_str());
}

TEST(ResilienceCheckpoint, ResumeRestoresRetriedRowsVerbatim) {
  sweep::SweepSpec spec = tiny_spec();
  spec.retry.max_attempts = 4;
  spec.inject_failure_rate = 0.4;
  spec.inject_seed = 7;
  spec.keep_going = true;
  const sweep::SweepResult reference = sweep::run_sweep(spec);

  const std::string path = temp_path("retry_resume.jsonl");
  sweep::write_sweep_checkpoint(path, spec, reference.tasks);
  const auto restored = sweep::load_sweep_checkpoint(path, spec);
  ASSERT_EQ(restored.size(), reference.tasks.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(sweep::task_row_json(restored[i]),
              sweep::task_row_json(reference.tasks[i]));
  }

  // A fully-restored resume runs zero new tasks and still re-renders the
  // identical report.
  sweep::SweepSpec resumed = spec;
  resumed.checkpoint_path = path;
  resumed.resume = true;
  const sweep::SweepResult result = sweep::run_sweep(resumed);
  EXPECT_EQ(result.to_json(), reference.to_json());
  std::remove(path.c_str());
}

}  // namespace
