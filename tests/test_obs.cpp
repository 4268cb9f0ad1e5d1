// Tests for the observability subsystem: metrics registry, Chrome
// trace-event tracer, run-report JSON writer, and their wiring into the
// pebble machine.  The Trace suite also runs under the tsan preset.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace fmm::obs {
namespace {

// --- Minimal recursive-descent JSON validator -------------------------
//
// Just enough JSON to assert that the artifacts we emit parse: objects,
// arrays, strings with escapes, numbers, true/false/null.  Returns true
// iff the whole input is exactly one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start + (s_[start] == '-' ? 1u : 0u);
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

pebble::SimResult run_strassen(std::size_t n, std::int64_t m) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  pebble::SimOptions options;
  options.cache_size = m;
  return pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
}

// --- Metrics registry -------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  auto& registry = Registry::instance();
  registry.reset();
  auto& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same counter.
  EXPECT_EQ(registry.counter("test.counter").value(), 42);

  auto& g = registry.gauge("test.gauge");
  g.set(7);
  g.record_max(3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(11);
  EXPECT_EQ(g.value(), 11);

  // Reset zeroes values but keeps references valid.
  registry.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, SnapshotIsSortedByName) {
  auto& registry = Registry::instance();
  registry.reset();
  registry.counter("zz.last").add(1);
  registry.counter("aa.first").add(2);
  const auto snap = registry.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap) {
    names.push_back(name);
  }
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LE(names[i - 1], names[i]);
  }
}

// Tentpole acceptance: registry counters must agree exactly with the
// pebble machine's own I/O accounting.
TEST(Metrics, PebbleCountersMatchSimResult) {
  auto& registry = Registry::instance();
  registry.reset();
  const auto result = run_strassen(8, 16);
  EXPECT_EQ(registry.counter("pebble.loads").value(), result.loads);
  EXPECT_EQ(registry.counter("pebble.stores").value(), result.stores);
  EXPECT_EQ(registry.counter("pebble.computations").value(),
            result.computations);
  EXPECT_EQ(registry.counter("pebble.simulations").value(), 1);

  // Counters accumulate across runs.
  const auto again = run_strassen(8, 16);
  EXPECT_EQ(registry.counter("pebble.loads").value(),
            result.loads + again.loads);
  EXPECT_EQ(registry.counter("pebble.simulations").value(), 2);
}

// --- Tracer -----------------------------------------------------------

/// Per-tid B/E depth of a rendered trace; fails the test on an 'E'
/// without its 'B' or on any phase other than B and E.
std::map<std::int64_t, std::int64_t> span_depth_by_tid(
    const std::string& json) {
  const JsonValue doc = parse_json(json);
  std::map<std::int64_t, std::int64_t> depth;
  for (const JsonValue& event : doc.at("traceEvents").items()) {
    const std::string& ph = event.at("ph").as_string();
    std::int64_t& d = depth[event.at("tid").as_i64()];
    if (ph == "B") {
      ++d;
    } else {
      EXPECT_EQ(ph, "E");
      --d;
      EXPECT_GE(d, 0);
    }
  }
  return depth;
}

TEST(Trace, SpansBalanceAndJsonParses) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  {
    FMM_TRACE_SPAN("outer", "test");
    {
      FMM_TRACE_SPAN("inner", "test");
    }
  }
  tracer.enable(false);
  EXPECT_EQ(tracer.num_events(), 4u);  // B B E E

  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  for (const auto& [tid, depth] : span_depth_by_tid(json)) {
    EXPECT_EQ(depth, 0) << "tid " << tid;
  }
  tracer.clear();
}

TEST(Trace, SimulationEmitsEventsOnlyWhenEnabled) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(false);

  // Tracer disabled at runtime: simulation records nothing.
  const auto quiet = run_strassen(8, 16);
  EXPECT_EQ(tracer.num_events(), 0u);

  tracer.enable(true);
  const auto traced = run_strassen(8, 16);
  EXPECT_GT(tracer.num_events(), 0u);

  // Tracing must not perturb the simulation itself.
  EXPECT_EQ(quiet.loads, traced.loads);
  EXPECT_EQ(quiet.stores, traced.stores);
  EXPECT_EQ(quiet.computations, traced.computations);

  tracer.enable(false);
  tracer.clear();
}

// Evictions, drops, recomputations and closed segments are counted in
// the registry, not traced: a traced run holds one B/E pair per call.
TEST(Trace, TracedRunsRecordOnlySpans) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 16);
  const std::vector<graph::VertexId> schedule = pebble::dfs_schedule(cdag);
  auto& registry = Registry::instance();
  registry.reset();
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(true);

  pebble::SimOptions options;
  options.cache_size = 16;
  pebble::simulate(cdag, schedule, options);
  options.replacement = pebble::ReplacementPolicy::kBelady;
  pebble::simulate(cdag, schedule, options);
  options.replacement = pebble::ReplacementPolicy::kLru;
  options.writeback = pebble::WritebackPolicy::kDropRecomputable;
  const pebble::SimResult remat =
      pebble::simulate_with_recomputation(cdag, schedule, options);
  const bounds::SegmentAnalysis segments =
      bounds::analyze_segments(cdag, remat.summary, options.cache_size);
  tracer.enable(false);

  EXPECT_GT(remat.recomputations, 0);
  EXPECT_FALSE(segments.segments.empty());
  EXPECT_GT(registry.counter("pebble.evictions").value(), 0);
  EXPECT_EQ(tracer.num_events(), 8u);
  const std::string json = tracer.to_json();
  for (const auto& [tid, depth] : span_depth_by_tid(json)) {
    EXPECT_EQ(depth, 0) << "tid " << tid;
  }
  tracer.clear();
}

TEST(Trace, ConcurrentSpansBalancePerThread) {
  constexpr int kThreads = 4;
  constexpr int kPairs = 1000;
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPairs; ++i) {
        FMM_TRACE_SPAN("outer", "test");
        FMM_TRACE_SPAN("inner", "test");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  tracer.enable(false);

  EXPECT_EQ(tracer.num_events(),
            static_cast<std::size_t>(kThreads) * kPairs * 4);
  const auto depth = span_depth_by_tid(tracer.to_json());
  EXPECT_EQ(depth.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "tid " << tid;
  }
  tracer.clear();
}

// --- Run report -------------------------------------------------------

TEST(RunReport, JsonShapeAndEscaping) {
  auto& registry = Registry::instance();
  registry.reset();
  registry.counter("pebble.loads").add(123);

  RunReport report("unit \"quoted\" name");
  report.set_param("algorithm", "strassen");
  report.set_param("n", std::int64_t{32});
  report.set_param("exact", true);
  report.add_phase_seconds("build", 0.25);
  report.add_bound_check("check/a", 100.0, 250.0);
  report.set_result("total_io", std::int64_t{250});
  report.attach_metrics_snapshot();

  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"fmm.run_report\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"pebble.loads\": 123"), std::string::npos);
  // Bound checks carry the measured/bound ratio.
  EXPECT_NE(json.find("\"ratio\": 2.5"), std::string::npos);
}

TEST(RunReport, NonFiniteValuesSerializeAsNull) {
  RunReport report("nonfinite");
  report.set_result("inf", std::numeric_limits<double>::infinity());
  report.set_result("nan", std::numeric_limits<double>::quiet_NaN());
  const std::string json = report.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
}

TEST(RunReport, CliParsing) {
  const char* argv[] = {"prog", "--out", "r.json", "--trace", "t.json",
                        "--seed", "9"};
  const ReportCli cli =
      parse_report_cli(7, const_cast<char**>(argv));
  EXPECT_EQ(cli.out_path, "r.json");
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_EQ(cli.seed, 9u);
  EXPECT_TRUE(cli.wants_report());

  const char* bare[] = {"prog"};
  const ReportCli none = parse_report_cli(1, const_cast<char**>(bare));
  EXPECT_FALSE(none.wants_report());
  EXPECT_EQ(none.seed, 1u);
}

// A full disk fails at flush time, after `<<` has already succeeded into
// the stream buffer; the writers must notice and name the file.
TEST(RunReport, WriteToFullDiskThrowsNamingPath) {
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) {
    GTEST_SKIP() << full << " is not available";
  }
  const auto expect_refused = [&full](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "write to " << full << " did not throw";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(full), std::string::npos) << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  };
  expect_refused([&] { write_file_checked(full, "{}\n"); });
  expect_refused([&] { RunReport("full").write_file(full); });
}

}  // namespace
}  // namespace fmm::obs
