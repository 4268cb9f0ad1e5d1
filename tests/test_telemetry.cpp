// Telemetry battery: the deterministic log2-bucket Histogram (bucket
// geometry, thread-count-invariant snapshots, merge algebra, the
// Prometheus exposition), the seqlock TelemetryRing under concurrent
// writers, the TelemetrySink slow-log threshold, and the service-level
// contracts — tail/metrics ops, span phase attribution, cache
// verdicts, the stats op's derived fields, and the byte-identity
// guarantee that telemetry never leaks into canonical response bytes.
// The Histogram / Telemetry suites run under the tsan preset
// (CMakePresets.json test filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "service/service.hpp"

namespace fmm::obs {
namespace {

// --- Histogram -------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds <= 0; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(HistogramSnapshot::bucket_of(-5), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1023), 10u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1024), 11u);
  EXPECT_EQ(
      HistogramSnapshot::bucket_of(std::numeric_limits<std::int64_t>::max()),
      HistogramSnapshot::kBuckets - 1);

  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    // Every bucket's edges map back into the bucket.
    EXPECT_EQ(HistogramSnapshot::bucket_of(HistogramSnapshot::bucket_lower(b)),
              HistogramSnapshot::bucket_lower(b) == 0 ? 0u : b);
    EXPECT_EQ(HistogramSnapshot::bucket_of(HistogramSnapshot::bucket_upper(b)),
              b);
  }
  EXPECT_EQ(HistogramSnapshot::bucket_upper(HistogramSnapshot::kBuckets - 1),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Histogram, CountSumMaxExact) {
  Histogram h;
  h.record(5);
  h.record(100);
  h.record(-7);  // clamps to 0
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_EQ(snap.sum, 105);
  EXPECT_EQ(snap.max, 100);
  EXPECT_EQ(snap.bins[0], 1);  // the clamped negative
  EXPECT_EQ(snap.bins[HistogramSnapshot::bucket_of(5)], 1);
  EXPECT_EQ(snap.bins[HistogramSnapshot::bucket_of(100)], 1);
}

TEST(Histogram, EmptyPercentileIsZero) {
  const HistogramSnapshot empty = Histogram().snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.percentile(0.5), 0);
  EXPECT_EQ(empty.percentile(0.99), 0);
}

TEST(Histogram, PercentileUpperEdgeClampedToMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.record(10);  // bucket [8, 15]
  }
  h.record(1000);  // bucket [512, 1023]
  const HistogramSnapshot snap = h.snapshot();
  // p50 rank lands in the [8, 15] bucket; its upper edge is 15.
  EXPECT_EQ(snap.percentile(0.50), 15);
  // p99 rank = 99, still inside the [8, 15] bucket.
  EXPECT_EQ(snap.percentile(0.99), 15);
  // p100 lands in the 1000 bucket, whose upper edge (1023) clamps to
  // the exact observed max.
  EXPECT_EQ(snap.percentile(1.0), 1000);
  EXPECT_EQ(snap.max, 1000);
}

// The determinism claim the scrape surface rests on: the same multiset
// of values produces bit-identical snapshots no matter how recording
// interleaves across threads.
TEST(Histogram, SnapshotInvariantAcrossThreadCounts) {
  const auto values_for = [](int worker) {
    std::vector<std::int64_t> values;
    for (int i = 0; i < 5000; ++i) {
      // Deterministic pseudo-spread covering many buckets.
      values.push_back((static_cast<std::int64_t>(i) * 2654435761u + worker)
                       % 5000000);
    }
    return values;
  };

  Histogram sequential;
  for (int worker = 0; worker < 8; ++worker) {
    for (const std::int64_t value : values_for(worker)) {
      sequential.record(value);
    }
  }

  Histogram concurrent;
  {
    std::vector<std::thread> threads;
    for (int worker = 0; worker < 8; ++worker) {
      threads.emplace_back([&concurrent, values = values_for(worker)] {
        for (const std::int64_t value : values) {
          concurrent.record(value);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  const HistogramSnapshot a = sequential.snapshot();
  const HistogramSnapshot b = concurrent.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.bins, b.bins);
  for (const double p : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p=" << p;
  }
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  Histogram first;
  Histogram second;
  Histogram combined;
  for (std::int64_t v : {1, 5, 9, 1000}) {
    first.record(v);
    combined.record(v);
  }
  for (std::int64_t v : {2, 6, 2000000}) {
    second.record(v);
    combined.record(v);
  }
  HistogramSnapshot merged = first.snapshot();
  merged.merge(second.snapshot());
  const HistogramSnapshot want = combined.snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.max, want.max);
  EXPECT_EQ(merged.bins, want.bins);
}

// --- Registry exposition --------------------------------------------

TEST(Histogram, PrometheusExpositionGolden) {
  auto& registry = Registry::instance();
  registry.reset();
  registry.counter("exposition.test.total").add(7);
  registry.gauge("exposition.test.depth").set(3);
  Histogram& h = registry.histogram("exposition.test.latency");
  h.record(1);     // bucket [1, 1]
  h.record(3);     // bucket [2, 3]
  h.record(900);   // bucket [512, 1023]

  const std::string text = registry.prometheus_text();
  const char* want[] = {
      "# TYPE fmm_exposition_test_total counter\n"
      "fmm_exposition_test_total 7\n",
      "# TYPE fmm_exposition_test_depth gauge\n"
      "fmm_exposition_test_depth 3\n",
      "# TYPE fmm_exposition_test_latency histogram\n",
      "fmm_exposition_test_latency_bucket{le=\"1\"} 1\n",
      "fmm_exposition_test_latency_bucket{le=\"3\"} 2\n",
      "fmm_exposition_test_latency_bucket{le=\"1023\"} 3\n",
      "fmm_exposition_test_latency_bucket{le=\"+Inf\"} 3\n",
      "fmm_exposition_test_latency_sum 904\n",
      "fmm_exposition_test_latency_count 3\n",
  };
  for (const char* fragment : want) {
    EXPECT_NE(text.find(fragment), std::string::npos)
        << "missing fragment:\n" << fragment << "\nin exposition:\n" << text;
  }
  registry.reset();
  // Reset empties histogram samples from the exposition.
  EXPECT_EQ(registry.histogram("exposition.test.latency").snapshot().count,
            0);
}

// --- TelemetryRing ---------------------------------------------------

RequestTelemetry make_record(std::uint64_t i) {
  RequestTelemetry rec;
  rec.seq = i;
  rec.has_id = true;
  rec.id = static_cast<std::int64_t>(i);
  rec.op = "test";
  rec.cache = CacheVerdict::kMiss;
  rec.bytes_in = 10;
  rec.bytes_out = 20;
  rec.total_ns = static_cast<std::int64_t>(100 + i);
  rec.phase(Phase::kParse) = 40;
  rec.phase(Phase::kRender) = static_cast<std::int64_t>(60 + i);
  return rec;
}

TEST(TelemetryRing, KeepsMostRecentOldestFirst) {
  TelemetryRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push(make_record(i));
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<RequestTelemetry> records = ring.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, 6 + i);  // oldest survivor first
    EXPECT_EQ(records[i].total_ns, static_cast<std::int64_t>(106 + i));
  }
  // limit trims from the old end: the 2 most recent records.
  const std::vector<RequestTelemetry> last2 = ring.snapshot(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].seq, 8u);
  EXPECT_EQ(last2[1].seq, 9u);
}

// Wraparound under concurrent writers: every surviving record must be
// internally consistent (no torn slots), and the drop accounting must
// balance exactly.  Runs under tsan via the preset filter.
TEST(TelemetryRing, WraparoundUnderConcurrentLoad) {
  constexpr std::size_t kCapacity = 32;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;
  TelemetryRing ring(kCapacity);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&ring, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          RequestTelemetry rec = make_record(i);
          // Make every field derivable from (t, i) so a torn slot is
          // detectable as an inconsistent record.
          rec.id = static_cast<std::int64_t>(t * kPerThread + i);
          rec.total_ns = rec.id * 2 + 1;
          rec.phase(Phase::kRender) = rec.id * 2 + 1 - 40;
          ring.push(rec);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), kThreads * kPerThread - kCapacity);
  const std::vector<RequestTelemetry> records = ring.snapshot();
  EXPECT_LE(records.size(), kCapacity);
  EXPECT_GE(records.size(), 1u);  // quiescent ring: slots are readable
  for (const RequestTelemetry& rec : records) {
    EXPECT_EQ(rec.total_ns, rec.id * 2 + 1) << "torn slot leaked";
    EXPECT_EQ(rec.phase(Phase::kParse), 40);
    EXPECT_STREQ(rec.op, "test");
  }
}

// --- TelemetrySink ---------------------------------------------------

TEST(TelemetrySink, SlowLogThreshold) {
  Registry::instance().reset();
  TelemetryConfig config;
  config.ring_capacity = 8;
  config.slow_capacity = 8;
  config.slow_threshold_ns = 1000;
  TelemetrySink sink(config);

  RequestTelemetry fast = make_record(0);
  fast.total_ns = 1000;  // at threshold: not slow (strictly above)
  sink.record(fast);
  RequestTelemetry slow = make_record(1);
  slow.total_ns = 1001;
  sink.record(slow);

  EXPECT_EQ(sink.ring().recorded(), 2u);
  EXPECT_EQ(sink.slow().recorded(), 1u);
  EXPECT_EQ(sink.slow_count(), 1u);
  const std::vector<RequestTelemetry> slow_records = sink.slow().snapshot();
  ASSERT_EQ(slow_records.size(), 1u);
  EXPECT_EQ(slow_records[0].total_ns, 1001);
  // seq is assigned by the sink, monotonic across both records.
  EXPECT_EQ(slow_records[0].seq, 1u);

  // The sink fed the registry: per-op latency histogram + counters.
  const HistogramSnapshot lat =
      Registry::instance().histogram("service.latency.test").snapshot();
  EXPECT_EQ(lat.count, 2);
  EXPECT_EQ(lat.sum, 2001);
  Registry::instance().reset();
}

// --- Service integration --------------------------------------------

TEST(QueryServiceTelemetry, SpansCarryPhasesAndCacheVerdicts) {
  obs::Registry::instance().reset();
  service::QueryService service;
  const std::string request =
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 16, "
      "\"m\": 64}";
  const std::string cold = service.handle_line(request);
  const std::string warm = service.handle_line(request);
  EXPECT_EQ(cold, warm) << "telemetry must not leak into response bytes";

  const std::vector<RequestTelemetry> spans =
      service.telemetry().ring().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].cache, CacheVerdict::kMiss);
  EXPECT_EQ(spans[1].cache, CacheVerdict::kHit);
  EXPECT_STREQ(spans[0].op, "simulate");
  EXPECT_TRUE(spans[0].ok);
  // The cold span did real work in every compute phase.
  EXPECT_GT(spans[0].phase(Phase::kParse), 0);
  EXPECT_GT(spans[0].phase(Phase::kCacheLookup), 0);
  EXPECT_GT(spans[0].phase(Phase::kCdagBuild), 0);
  EXPECT_GT(spans[0].phase(Phase::kSimulate), 0);
  EXPECT_GT(spans[0].total_ns, 0);
  // The warm span replays bytes: no CDAG build, no simulation.
  EXPECT_EQ(spans[1].phase(Phase::kCdagBuild), 0);
  EXPECT_EQ(spans[1].phase(Phase::kSimulate), 0);
  // Phases never sum past the measured total.
  for (const RequestTelemetry& span : spans) {
    std::int64_t phase_sum = 0;
    for (const std::int64_t ns : span.phase_ns) {
      EXPECT_GE(ns, 0);
      phase_sum += ns;
    }
    EXPECT_LE(phase_sum, span.total_ns);
  }
  EXPECT_EQ(spans[0].bytes_in,
            static_cast<std::int64_t>(request.size()));
  EXPECT_EQ(spans[0].bytes_out,
            static_cast<std::int64_t>(cold.size()));
}

TEST(QueryServiceTelemetry, ResponsesCarryNoTelemetryKeys) {
  obs::Registry::instance().reset();
  service::QueryService service;
  for (const char* request :
       {"{\"op\": \"bound\", \"n\": 64, \"m\": 16}",
        "{\"op\": \"simulate\", \"algorithm\": \"winograd\", \"n\": 8, "
        "\"m\": 32}",
        "{\"op\": \"cdag\", \"algorithm\": \"strassen\", \"n\": 4}"}) {
    const std::string response = service.handle_line(request);
    for (const char* leak :
         {"total_ns", "phases_ns", "queue_wait", "cache_lookup",
          "telemetry", "bytes_in", "bytes_out"}) {
      EXPECT_EQ(response.find(leak), std::string::npos)
          << "telemetry key " << leak << " leaked into canonical "
          << "response: " << response;
    }
  }
}

TEST(QueryServiceTelemetry, TailOpReturnsRecentSpans) {
  obs::Registry::instance().reset();
  service::ServiceConfig config;
  config.slow_ms = 0;  // everything lands in the slow log
  service::QueryService service(config);
  service.handle_line("{\"op\": \"bound\", \"n\": 64, \"m\": 16}");
  service.handle_line("{\"op\": \"bound\", \"n\": 128, \"m\": 16}");

  const std::string tail =
      service.handle_line("{\"op\": \"tail\", \"limit\": 1}");
  EXPECT_NE(tail.find("\"ok\": true"), std::string::npos) << tail;
  EXPECT_NE(tail.find("\"slow_threshold_ms\": 0"), std::string::npos);
  EXPECT_NE(tail.find("\"recorded\": 2"), std::string::npos) << tail;
  EXPECT_NE(tail.find("\"cache\": \"miss\""), std::string::npos) << tail;
  EXPECT_NE(tail.find("\"phases_ns\""), std::string::npos);
  // limit 1 keeps only the most recent record (seq 1).
  EXPECT_EQ(tail.find("\"seq\": 0"), std::string::npos) << tail;
  EXPECT_NE(tail.find("\"seq\": 1"), std::string::npos) << tail;
  // Both compute requests exceeded the 0ms threshold.
  EXPECT_NE(tail.find("\"slow_total\": 2"), std::string::npos) << tail;
}

TEST(QueryServiceTelemetry, MetricsOpEmitsExposition) {
  obs::Registry::instance().reset();
  service::QueryService service;
  service.handle_line("{\"op\": \"bound\", \"n\": 64, \"m\": 16}");
  const std::string metrics = service.handle_line("{\"op\": \"metrics\"}");
  EXPECT_NE(metrics.find("\"ok\": true"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\"format\": \"prometheus-0.0.4\""),
            std::string::npos);
  // The exposition is JSON-escaped inside the response line.
  EXPECT_NE(metrics.find("# TYPE fmm_service_latency_bound histogram"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("fmm_service_latency_bound_count 1"),
            std::string::npos);
}

TEST(QueryServiceTelemetry, StatsCarriesDerivedFields) {
  obs::Registry::instance().reset();
  service::QueryService service;
  const std::string request =
      "{\"op\": \"bound\", \"n\": 64, \"m\": 16}";
  service.handle_line(request);  // miss
  service.handle_line(request);  // hit
  const std::string stats = service.handle_line("{\"op\": \"stats\"}");
  EXPECT_NE(stats.find("\"cache_hit_rate\": 0.5"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"cache_evictions\": 0"), std::string::npos);
  EXPECT_NE(stats.find("\"queue_depth\": 0"), std::string::npos);
}

TEST(QueryServiceTelemetry, ReportSectionValidates) {
  obs::Registry::instance().reset();
  service::QueryService service;
  service.handle_line(
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 8, "
      "\"m\": 32}");
  const std::string json = service.telemetry_json();
  EXPECT_NE(json.find("\"schema\": \"fmm.telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"simulate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"recent\""), std::string::npos);

  obs::RunReport report("test.telemetry");
  service.attach_to(report);
  const std::string rendered = report.to_json();
  EXPECT_NE(rendered.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(rendered.find("\"service\""), std::string::npos);
}

}  // namespace
}  // namespace fmm::obs
