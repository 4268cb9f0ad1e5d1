// Query service battery: the content-addressed cache under concurrent
// hit/miss/eviction stress, single-flight CDAG builds, and the
// protocol-level contracts of QueryService — one-line usage errors,
// byte-identical responses regardless of cache state / thread count /
// interleaving, deterministic virtual-clock deadlines, queue_full
// backpressure, and graceful drain (no admitted request is ever
// dropped).  The ServiceCache and QueryService suites run under the
// tsan preset (CMakePresets.json test filter).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bilinear/catalog.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/builder.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sweep/sweep.hpp"

namespace fmm::service {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    lines.push_back(line);
  }
  return lines;
}

// --- ServiceCache ----------------------------------------------------

TEST(ServiceCache, KeysAreContentAddressed) {
  EXPECT_EQ(ContentCache::cdag_key("strassen", 8),
            ContentCache::cdag_key("strassen", 8));
  EXPECT_NE(ContentCache::cdag_key("strassen", 8),
            ContentCache::cdag_key("strassen", 16));
  EXPECT_NE(ContentCache::cdag_key("strassen", 8),
            ContentCache::cdag_key("winograd", 8));
  EXPECT_EQ(ContentCache::result_key("a"), ContentCache::result_key("a"));
  EXPECT_NE(ContentCache::result_key("a"), ContentCache::result_key("b"));
}

TEST(ServiceCache, PayloadRoundTrip) {
  obs::Registry::instance().reset();
  ContentCache cache;
  const std::string key = ContentCache::result_key("some request");
  EXPECT_EQ(cache.get_payload(key), nullptr);
  cache.put_payload(key, "{\"x\": 1}");
  const auto hit = cache.get_payload(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "{\"x\": 1}");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(ServiceCache, ZeroBudgetDisablesRetention) {
  obs::Registry::instance().reset();
  CacheConfig config;
  config.memory_budget_bytes = 0;
  ContentCache cache(config);
  cache.put_payload("result/deadbeef", "payload");
  EXPECT_EQ(cache.get_payload("result/deadbeef"), nullptr);
  std::atomic<int> builds{0};
  const auto build = [&] {
    ++builds;
    return cdag::build_cdag(sweep::resolve_algorithm("strassen"), 4);
  };
  const std::string key = ContentCache::cdag_key("strassen", 4);
  EXPECT_NE(cache.get_or_build_cdag(key, build), nullptr);
  EXPECT_NE(cache.get_or_build_cdag(key, build), nullptr);
  EXPECT_EQ(builds.load(), 2) << "zero budget must not retain CDAGs";
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.bytes, 0);
  EXPECT_EQ(stats.hits, 0);
}

TEST(ServiceCache, EvictsOldestButNeverTheNewEntry) {
  obs::Registry::instance().reset();
  CacheConfig config;
  config.shards = 1;  // all keys in one LRU so recency order is total
  config.memory_budget_bytes = 1;  // any entry is oversized
  ContentCache cache(config);
  cache.put_payload("result/a", "aaaa");
  cache.put_payload("result/b", "bbbb");
  // The oversized newcomer is admitted alone instead of thrashing.
  EXPECT_EQ(cache.get_payload("result/a"), nullptr);
  ASSERT_NE(cache.get_payload("result/b"), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(ServiceCache, SingleFlightBuildsOnce) {
  obs::Registry::instance().reset();
  ContentCache cache;
  const std::string key = ContentCache::cdag_key("strassen", 8);
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const cdag::Cdag>> got(8);
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.get_or_build_cdag(key, [&] {
        ++builds;
        return cdag::build_cdag(sweep::resolve_algorithm("strassen"), 8);
      });
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(builds.load(), 1)
      << "concurrent requests for one key must share one build";
  for (const auto& cdag : got) {
    ASSERT_NE(cdag, nullptr);
    EXPECT_EQ(cdag.get(), got[0].get()) << "all callers share the object";
  }
}

TEST(ServiceCache, FailedBuildCachesNothingAndUnblocksWaiters) {
  obs::Registry::instance().reset();
  ContentCache cache;
  const std::string key = ContentCache::cdag_key("strassen", 4);
  EXPECT_THROW(
      cache.get_or_build_cdag(
          key, []() -> cdag::Cdag { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0);
  // The key is not poisoned: the next build succeeds normally.
  const auto built = cache.get_or_build_cdag(key, [] {
    return cdag::build_cdag(sweep::resolve_algorithm("strassen"), 4);
  });
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->n, 4u);
}

TEST(ServiceCache, HitMissEvictStress) {
  obs::Registry::instance().reset();
  CacheConfig config;
  config.shards = 4;
  config.memory_budget_bytes = 2048;  // tiny: constant eviction churn
  ContentCache cache(config);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  std::atomic<std::int64_t> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // 16 overlapping keys across 8 threads: plenty of hit/miss/evict
        // interleavings on every shard.
        const std::string key =
            ContentCache::result_key("stress/" + std::to_string((t + i) % 16));
        if (const auto hit = cache.get_payload(key)) {
          ++observed_hits;
          EXPECT_EQ(hit->size(), 64u);
        } else {
          cache.put_payload(key, std::string(64, 'x'));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_GT(stats.evictions, 0) << "a 2 KiB budget must evict";
  EXPECT_LE(stats.bytes, 2048 + 4 * (64 + 128))
      << "bytes may exceed budget only by per-shard oversize slack";
  EXPECT_GE(stats.entries, 0);
}

// --- QueryService ----------------------------------------------------

TEST(QueryService, UsageErrorsAreOneLine) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 1;
  service::QueryService service(config);
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"op\": \"frobnicate\"}",
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 3, "
      "\"m\": 8}",
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 8, "
      "\"m\": 8, \"bogus\": 1}",
      "{\"op\": \"bound\", \"n\": 8}",
      "{\"op\": \"ping\", \"n\": 8}",
  };
  for (const std::string& line : bad) {
    const std::string response = service.handle_line(line);
    EXPECT_EQ(response.find('\n'), std::string::npos) << response;
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
    EXPECT_NE(response.find("usage_error: "), std::string::npos) << response;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(stats.errors, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(stats.responded, stats.requests);
}

TEST(QueryService, CdagResponseEscapesSchemeName) {
  // A file-loaded scheme may carry any name; the cdag op must still
  // answer with a parseable line that echoes the name exactly.  The file
  // spells the name `str"assen\x` with its JSON escapes written out.
  bilinear::Scheme scheme = bilinear::scheme_from_algorithm(
      bilinear::strassen());
  scheme.name = "plain";
  std::string text = bilinear::scheme_to_json(scheme);
  text.replace(text.find("\"plain\""), 7, R"("str\"assen\\x")");
  const std::string path = testing::TempDir() + "cdag_escaped_scheme.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  ServiceConfig config;
  config.num_threads = 1;
  QueryService service(config);
  const std::string response = service.handle_line(
      "{\"op\": \"cdag\", \"algorithm\": \"file:" + path +
      "\", \"n\": 2}");
  std::remove(path.c_str());
  const JsonValue doc = parse_json(response);
  ASSERT_TRUE(doc.at("ok").as_bool()) << response;
  EXPECT_EQ(doc.at("result").at("algorithm").as_string(), "str\"assen\\x");
}

TEST(QueryService, ByteIdenticalAcrossCacheStatesAndThreadCounts) {
  const std::vector<std::string> requests = {
      "{\"op\": \"bound\", \"n\": 1024, \"m\": 64, \"p\": 49}",
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 8, "
      "\"m\": 32, \"schedule\": \"random\", \"seed\": 7}",
      "{\"op\": \"liveness\", \"algorithm\": \"winograd\", \"n\": 8}",
      "{\"op\": \"cdag\", \"algorithm\": \"strassen\", \"n\": 4}",
  };
  // Cold reference: zero budget, so every answer is recomputed.
  std::vector<std::string> reference;
  {
    obs::Registry::instance().reset();
    ServiceConfig config;
    config.num_threads = 1;
    config.cache.memory_budget_bytes = 0;
    service::QueryService cold(config);
    for (const std::string& line : requests) {
      reference.push_back(cold.handle_line(line));
    }
  }
  for (const std::size_t threads : {1u, 4u}) {
    obs::Registry::instance().reset();
    ServiceConfig config;
    config.num_threads = threads;
    service::QueryService warm(config);
    // Three passes: miss, hit, hit — all byte-identical to the cold run.
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(warm.handle_line(requests[i]), reference[i])
            << "request " << i << " pass " << pass << " threads "
            << threads;
      }
    }
    EXPECT_GT(warm.cache().stats().hits, 0) << "warm passes must hit";
  }
}

TEST(QueryService, ServeAnswersInRequestOrder) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 4;
  service::QueryService service(config);
  std::ostringstream session;
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    // Alternate cheap and expensive ops so pool completion order is
    // scrambled relative to request order.
    if (i % 2 == 0) {
      session << "{\"id\": " << i << ", \"op\": \"bound\", \"n\": 64, "
              << "\"m\": " << (8 + i) << "}\n";
    } else {
      session << "{\"id\": " << i
              << ", \"op\": \"simulate\", \"algorithm\": \"strassen\", "
              << "\"n\": 16, \"m\": " << (16 + i) << "}\n";
    }
  }
  std::istringstream in(session.str());
  std::ostringstream out;
  EXPECT_FALSE(service.serve(in, out)) << "EOF, not shutdown";
  const std::vector<std::string> responses = lines_of(out.str());
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string want_id = "{\"id\": " + std::to_string(i) + ",";
    EXPECT_EQ(responses[i].compare(0, want_id.size(), want_id), 0)
        << "response " << i << " out of order: " << responses[i];
    EXPECT_NE(responses[i].find("\"ok\": true"), std::string::npos)
        << responses[i];
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.responded, kRequests) << "drain must answer everything";
}

TEST(QueryService, DeadlineExceededIsDeterministic) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 1;
  // 8·8^log2(n) ticks: n=4 costs 512, n=16 costs 32768.  A deadline of
  // 1000 admits exactly the n=4 request — a pure function of (config,
  // request), never of load.
  config.deadline_ticks = 1000;
  service::QueryService service(config);
  const std::string small =
      "{\"op\": \"cdag\", \"algorithm\": \"strassen\", \"n\": 4}";
  const std::string large =
      "{\"op\": \"cdag\", \"algorithm\": \"strassen\", \"n\": 16}";
  for (int pass = 0; pass < 3; ++pass) {
    EXPECT_NE(service.handle_line(small).find("\"ok\": true"),
              std::string::npos);
    const std::string rejected = service.handle_line(large);
    EXPECT_NE(rejected.find("deadline_exceeded: "), std::string::npos)
        << rejected;
    EXPECT_NE(rejected.find("32768"), std::string::npos)
        << "estimate must be spelled out: " << rejected;
  }
  EXPECT_EQ(service.stats().deadline_exceeded, 3);
  // Closed-form ops cost 1 tick and always pass the same deadline.
  EXPECT_NE(service
                .handle_line("{\"op\": \"bound\", \"n\": 1048576, "
                             "\"m\": 1024}")
                .find("\"ok\": true"),
            std::string::npos);
}

TEST(QueryService, QueueFullRejectionAtZeroCapacity) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 2;
  config.max_queue = 0;  // deterministic: every compute request rejects
  service::QueryService service(config);
  std::istringstream in(
      "{\"id\": 1, \"op\": \"ping\"}\n"
      "{\"id\": 2, \"op\": \"bound\", \"n\": 64, \"m\": 8}\n"
      "{\"id\": 3, \"op\": \"simulate\", \"algorithm\": \"strassen\", "
      "\"n\": 8, \"m\": 32}\n");
  std::ostringstream out;
  service.serve(in, out);
  const std::vector<std::string> responses = lines_of(out.str());
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_NE(responses[0].find("\"pong\": true"), std::string::npos)
      << "control ops bypass the queue: " << responses[0];
  for (int i = 1; i < 3; ++i) {
    EXPECT_NE(responses[i].find("rejected: queue_full"), std::string::npos)
        << responses[i];
  }
  EXPECT_EQ(service.stats().rejected_queue_full, 2);
}

TEST(QueryService, ShutdownDrainsEveryInFlightRequest) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 4;
  service::QueryService service(config);
  std::ostringstream session;
  constexpr int kCompute = 12;
  for (int i = 0; i < kCompute; ++i) {
    session << "{\"id\": " << i
            << ", \"op\": \"simulate\", \"algorithm\": \"winograd\", "
            << "\"n\": 16, \"m\": " << (16 + i) << "}\n";
  }
  session << "{\"id\": 99, \"op\": \"shutdown\"}\n";
  session << "{\"id\": 100, \"op\": \"ping\"}\n";  // after shutdown: unread
  std::istringstream in(session.str());
  std::ostringstream out;
  EXPECT_TRUE(service.serve(in, out)) << "shutdown op, not EOF";
  const std::vector<std::string> responses = lines_of(out.str());
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kCompute) + 1)
      << "every admitted request answered, nothing after shutdown";
  std::set<std::string> ids;
  for (int i = 0; i < kCompute; ++i) {
    EXPECT_NE(responses[i].find("\"ok\": true"), std::string::npos)
        << "in-flight request dropped by shutdown: " << responses[i];
  }
  EXPECT_NE(responses.back().find("\"draining\": true"), std::string::npos);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kCompute + 1);
  EXPECT_EQ(stats.responded, stats.requests);
  EXPECT_EQ(stats.errors, 0);
}

TEST(QueryService, StatsAndReportSectionStayConsistent) {
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 2;
  service::QueryService service(config);
  // The repeated bound request goes in a second stream: serve() drains
  // before it returns, so the repeat finds the first result cached.  Two
  // identical requests in flight at once may both miss, because result
  // payloads are not single-flighted (docs/SERVICE.md).
  std::istringstream first(
      "{\"op\": \"ping\"}\n"
      "{\"op\": \"bound\", \"n\": 64, \"m\": 8}\n"
      "garbage\n");
  std::istringstream second(
      "{\"op\": \"bound\", \"n\": 64, \"m\": 8}\n"
      "{\"op\": \"stats\"}\n");
  std::ostringstream out;
  service.serve(first, out);
  service.serve(second, out);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.responded, 5);
  EXPECT_EQ(stats.ok, 4);
  EXPECT_EQ(stats.errors, 1);
  // The duplicate bound request is a result-cache hit.
  EXPECT_GE(service.cache().stats().hits, 1);
  const std::string section = service.service_json();
  EXPECT_NE(section.find("\"schema\": \"fmm.service\""), std::string::npos);
  EXPECT_NE(section.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(section.find("{\"op\": \"bound\", \"requests\": 2, "
                         "\"ok\": 2, \"errors\": 0}"),
            std::string::npos)
      << section;
  EXPECT_NE(section.find("{\"op\": \"invalid\", \"requests\": 1, "
                         "\"ok\": 0, \"errors\": 1}"),
            std::string::npos)
      << section;
  obs::RunReport report("test.service");
  service.attach_to(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"service\": {"), std::string::npos);
  EXPECT_NE(json.find("\"meta\": {\"build\": {"), std::string::npos)
      << "every report must carry build provenance";
}

TEST(QueryService, SweepSharesTheCdagCache) {
  obs::Registry::instance().reset();
  ContentCache cache;
  CachingCdagSource source(cache);
  sweep::SweepSpec spec;
  spec.algorithms = {"strassen"};
  spec.n_grid = {8};
  spec.m_grid = {16, 32, 64};
  spec.kinds = {sweep::TaskKind::kSimulate};
  spec.num_threads = 2;
  const sweep::SweepResult first = sweep::run_sweep(spec, source);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(cache.stats().entries, 1) << "one (strassen, 8) CDAG retained";
  const std::int64_t misses_after_first = cache.stats().misses;
  // A second sweep over the same grid reuses the retained CDAG.
  const sweep::SweepResult second = sweep::run_sweep(spec, source);
  EXPECT_EQ(second.to_json(), first.to_json());
  EXPECT_EQ(cache.stats().misses, misses_after_first)
      << "warm sweep must not rebuild the CDAG";
  EXPECT_GT(cache.stats().hits, 0);
}

}  // namespace
}  // namespace fmm::service
