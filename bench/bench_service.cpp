// Q1 — query service: cold vs warm throughput through the
// content-addressed cache (EXPERIMENTS.md, "Q1 protocol").
//
// Two arms answer the identical query mix through QueryService:
//
//   cold — cache budget 0: every request rebuilds its CDAG and
//          recomputes its result (the service's worst case);
//   warm — default budget: the first pass populates the cache, every
//          later pass answers from retained result payloads.
//
// Two claims, both enforced (the bench exits 1 otherwise):
//   1. byte-identity: every warm response equals its cold counterpart
//      exactly — the cache must be invisible in the reply bytes;
//   2. throughput: the warm arm answers the mix >= 5x faster per pass
//      than the cold arm (the cache must actually pay for itself).
//
// `bench_service --out report.json` writes a versioned run report:
// extra.service carries the warm arm's session tallies and cache
// counters, extra.telemetry the warm arm's per-op latency histograms
// and extra.telemetry_cold the cold arm's.  The committed
// BENCH_service.json is this report.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

int main(int argc, char** argv) {
  using namespace fmm;
  using Clock = std::chrono::steady_clock;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();

  std::printf("=== Q1: query service cold vs warm throughput ===\n\n");

  // CDAG-build-dominated mix: two algorithms at n=16/32 across several
  // memory sizes, plus closed-form bound queries as cheap filler.
  std::vector<std::string> queries;
  for (const char* alg : {"strassen", "winograd"}) {
    for (const int n : {16, 32}) {
      for (const int m : {32, 64, 128}) {
        queries.push_back(std::string("{\"op\": \"simulate\", "
                                      "\"algorithm\": \"") +
                          alg + "\", \"n\": " + std::to_string(n) +
                          ", \"m\": " + std::to_string(m) + "}");
      }
      queries.push_back(std::string("{\"op\": \"liveness\", "
                                    "\"algorithm\": \"") +
                        alg + "\", \"n\": " + std::to_string(n) + "}");
      queries.push_back(std::string("{\"op\": \"cdag\", \"algorithm\": "
                                    "\"") +
                        alg + "\", \"n\": " + std::to_string(n) + "}");
    }
  }
  queries.push_back("{\"op\": \"bound\", \"n\": 4096, \"m\": 256, "
                    "\"p\": 49}");

  constexpr int kPasses = 3;
  const auto run_passes = [&](service::QueryService& service, int passes,
                              std::vector<std::string>* responses) {
    const auto start = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
      for (const std::string& query : queries) {
        std::string response = service.handle_line(query);
        if (responses != nullptr && pass == 0) {
          responses->push_back(std::move(response));
        }
      }
    }
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
               .count() /
           passes;
  };

  // Cold arm: zero budget, every pass recomputes everything.
  service::ServiceConfig cold_config;
  cold_config.cache.memory_budget_bytes = 0;
  service::QueryService cold(cold_config);
  std::vector<std::string> cold_responses;
  const double cold_ms = run_passes(cold, kPasses, &cold_responses);
  // The cold service's telemetry, rendered while the registry's latency
  // histograms still hold the cold arm alone.
  const std::string cold_telemetry = cold.telemetry_json();

  // Warm arm: default budget; one untimed pass primes the cache, then
  // the timed passes answer from retained payloads.  The registry is
  // reset between arms so each arm's latency histograms (and the
  // report's metrics snapshot) describe that arm alone.
  obs::Registry::instance().reset();
  service::QueryService warm;
  std::vector<std::string> warm_responses;
  run_passes(warm, 1, &warm_responses);
  const double warm_ms = run_passes(warm, kPasses, nullptr);

  bool byte_identical = cold_responses.size() == warm_responses.size();
  for (std::size_t i = 0; byte_identical && i < cold_responses.size();
       ++i) {
    byte_identical = cold_responses[i] == warm_responses[i];
    if (!byte_identical) {
      std::fprintf(stderr, "FATAL: response %zu differs across cache "
                           "states\n  cold: %s\n  warm: %s\n",
                   i, cold_responses[i].c_str(), warm_responses[i].c_str());
    }
  }
  if (!byte_identical) {
    return 1;
  }

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const service::CacheStats cache_stats = warm.cache().stats();

  Table table({"Arm", "Queries/pass", "ms/pass", "Queries/s", "Hits",
               "Misses"});
  table.begin_row();
  table.add_cell("cold");
  table.add_cell(static_cast<std::int64_t>(queries.size()));
  table.add_cell(format_double(cold_ms));
  table.add_cell(format_double(1000.0 * static_cast<double>(queries.size()) /
                               cold_ms));
  table.add_cell(std::int64_t{0});
  table.add_cell(static_cast<std::int64_t>(queries.size()) * kPasses);
  table.begin_row();
  table.add_cell("warm");
  table.add_cell(static_cast<std::int64_t>(queries.size()));
  table.add_cell(format_double(warm_ms));
  table.add_cell(format_double(1000.0 * static_cast<double>(queries.size()) /
                               warm_ms));
  table.add_cell(cache_stats.hits);
  table.add_cell(cache_stats.misses);
  table.print_console(std::cout);

  std::printf("\nbyte-identical responses across cache states: yes\n");
  std::printf("warm/cold speedup: %.1fx (gate: >= 5x)\n", speedup);
  if (speedup < 5.0) {
    std::fprintf(stderr, "FATAL: warm arm only %.1fx faster than cold — "
                         "the cache is not paying for itself\n",
                 speedup);
    return 1;
  }

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("bench_service");
    report.set_param("experiment", "Q1 cold vs warm service throughput");
    report.set_param("queries_per_pass",
                     static_cast<std::int64_t>(queries.size()));
    report.set_param("passes", std::int64_t{kPasses});
    report.set_result("cold_ms_per_pass", cold_ms);
    report.set_result("warm_ms_per_pass", warm_ms);
    report.set_result("speedup", speedup);
    report.set_result("byte_identical", byte_identical);
    report.set_result("speedup_gate_holds", speedup >= 5.0);
    // The warm arm's percentiles include the untimed priming pass: its
    // cache misses are part of what a fresh warm service serves.
    warm.attach_to(report);
    report.add_raw_section("telemetry_cold", cold_telemetry);
    obs::finalize_run(cli, report);
  }
  return 0;
}
