// F1 — service fabric: router + 4 workers vs direct single-process
// serving on the Q1 query mix.
//
// Two arms answer the identical NDJSON session:
//
//   direct — one QueryService::serve session (the PR-6 serving tier);
//   fabric — Router::serve over 4 in-process workers with a chaos kill
//            injected mid-run (worker 1 dies after its first dispatch,
//            exercising the requeue + respawn path under load).
//
// Two claims, both enforced (the bench exits 1 otherwise):
//   1. byte-identity: the fabric's merged output equals the direct
//      output after stripping the id echo — sharding plus chaos must
//      be invisible in the reply bytes;
//   2. drain: the fabric answers every request (responded == requests,
//      gave_up == 0) and the injected kill actually fired.
//
// Each arm runs kSessions times, alternating direct and fabric, each
// session on a fresh QueryService or a fresh transport + router (Router
// is single-shot).  Both gates apply to every session; the report
// records each arm's median session time.  One session per arm is too
// noisy to compare: on a 4-core VM, three runs of one binary read the
// ratio as 0.64, 0.76 and 2.32.
//
// There is deliberately NO speedup gate: the mix is CDAG-build-bound
// and each worker owns a private cache, so fabric throughput depends
// on how rendezvous happens to shard the mix.  The report records both
// arms so successive PRs can watch the ratio.
//
// `bench_fabric --out report.json` writes a versioned run report whose
// extra.fabric section carries the router's supervision accounting for
// the schema checker.  The committed BENCH_fabric.json is this report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace {

std::string strip_ids(const std::string& text) {
  static const std::regex id_pattern("\"id\": (null|-?[0-9]+)");
  return std::regex_replace(text, id_pattern, "\"id\": X");
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fmm;
  using Clock = std::chrono::steady_clock;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();

  std::printf("=== F1: fabric (router + 4 workers, chaos kill) vs "
              "direct serving ===\n\n");

  // The Q1 mix (bench_service.cpp), replayed kRounds times so the
  // session is long enough for the sharding to matter.
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
  constexpr int kRounds = 3;
  std::string session;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& query : queries) {
      session += query;
      session += '\n';
    }
  }
  const std::size_t total_requests = queries.size() * kRounds;

  const auto elapsed_ms = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  // Fabric arm: router + 4 in-process workers, chaos kill on worker 1
  // after its first dispatch.
  fabric::FabricConfig fabric_config;
  fabric_config.num_workers = 4;
  fabric_config.chaos.seed = 7;
  fabric_config.chaos.kills.push_back({1, 1});
  fabric_config.max_attempts = 5;

  constexpr int kSessions = 5;
  std::vector<double> direct_times;
  std::vector<double> fabric_times;
  // The last fabric session's router and its transport, for the report.
  std::unique_ptr<fabric::InProcessTransport> transport;
  std::unique_ptr<fabric::Router> router;
  for (int run = 0; run < kSessions; ++run) {
    // Direct arm: one single-process session.
    service::ServiceConfig direct_config;
    direct_config.num_threads = 2;
    service::QueryService direct(direct_config);
    std::istringstream direct_in(session);
    std::ostringstream direct_out;
    const auto direct_start = Clock::now();
    direct.serve(direct_in, direct_out);
    direct_times.push_back(elapsed_ms(direct_start));

    // The report's metrics cover the last fabric session.
    obs::Registry::instance().reset();
    router.reset();
    transport = std::make_unique<fabric::InProcessTransport>();
    router = std::make_unique<fabric::Router>(fabric_config, *transport);
    std::istringstream fabric_in(session);
    std::ostringstream fabric_out;
    const auto fabric_start = Clock::now();
    router->serve(fabric_in, fabric_out);
    fabric_times.push_back(elapsed_ms(fabric_start));

    // Gate 1: byte-identity after id strip.  Abort on divergence — a
    // fabric that changes bytes is wrong no matter how fast it is.
    const std::string a = strip_ids(direct_out.str());
    const std::string b = strip_ids(fabric_out.str());
    if (a != b) {
      std::fprintf(stderr,
                   "FATAL: fabric output diverges from direct serving "
                   "(session %d)\n",
                   run);
      std::istringstream as(a);
      std::istringstream bs(b);
      std::string al;
      std::string bl;
      int line = 0;
      while (std::getline(as, al) && std::getline(bs, bl)) {
        if (al != bl) {
          std::fprintf(stderr, "  first divergence at line %d:\n"
                               "    direct: %.120s\n    fabric: %.120s\n",
                       line, al.c_str(), bl.c_str());
          break;
        }
        ++line;
      }
      return 1;
    }

    // Gate 2: the drain guarantee held and the chaos path really ran.
    const fabric::FabricStats stats = router->stats();
    if (stats.responded != static_cast<std::int64_t>(total_requests) ||
        stats.gave_up != 0) {
      std::fprintf(stderr, "FATAL: fabric dropped work in session %d: "
                           "responded=%lld of %zu, gave_up=%lld\n",
                   run, static_cast<long long>(stats.responded),
                   total_requests, static_cast<long long>(stats.gave_up));
      return 1;
    }
    if (stats.kills_injected < 1 || stats.respawns < 1) {
      std::fprintf(stderr, "FATAL: chaos kill never exercised the respawn "
                           "path in session %d (kills=%lld respawns=%lld)\n",
                   run, static_cast<long long>(stats.kills_injected),
                   static_cast<long long>(stats.respawns));
      return 1;
    }
  }
  const double direct_ms = median(direct_times);
  const double fabric_ms = median(fabric_times);
  const fabric::FabricStats stats = router->stats();

  const double ratio = fabric_ms > 0.0 ? direct_ms / fabric_ms : 0.0;
  Table table({"Arm", "Requests", "ms (median)", "Requests/s", "Requeues",
               "Respawns"});
  table.begin_row();
  table.add_cell("direct");
  table.add_cell(static_cast<std::int64_t>(total_requests));
  table.add_cell(format_double(direct_ms));
  table.add_cell(format_double(
      1000.0 * static_cast<double>(total_requests) / direct_ms));
  table.add_cell(std::int64_t{0});
  table.add_cell(std::int64_t{0});
  table.begin_row();
  table.add_cell("fabric");
  table.add_cell(static_cast<std::int64_t>(total_requests));
  table.add_cell(format_double(fabric_ms));
  table.add_cell(format_double(
      1000.0 * static_cast<double>(total_requests) / fabric_ms));
  table.add_cell(stats.requeues);
  table.add_cell(stats.respawns);
  table.print_console(std::cout);

  std::printf("\n%d sessions per arm, medians above\n", kSessions);
  std::printf("byte-identical output across arms (after id strip): "
              "yes\n");
  std::printf("chaos (last session): %lld kill(s) injected, %lld "
              "requeue(s), %lld respawn(s), 0 gave up\n",
              static_cast<long long>(stats.kills_injected),
              static_cast<long long>(stats.requeues),
              static_cast<long long>(stats.respawns));
  std::printf("fabric/direct throughput ratio: %.2fx (recorded, not "
              "gated)\n",
              ratio);

  if (cli.wants_report() || !cli.trace_path.empty()) {
    obs::RunReport report("bench_fabric");
    report.set_param("experiment", "F1 fabric vs direct serving");
    report.set_param("requests",
                     static_cast<std::int64_t>(total_requests));
    report.set_param("workers",
                     static_cast<std::int64_t>(fabric_config.num_workers));
    report.set_result("direct_ms", direct_ms);
    report.set_result("fabric_ms", fabric_ms);
    report.set_result("fabric_over_direct", ratio);
    report.set_result("byte_identical", true);
    router->attach_to(report);
    obs::finalize_run(cli, report);
  }
  return 0;
}
