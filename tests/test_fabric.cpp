// Fabric battery: rendezvous routing stability, the chaos-certified
// byte-identity gate (router + 4 workers with injected kills and
// response drops vs a single-process QueryService), backpressure with
// worker provenance, graceful degradation when the respawn budget is
// exhausted, and the extra.fabric accounting invariants.  The Fabric*
// suites run under the tsan preset (CMakePresets.json test filter) —
// the kill/requeue/respawn path is exercised with dispatcher threads,
// an emitter thread and chaos racing for real.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fabric/chaos.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "service/service.hpp"

namespace fmm::fabric {
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

/// Threads of this process: the entries of /proc/self/task.
std::ptrdiff_t thread_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

/// Byte-identity is modulo the id echo (the router does not renumber,
/// but chaos tests compare runs fed with different id schemes).
std::string strip_ids(const std::string& text) {
  static const std::regex id_pattern("\"id\": (null|-?[0-9]+)");
  return std::regex_replace(text, id_pattern, "\"id\": X");
}

/// The Q-mix the chaos gate replays: enough distinct compute requests
/// to spread over 4 workers, plus control ops the router answers
/// locally.
std::vector<std::string> chaos_mix() {
  std::vector<std::string> lines = {
      R"({"op": "ping"})",
      R"({"op": "bound", "n": 32, "m": 64})",
      R"({"op": "simulate", "algorithm": "strassen", "n": 16, "m": 32})",
      R"({"op": "liveness", "algorithm": "winograd", "n": 16})",
      R"({"op": "simulate", "algorithm": "winograd", "n": 16, "m": 64})",
      R"({"op": "cdag", "algorithm": "strassen", "n": 32})",
      R"({"op": "bound", "n": 64, "m": 128})",
      R"({"op": "simulate", "algorithm": "strassen", "n": 32, "m": 64})",
      R"({"op": "version"})",
      R"({"op": "cdag", "algorithm": "winograd", "n": 16})",
      R"({"op": "simulate", "algorithm": "winograd", "n": 32, "m": 128})",
      R"({"op": "bound", "n": 16, "m": 32})",
  };
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

std::string single_process_output(const std::vector<std::string>& lines) {
  obs::Registry::instance().reset();
  service::ServiceConfig config;
  config.num_threads = 2;
  service::QueryService service(config);
  std::istringstream in(joined(lines));
  std::ostringstream out;
  service.serve(in, out);
  return out.str();
}

// --- Rendezvous routing ----------------------------------------------

TEST(FabricRouting, RendezvousIsDeterministic) {
  const std::vector<bool> alive(4, true);
  const std::size_t first = Router::pick_worker("some canonical", alive);
  EXPECT_EQ(first, Router::pick_worker("some canonical", alive));
  EXPECT_LT(first, alive.size());
}

TEST(FabricRouting, RendezvousOnlyRemapsVictimsOfADeath) {
  // Minimal disruption: keys not owned by the dead worker keep their
  // assignment — the property that makes respawn/requeue cheap.
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("canonical request #" + std::to_string(i));
  }
  const std::vector<bool> all(4, true);
  std::vector<bool> without2(4, true);
  without2[2] = false;
  for (const std::string& key : keys) {
    const std::size_t before = Router::pick_worker(key, all);
    const std::size_t after = Router::pick_worker(key, without2);
    EXPECT_NE(after, 2u);
    if (before != 2) {
      EXPECT_EQ(before, after) << key;
    }
  }
}

TEST(FabricRouting, RendezvousSpreadsLoad) {
  const std::vector<bool> alive(4, true);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 256; ++i) {
    ++counts[Router::pick_worker("key " + std::to_string(i), alive)];
  }
  EXPECT_EQ(counts.size(), 4u);  // every worker owns some keys
}

TEST(FabricRouting, NoAliveWorkersIsAContractViolation) {
  EXPECT_THROW(Router::pick_worker("x", std::vector<bool>(3, false)),
               CheckError);
}

// --- Chaos validation ------------------------------------------------

TEST(FabricChaos, SpecValidation) {
  ChaosSpec bad;
  bad.drop_response_rate = 1.0;
  EXPECT_THROW(validate(bad), CheckError);
  bad.drop_response_rate = -0.1;
  EXPECT_THROW(validate(bad), CheckError);
  ChaosSpec ok;
  ok.drop_response_rate = 0.5;
  ok.kills.push_back({1, 3});
  validate(ok);
}

TEST(FabricChaos, KillsFireExactlyOnce) {
  ChaosSpec spec;
  spec.kills.push_back({1, 2});
  ChaosEngine engine(spec);
  EXPECT_FALSE(engine.should_kill(1, 0));
  EXPECT_FALSE(engine.should_kill(1, 1));
  EXPECT_FALSE(engine.should_kill(0, 5));  // wrong worker
  EXPECT_TRUE(engine.should_kill(1, 2));
  EXPECT_FALSE(engine.should_kill(1, 3));  // already fired
  EXPECT_EQ(engine.kills_fired(), 1);
}

TEST(FabricChaos, DropDecisionsAreSeeded) {
  ChaosSpec spec;
  spec.seed = 42;
  spec.drop_response_rate = 0.5;
  ChaosEngine a(spec);
  ChaosEngine b(spec);
  int drops = 0;
  for (std::uint64_t seq = 0; seq < 128; ++seq) {
    EXPECT_EQ(a.should_drop_response(seq, 1),
              b.should_drop_response(seq, 1));
    drops += a.should_drop_response(seq, 1) ? 1 : 0;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 128);
}

// --- The in-process transport ---------------------------------------

// An in-process worker answers on the dispatcher's own thread: connecting
// a 4-thread worker and round-tripping a compute request starts no
// thread, and a killed channel refuses every later send.
TEST(FabricTransport, InProcessWorkerAnswersOnTheCallersThread) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  service::ServiceConfig worker_config;
  worker_config.num_threads = 4;
  InProcessTransport transport(worker_config);
  const std::ptrdiff_t before = thread_count();
  const std::unique_ptr<Channel> channel = transport.connect(0);
  const std::string request =
      R"({"op": "simulate", "algorithm": "strassen", "n": 8, "m": 16})";
  std::string response;
  ASSERT_TRUE(channel->send_line(request));
  ASSERT_TRUE(channel->recv_line(&response));
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  EXPECT_EQ(thread_count(), before);
  channel->kill();
  EXPECT_FALSE(channel->send_line(request));
}

// --- The chaos gate --------------------------------------------------

// Router + 4 workers with an injected mid-run kill AND seeded response
// drops must produce output byte-identical (after id strip) to a
// single-process QueryService, with every request answered exactly
// once and the kill/requeue/respawn path demonstrably exercised.
TEST(FabricChaosGate, ByteIdenticalUnderKillsAndDrops) {
  const std::vector<std::string> mix = chaos_mix();
  const std::string expected = strip_ids(single_process_output(mix));

  obs::Registry::instance().reset();
  InProcessTransport transport;

  FabricConfig config;
  config.num_workers = 4;
  config.chaos.seed = 7;
  config.chaos.drop_response_rate = 0.2;
  // Fire on every worker's very first send: at least one kill is
  // guaranteed regardless of how rendezvous spreads this mix.
  config.chaos.kills.push_back({0, 0});
  config.chaos.kills.push_back({2, 0});
  // Drops consume attempts too; leave plenty of budget so the gate
  // never gives up (gave_up must be 0 for byte-identity).
  config.max_attempts = 6;

  Router router(config, transport);
  std::istringstream in(joined(mix));
  std::ostringstream out;
  EXPECT_FALSE(router.serve(in, out));

  EXPECT_EQ(strip_ids(out.str()), expected);
  EXPECT_EQ(lines_of(out.str()).size(), mix.size());

  const FabricStats stats = router.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(mix.size()));
  EXPECT_EQ(stats.responded, stats.requests);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.gave_up, 0);
  EXPECT_EQ(stats.unroutable, 0);
  // The chaos path actually ran: kills fired, the victims' requests
  // were requeued, and the slots came back via respawn.
  EXPECT_GE(stats.kills_injected, 1);
  EXPECT_GE(stats.requeues, 1);
  EXPECT_GE(stats.respawns, 1);
  EXPECT_EQ(stats.dead_workers, 0);
}

TEST(FabricChaosGate, ByteIdenticalWithExplicitIds) {
  // Same gate with client-chosen ids: the router must echo them back
  // on the right lines (order preserved), not merely produce the same
  // multiset of responses.
  std::vector<std::string> mix;
  const std::vector<std::string> base = chaos_mix();
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string line = base[i];
    line.insert(1, "\"id\": " + std::to_string(100 + i) + ", ");
    mix.push_back(line);
  }
  const std::string expected = single_process_output(mix);

  obs::Registry::instance().reset();
  InProcessTransport transport;
  FabricConfig config;
  config.num_workers = 4;
  config.chaos.seed = 3;
  config.chaos.kills.push_back({1, 1});
  config.max_attempts = 4;
  Router router(config, transport);
  std::istringstream in(joined(mix));
  std::ostringstream out;
  router.serve(in, out);
  EXPECT_EQ(out.str(), expected);  // ids identical, no strip needed
}

TEST(FabricChaosGate, ShutdownOpDrainsAndStops) {
  obs::Registry::instance().reset();
  InProcessTransport transport;
  FabricConfig config;
  config.num_workers = 2;
  Router router(config, transport);
  std::istringstream in(
      "{\"op\": \"bound\", \"n\": 32, \"m\": 64}\n"
      "{\"op\": \"shutdown\"}\n"
      "{\"op\": \"ping\"}\n");  // after shutdown: never read
  std::ostringstream out;
  EXPECT_TRUE(router.serve(in, out));
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"draining\": true"), std::string::npos);
}

// --- Backpressure ----------------------------------------------------

TEST(FabricBackpressure, ShedsWithWorkerProvenance) {
  obs::Registry::instance().reset();
  InProcessTransport transport;
  FabricConfig config;
  config.num_workers = 1;  // one slot, so depth is the only admission
  config.worker_queue_depth = 1;
  Router router(config, transport);
  // Burst of slow-ish compute requests at depth 1: some must shed.
  std::string input;
  for (int i = 0; i < 24; ++i) {
    input += R"({"op": "simulate", "algorithm": "strassen", "n": 32, "m": )" +
             std::to_string(32 + i) + "}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  router.serve(in, out);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 24u);
  const FabricStats stats = router.stats();
  EXPECT_EQ(stats.responded, 24);
  EXPECT_GT(stats.rejected_queue_full, 0);
  bool saw_provenance = false;
  for (const std::string& line : lines) {
    if (line.find("rejected: queue_full (worker 0, depth 1)") !=
        std::string::npos) {
      saw_provenance = true;
    }
  }
  EXPECT_TRUE(saw_provenance);
}

// --- Graceful degradation --------------------------------------------

TEST(FabricDegradation, ZeroRespawnBudgetDegradesToSurvivors) {
  const std::vector<std::string> mix = chaos_mix();
  const std::string expected = strip_ids(single_process_output(mix));

  obs::Registry::instance().reset();
  InProcessTransport transport;
  FabricConfig config;
  config.num_workers = 4;
  config.max_respawns = 0;  // any death is permanent
  config.chaos.kills.push_back({3, 0});
  config.max_attempts = 4;
  Router router(config, transport);
  std::istringstream in(joined(mix));
  std::ostringstream out;
  router.serve(in, out);

  // Worker 3 died for good; the survivors still answered everything
  // byte-identically.
  EXPECT_EQ(strip_ids(out.str()), expected);
  const FabricStats stats = router.stats();
  EXPECT_EQ(stats.dead_workers, 1);
  EXPECT_EQ(stats.respawns, 0);
  EXPECT_EQ(stats.gave_up, 0);
  const std::vector<WorkerTally> tallies = router.worker_tallies();
  ASSERT_EQ(tallies.size(), 4u);
  EXPECT_FALSE(tallies[3].alive);
}

// --- Accounting ------------------------------------------------------

TEST(FabricAccounting, TalliesBalanceAndReportEmbeds) {
  const std::vector<std::string> mix = chaos_mix();
  obs::Registry::instance().reset();
  InProcessTransport transport;
  FabricConfig config;
  config.num_workers = 4;
  config.chaos.seed = 11;
  config.chaos.drop_response_rate = 0.25;
  config.chaos.kills.push_back({0, 1});
  config.max_attempts = 6;
  Router router(config, transport);
  std::istringstream in(joined(mix));
  std::ostringstream out;
  router.serve(in, out);

  const FabricStats stats = router.stats();
  const std::vector<WorkerTally> tallies = router.worker_tallies();
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  std::int64_t requeued = 0;
  std::int64_t gave_up_rows = 0;
  std::int64_t respawns = 0;
  for (const WorkerTally& tally : tallies) {
    EXPECT_EQ(tally.dispatched,
              tally.completed + tally.requeued + tally.gave_up);
    dispatched += tally.dispatched;
    completed += tally.completed;
    requeued += tally.requeued;
    gave_up_rows += tally.gave_up;
    respawns += tally.respawns;
  }
  EXPECT_EQ(stats.requests, stats.responded);
  EXPECT_EQ(stats.routed + stats.local, stats.responded);
  EXPECT_EQ(stats.ok + stats.errors, stats.responded);
  EXPECT_EQ(completed + gave_up_rows + stats.unroutable, stats.routed);
  EXPECT_EQ(stats.requeues, requeued);
  EXPECT_EQ(stats.respawns, respawns);
  EXPECT_EQ(stats.gave_up, gave_up_rows + stats.unroutable);
  EXPECT_LE(stats.requeues,
            stats.routed * (config.max_attempts - 1));

  // The report section embeds and the registry gauges were finalized.
  obs::RunReport report("fabric-test");
  router.attach_to(report);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fabric\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"fmm.fabric\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\": ["), std::string::npos);
}

TEST(FabricAccounting, RouterIsSingleShot) {
  obs::Registry::instance().reset();
  InProcessTransport transport;
  Router router(FabricConfig{}, transport);
  std::istringstream in1("{\"op\": \"ping\"}\n");
  std::ostringstream out1;
  router.serve(in1, out1);
  std::istringstream in2("{\"op\": \"ping\"}\n");
  std::ostringstream out2;
  EXPECT_THROW(router.serve(in2, out2), CheckError);
}

}  // namespace
}  // namespace fmm::fabric
