// Malformed-NDJSON fuzz battery for the service protocol: a seeded
// mutator corrupts well-formed request lines — truncation, type
// confusion, duplicate keys, oversized fields, raw byte flips — and
// QueryService must answer EVERY mutant with exactly one single-line
// error response, never crash, and keep serving pristine requests
// afterwards.  Mirrors test_scheme_fuzz.cpp for the request surface;
// runs under the sanitize preset in CI.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace fmm::service {
namespace {

const std::vector<std::string>& pristine_requests() {
  static const std::vector<std::string> lines = {
      R"({"op": "ping"})",
      R"({"op": "version"})",
      R"({"op": "stats"})",
      R"({"op": "bound", "n": 32, "m": 64})",
      R"({"id": 7, "op": "simulate", "algorithm": "strassen", "n": 16, "m": 32})",
      R"({"op": "liveness", "algorithm": "winograd", "n": 16})",
      R"({"op": "optimal", "algorithm": "strassen", "n": 2, "m": 3})",
      R"({"op": "cdag", "algorithm": "strassen", "n": 8})",
  };
  return lines;
}

/// One response line, no embedded newline, ok:false with a non-empty
/// error string — the whole protocol contract for a rejected line.
void expect_single_line_error(const std::string& mutant,
                              const std::string& response) {
  EXPECT_FALSE(response.empty()) << "mutant: " << mutant;
  EXPECT_EQ(response.find('\n'), std::string::npos)
      << "multi-line response for mutant: " << mutant;
  EXPECT_NE(response.find("\"ok\": false"), std::string::npos)
      << "mutant was accepted: " << mutant << " -> " << response;
  EXPECT_NE(response.find("\"error\": \""), std::string::npos)
      << "no error field for mutant: " << mutant;
}

QueryService& shared_service() {
  static QueryService* service = [] {
    obs::Registry::instance().reset();
    return new QueryService();
  }();
  return *service;
}

/// Feeds one mutant and proves the daemon survived: the mutant gets a
/// one-line error and a follow-up ping still answers pong.
void expect_rejected_and_alive(const std::string& mutant) {
  QueryService& service = shared_service();
  expect_single_line_error(mutant, service.handle_line(mutant));
  const std::string pong = service.handle_line(R"({"op": "ping"})");
  EXPECT_NE(pong.find("\"pong\": true"), std::string::npos)
      << "daemon wedged after mutant: " << mutant;
}

// --- Truncation ------------------------------------------------------

TEST(ProtocolFuzz, TruncatedLinesAreRefused) {
  // Every strict prefix of a valid request is invalid JSON (or at
  // best an object missing its op) — all must be refused.
  for (const std::string& line : pristine_requests()) {
    for (std::size_t len = 1; len + 1 < line.size(); ++len) {
      expect_rejected_and_alive(line.substr(0, len));
    }
  }
}

// --- Type confusion --------------------------------------------------

TEST(ProtocolFuzz, TypeConfusionIsRefused) {
  const std::vector<std::string> mutants = {
      // wrong scalar types for every typed field
      R"({"op": 3})",
      R"({"op": true})",
      R"({"op": ["ping"]})",
      R"({"op": {"name": "ping"}})",
      R"({"op": "bound", "n": "32", "m": 64})",
      R"({"op": "bound", "n": 32, "m": "64"})",
      R"({"op": "bound", "n": 32.5, "m": 64})",
      R"({"op": "bound", "n": null, "m": 64})",
      R"({"op": "bound", "n": [32], "m": 64})",
      R"({"op": "simulate", "algorithm": 7, "n": 16, "m": 32})",
      R"({"op": "simulate", "algorithm": null, "n": 16, "m": 32})",
      R"({"op": "optimal", "algorithm": "strassen", "n": 2, "m": 3, "remat": "yes"})",
      R"({"op": "optimal", "algorithm": "strassen", "n": 2, "m": 3, "remat": 1})",
      R"({"id": "seven", "op": "ping"})",
      R"({"id": [], "op": "ping"})",
      // non-object top level
      R"("ping")",
      R"([{"op": "ping"}])",
      R"(42)",
      R"(null)",
      R"(true)",
  };
  for (const std::string& mutant : mutants) {
    expect_rejected_and_alive(mutant);
  }
}

// --- Duplicate keys --------------------------------------------------

TEST(ProtocolFuzz, DuplicateKeysAreRefused) {
  const std::vector<std::string> mutants = {
      R"({"op": "ping", "op": "ping"})",
      R"({"op": "ping", "op": "shutdown"})",
      R"({"op": "bound", "n": 32, "n": 64, "m": 64})",
      R"({"op": "bound", "n": 32, "m": 64, "m": 128})",
      R"({"id": 1, "id": 2, "op": "ping"})",
      R"({"op": "simulate", "algorithm": "strassen", "algorithm": "winograd", "n": 16, "m": 32})",
  };
  for (const std::string& mutant : mutants) {
    expect_rejected_and_alive(mutant);
  }
}

// --- Oversized fields ------------------------------------------------

TEST(ProtocolFuzz, OversizedFieldsAreRefused) {
  const std::string huge_name(1 << 16, 'x');
  const std::vector<std::string> mutants = {
      // unknown (because absurd) algorithm name, 64 KiB of it
      R"({"op": "simulate", "algorithm": ")" + huge_name +
          R"(", "n": 16, "m": 32})",
      // integer overflow / out-of-range numerics
      R"({"op": "bound", "n": 99999999999999999999999999, "m": 64})",
      R"({"op": "bound", "n": 32, "m": -9223372036854775809})",
      R"({"op": "bound", "n": -32, "m": 64})",
      R"({"op": "bound", "n": 0, "m": 64})",
      // deep nesting in an ignored position still has to parse-or-die
      R"({"op": "ping", "extra": [[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]})",
  };
  for (const std::string& mutant : mutants) {
    expect_rejected_and_alive(mutant);
  }
}

// --- Seeded byte-flip sweep ------------------------------------------

TEST(ProtocolFuzz, SeededByteFlipsNeverCrash) {
  // Random single-byte corruption over every pristine line: the result
  // must be either a valid response (flip landed in an ignored spot or
  // produced a different-but-valid request) or a one-line error —
  // never a crash, never silence.  Seeded, so failures replay.
  Rng rng(20260808);
  QueryService& service = shared_service();
  for (const std::string& line : pristine_requests()) {
    for (int round = 0; round < 64; ++round) {
      std::string mutant = line;
      const std::size_t pos = rng.uniform(mutant.size());
      const char replacement =
          static_cast<char>(33 + rng.uniform(94));  // printable ASCII
      if (mutant[pos] == replacement) {
        continue;
      }
      mutant[pos] = replacement;
      const std::string response = service.handle_line(mutant);
      EXPECT_FALSE(response.empty()) << "mutant: " << mutant;
      EXPECT_EQ(response.find('\n'), std::string::npos)
          << "mutant: " << mutant;
      EXPECT_TRUE(response.find("\"ok\": true") != std::string::npos ||
                  response.find("\"ok\": false") != std::string::npos)
          << "mutant: " << mutant << " -> " << response;
    }
  }
  const std::string pong = service.handle_line(R"({"op": "ping"})");
  EXPECT_NE(pong.find("\"pong\": true"), std::string::npos);
}

// --- Full-session battery --------------------------------------------

TEST(ProtocolFuzz, MutantSessionDrainsCompletely) {
  // A serve() session interleaving mutants with pristine requests:
  // exactly one response line per non-blank request line, in order,
  // and the pristine requests still succeed.
  obs::Registry::instance().reset();
  ServiceConfig config;
  config.num_threads = 2;
  QueryService service(config);
  const std::vector<std::string> session = {
      R"({"op": "ping"})",
      R"({"op": 3})",
      R"({"op": "bound", "n": 32, "m": 64})",
      R"({"op": "bound", "n": 32,)",  // truncated
      R"({"op": "ping", "op": "shutdown"})",  // duplicate key
      R"({"op": "simulate", "algorithm": "strassen", "n": 16, "m": 32})",
      "not json at all",
      R"({"op": "ping"})",
  };
  std::string input;
  for (const std::string& line : session) {
    input += line;
    input += '\n';
  }
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_FALSE(service.serve(in, out));

  std::vector<std::string> responses;
  {
    std::istringstream parse(out.str());
    std::string line;
    while (std::getline(parse, line)) {
      responses.push_back(line);
    }
  }
  ASSERT_EQ(responses.size(), session.size());
  const std::vector<bool> expect_ok = {true, false, true,  false,
                                       false, true, false, true};
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_NE(responses[i].find(expect_ok[i] ? "\"ok\": true"
                                             : "\"ok\": false"),
              std::string::npos)
        << "line " << i << ": " << responses[i];
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::int64_t>(session.size()));
  EXPECT_EQ(stats.responded, stats.requests);
}

}  // namespace
}  // namespace fmm::service
