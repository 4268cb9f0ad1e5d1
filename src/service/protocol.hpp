// Newline-delimited JSON protocol of the query service.
//
// One request per line, one response per line, responses in request
// order.  A request is a JSON object:
//
//   {"id": 4, "op": "simulate", "algorithm": "strassen", "n": 16,
//    "m": 64, "schedule": "dfs", "policy": "lru", "remat": false,
//    "seed": 1}
//
// Ops:
//   ping      — liveness probe; result {"pong": true}.
//   version   — build provenance (obs/build_info.hpp).
//   stats     — session counters + cache stats (point-in-time).
//   bound     — closed-form Theorem 1.1 bounds at (n, m, p).
//   simulate  — pebble simulation of H^{n x n}; the result is exactly
//               the sweep task row of a one-cell sweep (sweep.hpp),
//               so serve, sweep and `fmmio simulate` share one code
//               path and one determinism contract.
//   liveness  — zero-spill working-set profile, same task-row form.
//   optimal   — exact minimum-I/O pebbling of H^{n x n} via the
//               branch-and-bound oracle (pebble/optimal.hpp), same
//               one-cell sweep task-row form; the row's "optimality"
//               field says whether the state budget held ("exact") or
//               the value is a certified lower bound
//               ("budget_exceeded").  Costed at the solver's state
//               budget for --deadline-ticks admission.
//   cdag      — structure of H^{n x n} (vertices, edges, role counts).
//   metrics   — Prometheus text exposition of the metrics registry
//               (counters, gauges, histogram buckets) as one JSON
//               string; scraped by `fmmio metrics` / tools/fmm_top.py.
//   tail      — the recent-request telemetry ring plus the slow-query
//               log (requests over the --slow-ms threshold), with
//               per-phase duration breakdowns.  Optional "limit" caps
//               how many recent records return (0 = all).
//   shutdown  — graceful drain: in-flight requests finish and are
//               answered, then the session ends.
//
// The "algorithm" field of simulate/liveness/optimal/cdag takes any scheme
// registry key: catalog names ("strassen", "winograd-dual",
// "classic-<n>x<m>x<p>", ...) or "file:<path>" naming an fmm.scheme
// JSON file, loaded and Brent-verified on first use.  A name and a
// scheme file resolving to the same fingerprint are the same query:
// they share cache entries and answer with byte-identical responses.
//
// Responses:  {"id": 4, "ok": true, "op": "simulate", "result": {...}}
//         or  {"id": 4, "ok": false, "error": "usage_error: ..."}
// (id is null when the request had none or did not parse).  Error
// strings are single lines prefixed with a machine-readable class:
// usage_error, rejected: queue_full, deadline_exceeded, internal_error.
//
// Determinism contract: for bound/simulate/liveness/optimal/cdag, the
// `result`
// object is a pure function of the canonical request (id excluded) —
// byte-identical regardless of cache state, thread count or request
// interleaving.  ping/version/stats/metrics/tail are control ops and
// exempt (stats/metrics/tail are inherently point-in-time).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace fmm::service {

inline constexpr const char* kServiceSchema = "fmm.service";
inline constexpr int kServiceSchemaVersion = 1;

/// Contiguous from kPing to kShutdown (op_from_name walks the range).
enum class Op {
  kPing,
  kVersion,
  kStats,
  kBound,
  kSimulate,
  kLiveness,
  kOptimal,
  kCdag,
  kMetrics,
  kTail,
  kShutdown,
};

const char* op_name(Op op);

/// A validated request.  Fields irrelevant to the op keep their
/// defaults and are excluded from the canonical echo.
struct Request {
  bool has_id = false;
  std::int64_t id = 0;
  Op op = Op::kPing;
  std::string algorithm = "strassen";
  std::size_t n = 0;
  std::int64_t m = 0;
  std::int64_t p = 1;           // bound only
  std::string schedule = "dfs";  // simulate only
  std::string policy = "lru";    // simulate only
  bool remat = false;            // simulate + optimal
  std::uint64_t seed = 1;        // simulate (random schedule) + optimal
  std::int64_t limit = 0;        // tail only; 0 = everything in the ring
};

/// Malformed request.  what() is the complete one-line error string
/// ("usage_error: ..."), ready to embed in an error response.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses and validates one request line; throws ProtocolError with a
/// one-line usage_error message on any problem (unknown op or field,
/// missing required field, trailing garbage).  Scheme-dependent shape
/// constraints — unknown algorithm, n not a power of the scheme's base
/// dim — are validated by the service after resolving the algorithm,
/// and also answer as usage_error.
Request parse_request(const std::string& line);

/// The canonical JSON echo of a request: deterministic field order,
/// id EXCLUDED, only op-relevant fields included.  Two requests with
/// equal canonical echoes are the same query — this string is the
/// result-cache key preimage (ContentCache::result_key).
std::string canonical_request(const Request& request);

/// True for ops whose result payload obeys the determinism contract and
/// is therefore result-cacheable (bound/simulate/liveness/optimal/cdag).
bool op_is_cacheable(Op op);

/// True for ops that need the (algorithm, n) CDAG built.
bool op_needs_cdag(Op op);

/// Renders a success response envelope around an already-rendered
/// result object.
std::string ok_response(const Request& request, const std::string& result);

/// Renders an error response; `message` must already carry its class
/// prefix ("usage_error: ...").  When has_id is false, id renders null.
std::string error_response(bool has_id, std::int64_t id,
                           const std::string& message);

/// The response to ping, version or shutdown — the ops whose answer needs
/// no service state, so a QueryService and a fabric router answer them
/// with the same bytes.  nullopt for every other op.
std::optional<std::string> control_response(const Request& request);

/// True for lines an NDJSON session skips: empty, or only spaces, tabs
/// and carriage returns.
bool blank(const std::string& line);

}  // namespace fmm::service
