// Long-running query engine over the certification stack.
//
// A QueryService owns a content-addressed ContentCache (cache.hpp) and
// the session tallies behind the `extra.service` run-report section.
// Requests arrive as newline-delimited JSON (protocol.hpp) on any
// istream — stdin under `fmmio serve`, a Unix-domain socket connection
// under `fmmio serve --socket` — and responses are emitted IN REQUEST
// ORDER even though compute requests run concurrently on a
// parallel::ThreadPool: serve() starts one for its session, and
// serve_unix_socket() one for its whole accept loop.  handle_line
// answers on the caller's thread and starts no thread.
//
// Flow of one compute request (bound/simulate/liveness/optimal/cdag):
//
//   parse → deadline check → admission check → pool dispatch →
//   result-cache lookup → (miss: CDAG fetch through the cache +
//   compute + render + retain) → ordered emission
//
// Deadlines ride the repo's resilience virtual clock philosophy
// (resilience/retry.hpp): a request's cost is ESTIMATED in deterministic
// ticks (|V(H^{n x n})| by cdag::census for simulate and liveness; the
// branch-and-bound state budget for optimal, whose search is capped by
// that budget rather than the CDAG size; 1 for closed-form ops, cdag
// included) and compared against deadline_ticks at admission.  No
// wall-clock is ever consulted, so a given (config, request) pair always
// gets the same deadline_exceeded verdict — deterministic, testable
// backpressure.
//
// Admission is bounded: when max_queue compute requests are already
// queued-or-running, new ones are answered `rejected: queue_full`
// immediately (still in order) instead of growing an unbounded queue.
//
// Shutdown (op or EOF) drains gracefully: admitted requests finish on
// the pool and every response is emitted before serve() returns — no
// in-flight request is ever dropped.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include <memory>

#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "snapshot/store.hpp"
#include "sweep/sweep.hpp"

namespace fmm::service {

inline constexpr const char* kTelemetrySchema = "fmm.telemetry";
inline constexpr int kTelemetrySchemaVersion = 1;

/// sweep::CdagSource backed by the service cache, so sweep cells, serve
/// requests and single-shot subcommands share one content-addressed
/// store of frozen CDAGs (and one build code path).  With a
/// SnapshotStore attached, a memory miss falls back to the store (the
/// fabric's shared second-level cache) before building, and a fresh
/// build is published for the other workers — all inside the cache's
/// single-flight, so each CDAG is loaded-or-built once per process.
class CachingCdagSource final : public sweep::CdagSource {
 public:
  explicit CachingCdagSource(ContentCache& cache,
                             snapshot::SnapshotStore* store = nullptr)
      : cache_(cache), store_(store) {}

  std::shared_ptr<const cdag::Cdag> get_cdag(const std::string& algorithm,
                                             std::size_t n) override;

 private:
  ContentCache& cache_;
  snapshot::SnapshotStore* store_;  // optional second-level cache
};

struct ServiceConfig {
  /// Workers of the pool that serve() and serve_unix_socket() start;
  /// 0 = hardware concurrency.  handle_line runs on the caller's thread
  /// and uses none.
  std::size_t num_threads = 0;
  /// Max compute requests queued-or-running before new ones are
  /// answered `rejected: queue_full` (0 rejects every compute request —
  /// the deterministic backpressure test uses that).
  std::size_t max_queue = 256;
  /// Content cache sizing; cache.memory_budget_bytes = 0 disables
  /// retention (every request recomputes — the bench's cold arm).
  CacheConfig cache;
  /// Virtual-clock deadline per request in ticks; 0 = no deadline.
  std::int64_t deadline_ticks = 0;
  /// Directory of the shared on-disk snapshot store (the second-level
  /// CDAG cache, src/snapshot/store.hpp); empty disables it.
  std::string snapshot_dir;
  /// Snapshot store byte budget (0 = unlimited); only meaningful with
  /// snapshot_dir set.
  std::uint64_t snapshot_budget_bytes = 0;
  /// Recent-request telemetry ring size (the `tail` op's window).
  std::size_t telemetry_ring = 256;
  /// Slow-query log size (requests over slow_ms, also via `tail`).
  std::size_t slow_log = 64;
  /// Requests whose total latency exceeds this land in the slow log.
  std::int64_t slow_ms = 100;
  /// Cooperative shutdown flag, typically set by a SIGTERM/SIGINT
  /// handler (hence sig_atomic_t).  When it becomes non-zero, serve()
  /// stops reading and runs the normal graceful drain — every admitted
  /// request is still answered (responded == requests) — and
  /// serve_unix_socket() stops accepting.  The signal must be
  /// installed WITHOUT SA_RESTART so a blocked read returns EINTR.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

/// Session tallies for stats responses and the extra.service report.
struct ServiceStats {
  std::int64_t requests = 0;   // non-blank lines admitted for parsing
  std::int64_t responded = 0;  // responses rendered (== requests after drain)
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t deadline_exceeded = 0;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Parses, executes and answers one request line synchronously —
  /// the in-process entry point (tests, quickstart).  Never throws:
  /// every outcome is a response string (no trailing newline).
  std::string handle_line(const std::string& line);

  /// NDJSON session: reads request lines from `in` until EOF or a
  /// shutdown op, dispatching compute requests onto a pool it starts
  /// for the session, and writes one response line per request to
  /// `out` in request order.  Drains gracefully before returning.
  /// Returns true iff the session ended via the shutdown op (vs EOF).
  bool serve(std::istream& in, std::ostream& out);

#ifdef __unix__
  /// Binds a Unix-domain stream socket at `path` and serves one
  /// accepted connection at a time (same cache, pool and tallies
  /// across connections) until a client sends shutdown.  Returns true
  /// iff stopped by shutdown (vs accept failure).
  bool serve_unix_socket(const std::string& path);
#endif

  ContentCache& cache() { return cache_; }
  sweep::CdagSource& cdag_source() { return cdag_source_; }
  /// The shared on-disk snapshot store, or nullptr when snapshot_dir is
  /// unset.
  snapshot::SnapshotStore* snapshot_store() { return store_.get(); }
  const ServiceConfig& config() const { return config_; }

  /// Point-in-time session tallies.
  ServiceStats stats() const;

  /// Compute requests currently queued-or-running on the pool.
  std::int64_t queue_depth() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// The per-request span recorder (recent ring + slow log).
  const obs::TelemetrySink& telemetry() const { return telemetry_; }

  /// The versioned `extra.service` section (schema fmm.service v1):
  /// totals, cache stats, and per-op rows the totals re-derive from.
  std::string service_json() const;

  /// The versioned `extra.telemetry` section (schema fmm.telemetry v1):
  /// per-op latency histograms with percentile summaries plus the
  /// recent-request ring with per-phase breakdowns.
  std::string telemetry_json() const;

  /// Embeds service_json() under extra.service, telemetry_json() under
  /// extra.telemetry, and records headline results
  /// (service_requests/service_ok/...).  With a snapshot store
  /// configured, also records the snapshot_dir param and embeds the
  /// store's stats under extra.snapshot.
  void attach_to(obs::RunReport& report) const;

 private:
  struct OpStats {
    std::int64_t requests = 0;
    std::int64_t ok = 0;
    std::int64_t errors = 0;
  };

  /// True once config_.stop_flag is raised (e.g. by SIGTERM).
  bool stop_requested() const {
    return config_.stop_flag != nullptr && *config_.stop_flag != 0;
  }
  /// Tally one admitted request line (before any response exists).
  void record_request();
  /// Tally one rendered response for `op` ("invalid" for parse
  /// failures).
  void record_response(const std::string& op, bool is_ok);

  /// stats/metrics/tail — point-in-time views of this service, cheap,
  /// inline, exempt from determinism.  Tallies the response.
  std::string state_response(const Request& request);
  /// bound/simulate/liveness/cdag through the result cache; catches
  /// everything into internal_error responses.  Tallies the response.
  /// Fills `telemetry`'s cache verdict and cache-lookup/cdag-build/
  /// simulate/render phases.
  std::string compute_response(const Request& request,
                               obs::RequestTelemetry& telemetry);
  /// Renders the deterministic result object (cache miss path).
  std::string compute_result(const Request& request);
  /// Deterministic virtual-clock cost estimate of a request: the census
  /// |V| for simulate and liveness, the state budget for optimal, and 1
  /// tick for every closed-form op, cdag included.
  std::int64_t estimated_cost_ticks(const Request& request) const;
  /// The front of every request, shared by handle_line and serve:
  /// tallies the line, parses it into `request` (timing the parse into
  /// `telemetry`, which also gets the op and id), then runs
  /// pre_compute_response.  A line that does not parse is answered here
  /// with its tallied usage_error.  nullopt when the request needs
  /// compute_response.
  std::optional<std::string> admit(const std::string& line,
                                   Request* request, bool* is_shutdown,
                                   obs::RequestTelemetry& telemetry);
  /// Everything except pool-dispatched compute: control and
  /// point-in-time ops and virtual-clock deadline rejection.  Returns the tallied
  /// response, or nullopt when the request needs compute_response.
  /// Sets *is_shutdown for the shutdown op; marks `telemetry` not-ok
  /// on deadline rejection.
  std::optional<std::string> pre_compute_response(
      const Request& request, bool* is_shutdown,
      obs::RequestTelemetry& telemetry);
  /// One serve() session, computing on `pool`; drains `pool` before it
  /// returns.
  bool serve_session(std::istream& in, std::ostream& out,
                     parallel::ThreadPool& pool);

  ServiceConfig config_;
  ContentCache cache_;
  // Constructed before cdag_source_, which captures the raw pointer.
  std::unique_ptr<snapshot::SnapshotStore> store_;
  CachingCdagSource cdag_source_;
  obs::TelemetrySink telemetry_;
  /// Compute requests queued-or-running (admission bound + stats).
  std::atomic<std::int64_t> in_flight_{0};

  mutable std::mutex stats_mutex_;
  ServiceStats totals_;
  std::map<std::string, OpStats> per_op_;
};

}  // namespace fmm::service
