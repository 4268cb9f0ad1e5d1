// Fault-tolerant request router over N NDJSON workers.
//
// The router speaks the same line protocol as service::QueryService
// (docs/SERVICE.md) but answers compute ops by consistent-hashing each
// request's canonical cache-key preimage (protocol.cpp's
// canonical_request) across worker slots via rendezvous hashing —
// stable under respawn, minimally disruptive when a worker dies for
// good.  Robustness semantics:
//
//   supervision — every slot is spawned through a Transport and health
//     -probed with a ping before accepting work.  A failed RPC triggers
//     respawn (bounded by max_respawns per slot) with a fresh probe.
//
//   retry-with-requeue — a request whose worker died, or whose answer
//     was dropped, is requeued at once, up to max_attempts attempts in
//     all (no backoff).  Safe because compute responses are pure
//     functions of the canonical request: a replay is byte-identical
//     to the lost answer.  When a slot's respawn budget is exhausted
//     the slot is marked dead and its queue drains onto the surviving
//     workers (graceful degradation); with no survivors the request
//     answers `internal_error: fabric: no alive workers`.
//
//   backpressure — admission to a worker whose router-side queue is at
//     worker_queue_depth answers `rejected: queue_full (worker k,
//     depth d)`, preserving the service's rejection prefix and adding
//     worker provenance.
//
// Request handling by op:
//   ping / version / shutdown — answered by the router itself with the
//     exact bytes QueryService emits (deterministic ops).
//   stats / metrics / tail — routed like compute ops; the chosen
//     worker answers about itself (point-in-time ops are exempt from
//     byte-identity; fabric-level aggregates live in extra.fabric).
//   bound / simulate / liveness / optimal / cdag — routed.
//
// Responses are re-sequenced by an ordered emitter (same pattern as
// QueryService::serve), so the reply stream is in request order no
// matter which worker answered or how often a request was requeued.
// The byte-identity contract — and the chaos tests that pin it — is
// that a router+N-worker session's output equals a single-process
// QueryService session's output (after id strip) even with injected
// worker kills and response drops.
#pragma once

#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fabric/chaos.hpp"
#include "fabric/transport.hpp"
#include "obs/run_report.hpp"
#include "service/emitter.hpp"

namespace fmm::fabric {

inline constexpr const char* kFabricSchema = "fmm.fabric";
inline constexpr int kFabricSchemaVersion = 1;

struct FabricConfig {
  std::size_t num_workers = 4;
  /// Router-side per-worker queue bound; admission past it is shed.
  std::size_t worker_queue_depth = 64;
  /// Attempts per request across all workers (>= 1; 1 = no requeue).
  int max_attempts = 3;
  /// Respawn budget per worker slot; 0 = any death is permanent.
  int max_respawns = 2;
  ChaosSpec chaos;
  /// Cooperative stop (e.g. SIGTERM): when set, serve() stops reading
  /// and drains, exactly like EOF.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

/// Per-slot accounting.  dispatched == completed + requeued + gave_up:
/// every send attempt ends in exactly one of a delivered response, a
/// requeue, or a terminal fabric error.
struct WorkerTally {
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  std::int64_t requeued = 0;
  std::int64_t gave_up = 0;
  std::int64_t respawns = 0;
  bool alive = true;
};

struct FabricStats {
  std::int64_t requests = 0;
  std::int64_t responded = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t routed = 0;  // jobs admitted to worker queues
  std::int64_t local = 0;   // answered by the router itself
  std::int64_t requeues = 0;
  std::int64_t respawns = 0;
  std::int64_t gave_up = 0;     // terminal fabric errors, total
  std::int64_t unroutable = 0;  // ... of which: no alive workers
  std::int64_t kills_injected = 0;
  std::int64_t dropped_responses = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t dead_workers = 0;
};

class Router {
 public:
  Router(FabricConfig config, Transport& transport);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// One NDJSON session; returns true iff a shutdown op ended it.
  /// Spawns workers on entry, drains and tears them down before
  /// returning (graceful: every admitted request is answered).
  bool serve(std::istream& in, std::ostream& out);

  FabricStats stats() const;
  std::vector<WorkerTally> worker_tallies() const;
  const FabricConfig& config() const { return config_; }

  /// The extra.fabric report section (tools/check_report_schema.py
  /// re-derives its per-worker/total arithmetic).
  std::string fabric_json() const;
  void attach_to(obs::RunReport& report) const;

  /// Rendezvous choice among alive slots — exposed for tests.
  static std::size_t pick_worker(const std::string& canonical,
                                 const std::vector<bool>& alive);

 private:
  struct Slot;
  struct Job;
  using Emitter = service::OrderedEmitter<std::string>;

  bool ensure_worker(std::size_t k);
  bool probe(Channel& channel);
  void mark_dead(std::size_t k);
  void process_job(std::size_t k, Job job, Emitter& emit);
  void reroute(Job job, Emitter& emit);
  void deliver_routed(std::size_t seq, std::string response, bool response_ok,
                      Emitter& emit);
  /// Rendezvous choice among the alive slots; nullopt when none is
  /// alive.  Caller holds mutex_.
  std::optional<std::size_t> route_locked(const std::string& canonical) const;

  FabricConfig config_;
  Transport& transport_;
  std::unique_ptr<ChaosEngine> chaos_;

  mutable std::mutex mutex_;  // slots' queue/tally, stats_, completion
  std::condition_variable work_cv_;
  std::vector<std::unique_ptr<Slot>> slots_;
  FabricStats stats_;
  std::int64_t jobs_admitted_ = 0;
  std::int64_t jobs_finished_ = 0;
  bool input_done_ = false;
  bool all_done_ = false;
};

}  // namespace fmm::fabric
