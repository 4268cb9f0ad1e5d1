#include "service/service.hpp"

#include <atomic>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/math_util.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pebble/optimal.hpp"
#include "service/emitter.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <streambuf>
#endif

namespace fmm::service {

namespace {

/// The canonical algorithm key of a request: when a "file:<path>" (or
/// alias) key denotes the very same scheme as its declared name —
/// fingerprints equal — the name wins, so name- and file-resolved
/// requests share result/CDAG cache entries and answer with
/// byte-identical bytes.  Distinct schemes keep their original key.
std::string canonical_algorithm_key(const std::string& key) {
  const bilinear::SchemeTraits traits = sweep::resolve_traits(key);
  if (key == traits.name) {
    return key;
  }
  try {
    if (sweep::resolve_traits(traits.name).fingerprint ==
        traits.fingerprint) {
      return traits.name;
    }
  } catch (const std::exception&) {
    // The declared name is not independently resolvable; keep the key.
  }
  return key;
}

obs::TelemetryConfig telemetry_config_from(const ServiceConfig& config) {
  obs::TelemetryConfig tc;
  tc.ring_capacity = config.telemetry_ring;
  tc.slow_capacity = config.slow_log;
  tc.slow_threshold_ns = config.slow_ms * 1'000'000;
  return tc;
}

/// One ring record as a JSON object (the `tail` op's row shape; the
/// fmmio tail subcommand re-emits these verbatim as NDJSON).
void render_telemetry_record(std::ostream& os,
                             const obs::RequestTelemetry& rec) {
  os << "{\"seq\": " << rec.seq << ", \"id\": ";
  if (rec.has_id) {
    os << rec.id;
  } else {
    os << "null";
  }
  os << ", \"op\": \"" << rec.op << "\", \"ok\": "
     << (rec.ok ? "true" : "false") << ", \"cache\": \""
     << obs::cache_verdict_name(rec.cache)
     << "\", \"bytes_in\": " << rec.bytes_in
     << ", \"bytes_out\": " << rec.bytes_out
     << ", \"total_ns\": " << rec.total_ns << ", \"phases_ns\": {";
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    os << (p == 0 ? "" : ", ") << "\""
       << obs::phase_name(static_cast<obs::Phase>(p))
       << "\": " << rec.phase_ns[p];
  }
  os << "}}";
}

}  // namespace

std::shared_ptr<const cdag::Cdag> CachingCdagSource::get_cdag(
    const std::string& algorithm, std::size_t n) {
  // Content-address the frozen CDAG by the resolved scheme fingerprint,
  // not the lookup key: "strassen" and an equivalent file:... scheme
  // share one cached graph.
  const std::string fingerprint =
      sweep::resolve_traits(algorithm).fingerprint;
  return cache_.get_or_build_cdag(
      ContentCache::cdag_key("scheme:" + fingerprint, n), [&] {
        // Second level: the shared on-disk snapshot store.  The whole
        // fallback runs inside the cache's single-flight, so per process
        // each CDAG is loaded-or-built (and published) exactly once.
        if (store_ != nullptr) {
          if (std::optional<cdag::Cdag> loaded =
                  store_->try_load(fingerprint, n)) {
            return std::move(*loaded);
          }
        }
        cdag::Cdag built =
            cdag::build_cdag(sweep::resolve_algorithm(algorithm), n);
        if (store_ != nullptr) {
          store_->publish(fingerprint, n, built);
        }
        return built;
      });
}

QueryService::QueryService(ServiceConfig config)
    : config_(config),
      cache_(config.cache),
      store_(config_.snapshot_dir.empty()
                 ? nullptr
                 : std::make_unique<snapshot::SnapshotStore>(
                       snapshot::SnapshotStoreConfig{
                           config_.snapshot_dir,
                           config_.snapshot_budget_bytes,
                           snapshot::Verify::kFull})),
      cdag_source_(cache_, store_.get()),
      telemetry_(telemetry_config_from(config)) {}

void QueryService::record_request() {
  const std::scoped_lock lock(stats_mutex_);
  ++totals_.requests;
}

void QueryService::record_response(const std::string& op, bool is_ok) {
  const std::scoped_lock lock(stats_mutex_);
  ++totals_.responded;
  OpStats& row = per_op_[op];
  ++row.requests;
  if (is_ok) {
    ++totals_.ok;
    ++row.ok;
  } else {
    ++totals_.errors;
    ++row.errors;
  }
}

std::int64_t QueryService::estimated_cost_ticks(const Request& request) const {
  // The optimal op is deadline-guarded by its own state budget: the
  // branch-and-bound search memoizes at most max_states distinct states
  // before degrading to a certified lower bound, so that budget IS the
  // cost ceiling regardless of CDAG size.
  if (request.op == Op::kOptimal) {
    return static_cast<std::int64_t>(pebble::OptimalPebbleOptions{}.max_states);
  }
  if (request.op != Op::kSimulate && request.op != Op::kLiveness) {
    return 1;
  }
  // |V(H^{n x n})| by the census: purely arithmetic, so the verdict for a
  // (config, request) pair never depends on load or wall-clock.  A size
  // the census refuses cannot run at all.
  try {
    return static_cast<std::int64_t>(
        cdag::census(sweep::resolve_algorithm(request.algorithm), request.n)
            .vertices);
  } catch (const CheckError&) {
    return std::numeric_limits<std::int64_t>::max();
  }
}

std::string QueryService::state_response(const Request& request) {
  std::string result;
  switch (request.op) {
    case Op::kStats: {
      const ServiceStats totals = stats();
      const CacheStats cache_stats = cache_.stats();
      // Derived ratios ride along so callers stop re-deriving them
      // from raw counters: hit-rate over lookups seen so far, total
      // evictions, and the instantaneous compute queue depth.
      const std::int64_t lookups = cache_stats.hits + cache_stats.misses;
      const double hit_rate =
          lookups == 0 ? 0.0
                       : static_cast<double>(cache_stats.hits) /
                             static_cast<double>(lookups);
      std::ostringstream os;
      os << "{\"requests\": " << totals.requests
         << ", \"responded\": " << totals.responded
         << ", \"ok\": " << totals.ok << ", \"errors\": " << totals.errors
         << ", \"rejected_queue_full\": " << totals.rejected_queue_full
         << ", \"deadline_exceeded\": " << totals.deadline_exceeded
         << ", \"cache\": {\"hits\": " << cache_stats.hits
         << ", \"misses\": " << cache_stats.misses
         << ", \"evictions\": " << cache_stats.evictions
         << ", \"entries\": " << cache_stats.entries
         << ", \"bytes\": " << cache_stats.bytes
         << "}, \"cache_hit_rate\": ";
      write_double(os, hit_rate);
      os << ", \"cache_evictions\": " << cache_stats.evictions
         << ", \"queue_depth\": " << queue_depth() << "}";
      result = os.str();
      break;
    }
    case Op::kMetrics: {
      std::ostringstream os;
      os << "{\"format\": \"prometheus-0.0.4\", \"exposition\": \""
         << json_escape(obs::Registry::instance().prometheus_text())
         << "\"}";
      result = os.str();
      break;
    }
    case Op::kTail: {
      const std::size_t limit =
          request.limit <= 0 ? 0
                             : static_cast<std::size_t>(request.limit);
      const auto recent = telemetry_.ring().snapshot(limit);
      const auto slow = telemetry_.slow().snapshot(limit);
      std::ostringstream os;
      os << "{\"slow_threshold_ms\": "
         << telemetry_.slow_threshold_ns() / 1'000'000
         << ", \"ring_capacity\": " << telemetry_.ring().capacity()
         << ", \"recorded\": " << telemetry_.ring().recorded()
         << ", \"dropped\": " << telemetry_.ring().dropped()
         << ", \"slow_total\": " << telemetry_.slow_count()
         << ", \"recent\": [";
      for (std::size_t i = 0; i < recent.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        render_telemetry_record(os, recent[i]);
      }
      os << "], \"slow\": [";
      for (std::size_t i = 0; i < slow.size(); ++i) {
        os << (i == 0 ? "" : ", ");
        render_telemetry_record(os, slow[i]);
      }
      os << "]}";
      result = os.str();
      break;
    }
    default:
      FMM_CHECK_MSG(false, "not a point-in-time op");
  }
  record_response(op_name(request.op), true);
  return ok_response(request, result);
}

std::optional<std::string> QueryService::pre_compute_response(
    const Request& request, bool* is_shutdown,
    obs::RequestTelemetry& telemetry) {
  if (auto response = control_response(request)) {
    if (request.op == Op::kShutdown) {
      *is_shutdown = true;
    }
    record_response(op_name(request.op), true);
    return response;
  }
  if (!op_is_cacheable(request.op)) {
    return state_response(request);
  }
  // Scheme-dependent validation: resolve the algorithm (catalog name or
  // file:<path>, Brent-verified on first load) and check n against the
  // scheme's base dim.  Failures answer as one-line usage_error.
  if (op_needs_cdag(request.op)) {
    std::string problem;
    try {
      const bilinear::SchemeTraits traits =
          sweep::resolve_traits(request.algorithm);
      if (traits.base == 0) {
        problem = std::string(op_name(request.op)) + ": scheme '" +
                  traits.name +
                  "' is rectangular; the recursive n x n construction "
                  "needs a square base scheme";
      } else if (!is_power_of(static_cast<std::int64_t>(request.n),
                              static_cast<std::int64_t>(traits.base))) {
        problem = std::string(op_name(request.op)) +
                  ": n must be a power of the scheme's base dim " +
                  std::to_string(traits.base) + ", got " +
                  std::to_string(request.n);
      }
    } catch (const std::exception& e) {
      problem = e.what();
    }
    if (!problem.empty()) {
      record_response(op_name(request.op), false);
      telemetry.ok = false;
      return error_response(request.has_id, request.id,
                            "usage_error: " + problem);
    }
  }
  if (config_.deadline_ticks > 0) {
    const std::int64_t cost = estimated_cost_ticks(request);
    if (cost > config_.deadline_ticks) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++totals_.deadline_exceeded;
      }
      record_response(op_name(request.op), false);
      telemetry.ok = false;
      return error_response(
          request.has_id, request.id,
          "deadline_exceeded: estimated cost " + std::to_string(cost) +
              " ticks exceeds deadline " +
              std::to_string(config_.deadline_ticks));
    }
  }
  return std::nullopt;
}

std::string QueryService::compute_result(const Request& request) {
  switch (request.op) {
    case Op::kBound: {
      const bounds::MmParams params{static_cast<double>(request.n),
                                    static_cast<double>(request.m),
                                    static_cast<double>(request.p)};
      std::ostringstream os;
      os << "{\"classic_memory_dependent\": ";
      write_double(os, bounds::classic_memory_dependent(params));
      os << ", \"classic_memory_independent\": ";
      write_double(os, bounds::classic_memory_independent(params));
      os << ", \"fast_memory_dependent\": ";
      write_double(os, bounds::fast_memory_dependent(params, kOmega0));
      os << ", \"fast_memory_independent\": ";
      write_double(os, bounds::fast_memory_independent(params, kOmega0));
      os << ", \"fast_parallel\": ";
      write_double(os, bounds::fast_parallel_bound(params, kOmega0));
      if (request.p > 1) {
        os << ", \"crossover_p\": ";
        write_double(os,
                     bounds::parallel_crossover_p(
                         static_cast<double>(request.n),
                         static_cast<double>(request.m), kOmega0));
      }
      os << "}";
      return os.str();
    }
    case Op::kSimulate:
    case Op::kLiveness:
    case Op::kOptimal: {
      // The result IS a one-cell sweep task row: serve, `fmmio sweep`
      // and `fmmio simulate` answer through the same run_task path, so
      // the byte-identity contract is sweep's existing determinism (an
      // optimal row, or its structured `infeasible` skip, is the
      // matching `fmmio sweep --kinds optimal` row).  Optimal requests
      // carry no schedule or policy, so theirs stay the defaults.
      sweep::SweepSpec spec;
      spec.algorithms = {request.algorithm};
      spec.n_grid = {request.n};
      spec.m_grid = {request.m};
      spec.kinds = {request.op == Op::kLiveness  ? sweep::TaskKind::kLiveness
                    : request.op == Op::kOptimal ? sweep::TaskKind::kOptimal
                                                 : sweep::TaskKind::kSimulate};
      spec.schedule = request.schedule == "bfs"
                          ? sweep::SchedulePolicy::kBfs
                      : request.schedule == "random"
                          ? sweep::SchedulePolicy::kRandom
                          : sweep::SchedulePolicy::kDfs;
      if (request.policy == "opt") {
        spec.replacement = pebble::ReplacementPolicy::kBelady;
      }
      spec.remat = request.remat;
      spec.base_seed = request.seed;
      const std::vector<sweep::TaskCell> cells =
          sweep::enumerate_tasks(spec);
      FMM_CHECK_MSG(cells.size() == 1, "one-cell spec enumerated "
                                           << cells.size() << " cells");
      if (!sweep::cell_needs_cdag(cells[0], spec)) {
        // A dfs liveness peak is closed-form: nothing is built, loaded,
        // published or cached.  The census refuses what a build would,
        // here and not inside run_task, so a refusal reads as before.
        cdag::census(sweep::resolve_algorithm(request.algorithm), request.n);
        return sweep::task_row_json(sweep::run_task(cells[0], spec));
      }
      const std::shared_ptr<const cdag::Cdag> cdag =
          cdag_source_.get_cdag(request.algorithm, request.n);
      const sweep::TaskResult row =
          sweep::run_task(cells[0], *cdag, spec);
      return sweep::task_row_json(row);
    }
    case Op::kCdag: {
      // Every field is closed-form: the census answers without a build.
      const bilinear::BilinearAlgorithm algorithm =
          sweep::resolve_algorithm(request.algorithm);
      const cdag::CdagCensus counts = cdag::census(algorithm, request.n);
      std::ostringstream os;
      os << "{\"algorithm\": \"" << json_escape(algorithm.name()) << "\""
         << ", \"n\": " << request.n << ", \"vertices\": " << counts.vertices
         << ", \"edges\": " << counts.edges
         << ", \"memory_bytes\": " << counts.memory_bytes << ", \"roles\": {";
      bool first = true;
      for (const auto& [role, count] : counts.roles) {
        os << (first ? "" : ", ") << "\"" << cdag::role_name(role)
           << "\": " << count;
        first = false;
      }
      os << "}, \"subproblem_levels\": [";
      for (std::size_t i = 0; i < counts.levels.size(); ++i) {
        const auto [r, count] = counts.levels[i];
        os << (i == 0 ? "" : ", ") << "{\"r\": " << r
           << ", \"count\": " << count << "}";
      }
      os << "]}";
      return os.str();
    }
    default:
      FMM_CHECK_MSG(false,
                    "op " << op_name(request.op) << " is not computable");
  }
  return {};
}

std::string QueryService::compute_response(
    const Request& request, obs::RequestTelemetry& telemetry) {
  FMM_TRACE_SPAN("service.request", "service");
  // The frame collects cdag-build / simulate / single-flight-wait time
  // attributed by ContentCache and sweep::run_task on this thread.
  obs::PhaseFrame frame;
  const obs::ScopedPhaseFrame frame_guard(&frame);
  const Stopwatch run;
  std::string response;
  try {
    // Normalize the algorithm key first: a file:... request denoting
    // the same scheme as a registry name collapses onto that name, so
    // the cache key AND the response bytes are shared (the byte-identity
    // contract extends to file-loaded schemes).
    Request normalized = request;
    if (op_needs_cdag(request.op)) {
      normalized.algorithm = canonical_algorithm_key(request.algorithm);
    }
    std::int64_t lookup_ns = 0;
    std::string key;
    std::shared_ptr<const std::string> cached;
    {
      const ScopedNsAccumulator lookup_timer(&lookup_ns);
      key = ContentCache::result_key(canonical_request(normalized));
      cached = cache_.get_payload(key);
    }
    telemetry.phase(obs::Phase::kCacheLookup) = lookup_ns;
    if (cached) {
      telemetry.cache = obs::CacheVerdict::kHit;
      record_response(op_name(request.op), true);
      response = ok_response(request, *cached);
    } else {
      std::string result = compute_result(normalized);
      cache_.put_payload(key, result);
      telemetry.cache = frame.singleflight_wait_ns > 0
                            ? obs::CacheVerdict::kMissCoalesced
                            : obs::CacheVerdict::kMiss;
      record_response(op_name(request.op), true);
      response = ok_response(request, result);
    }
  } catch (const std::exception& e) {
    record_response(op_name(request.op), false);
    telemetry.ok = false;
    response = error_response(request.has_id, request.id,
                              std::string("internal_error: ") + e.what());
  }
  // Single-flight wait counts as cdag-build time from this request's
  // point of view: it spent that long waiting for the CDAG to exist.
  const std::int64_t cdag_ns =
      frame.cdag_build_ns + frame.singleflight_wait_ns;
  telemetry.phase(obs::Phase::kCdagBuild) = cdag_ns;
  telemetry.phase(obs::Phase::kSimulate) = frame.simulate_ns;
  const std::int64_t render_ns =
      run.nanoseconds() - telemetry.phase(obs::Phase::kCacheLookup) -
      cdag_ns - frame.simulate_ns;
  telemetry.phase(obs::Phase::kRender) = render_ns < 0 ? 0 : render_ns;
  return response;
}

std::optional<std::string> QueryService::admit(
    const std::string& line, Request* request, bool* is_shutdown,
    obs::RequestTelemetry& telemetry) {
  record_request();
  telemetry.bytes_in = static_cast<std::int64_t>(line.size());
  try {
    const ScopedNsAccumulator parse_timer(
        &telemetry.phase(obs::Phase::kParse));
    *request = parse_request(line);
  } catch (const ProtocolError& e) {
    record_response("invalid", false);
    telemetry.op = "invalid";
    telemetry.ok = false;
    return error_response(false, 0, e.what());
  }
  telemetry.op = op_name(request->op);
  telemetry.has_id = request->has_id;
  telemetry.id = request->id;
  return pre_compute_response(*request, is_shutdown, telemetry);
}

std::string QueryService::handle_line(const std::string& line) {
  obs::RequestTelemetry rec;
  const Stopwatch total;
  Request request;
  bool is_shutdown = false;
  std::string response;
  if (auto early = admit(line, &request, &is_shutdown, rec)) {
    response = std::move(*early);
  } else {
    response = compute_response(request, rec);
  }
  rec.bytes_out = static_cast<std::int64_t>(response.size());
  rec.total_ns = total.nanoseconds();
  telemetry_.record(rec);
  return response;
}

bool QueryService::serve(std::istream& in, std::ostream& out) {
  parallel::ThreadPool pool(config_.num_threads);
  return serve_session(in, out, pool);
}

bool QueryService::serve_session(std::istream& in, std::ostream& out,
                                 parallel::ThreadPool& pool) {
  FMM_TRACE_SPAN("service.serve", "service");

  // Ordered emission: every admitted line gets a sequence number and the
  // emitter writes responses strictly in that order.  The write callback
  // also finalizes each request's telemetry record (emit phase + bytes
  // out) AFTER the response bytes are rendered and written — telemetry
  // can never reach canonical response bytes.
  struct Pending {
    std::string response;
    obs::RequestTelemetry telemetry;
  };
  OrderedEmitter<Pending> emit([this, &out](Pending& pending) {
    {
      const ScopedNsAccumulator emit_timer(
          &pending.telemetry.phase(obs::Phase::kEmit));
      out << pending.response << '\n';
      out.flush();  // clients block on replies; never batch them
    }
    pending.telemetry.bytes_out =
        static_cast<std::int64_t>(pending.response.size()) + 1;
    pending.telemetry.total_ns += pending.telemetry.phase(obs::Phase::kEmit);
    telemetry_.record(pending.telemetry);
  });
  auto& queue_depth_gauge =
      obs::Registry::instance().gauge("service.queue_depth");
  std::size_t seq = 0;
  bool shutdown = false;
  std::string line;
  // A SIGTERM/SIGINT that sets stop_flag either interrupts the blocked
  // getline (EINTR, no SA_RESTART) or is caught by the explicit check —
  // both fall through to the same graceful drain as EOF/shutdown.
  while (!shutdown && !stop_requested() && std::getline(in, line)) {
    if (blank(line)) {
      continue;
    }
    const std::size_t index = seq++;
    obs::RequestTelemetry rec;
    const Stopwatch admitted;
    Request request;
    if (auto response = admit(line, &request, &shutdown, rec)) {
      rec.total_ns = admitted.nanoseconds();
      emit.push(index, {std::move(*response), rec});
      continue;
    }
    // Bounded admission: explicit backpressure beats an unbounded queue
    // silently eating memory.  The rejection is still emitted in order.
    if (in_flight_.load(std::memory_order_acquire) >=
        static_cast<std::int64_t>(config_.max_queue)) {
      {
        const std::scoped_lock lock(stats_mutex_);
        ++totals_.rejected_queue_full;
      }
      record_response(op_name(request.op), false);
      rec.ok = false;
      rec.total_ns = admitted.nanoseconds();
      emit.push(index, {error_response(request.has_id, request.id,
                                       "rejected: queue_full"),
                        rec});
      continue;
    }
    queue_depth_gauge.record_max(
        in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1);
    // emit is captured by reference: the session joins the pool
    // (wait_idle) before it goes out of scope.
    pool.submit([this, &emit, request, index, rec,
                 queued = Stopwatch()]() mutable {
      rec.phase(obs::Phase::kQueueWait) = queued.nanoseconds();
      const Stopwatch run;
      std::string response = compute_response(request, rec);
      rec.total_ns = rec.phase(obs::Phase::kParse) +
                     rec.phase(obs::Phase::kQueueWait) +
                     run.nanoseconds();
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      emit.push(index, {std::move(response), rec});
    });
  }

  // Graceful drain: no new admissions past this point; every admitted
  // request finishes on the pool and reaches the client before return.
  pool.wait_idle();
  emit.finish(seq);
  out.flush();

  auto& registry = obs::Registry::instance();
  const ServiceStats totals = stats();
  registry.gauge("service.requests").set(totals.requests);
  registry.gauge("service.responded").set(totals.responded);
  registry.gauge("service.rejected_queue_full")
      .set(totals.rejected_queue_full);
  registry.gauge("service.deadline_exceeded").set(totals.deadline_exceeded);
  registry.gauge("service.slow_requests")
      .set(static_cast<std::int64_t>(telemetry_.slow_count()));
  cache_.stats();  // refreshes the service.cache.* gauges
  return shutdown;
}

ServiceStats QueryService::stats() const {
  const std::scoped_lock lock(stats_mutex_);
  return totals_;
}

std::string QueryService::service_json() const {
  ServiceStats totals;
  std::map<std::string, OpStats> per_op;
  {
    const std::scoped_lock lock(stats_mutex_);
    totals = totals_;
    per_op = per_op_;
  }
  const CacheStats cache_stats = cache_.stats();
  std::ostringstream os;
  os << "{\n";
  os << "      \"schema\": \"" << kServiceSchema << "\",\n";
  os << "      \"schema_version\": " << kServiceSchemaVersion << ",\n";
  os << "      \"requests\": " << totals.requests << ",\n";
  os << "      \"responded\": " << totals.responded << ",\n";
  os << "      \"ok\": " << totals.ok << ",\n";
  os << "      \"errors\": " << totals.errors << ",\n";
  os << "      \"rejected_queue_full\": " << totals.rejected_queue_full
     << ",\n";
  os << "      \"deadline_exceeded\": " << totals.deadline_exceeded
     << ",\n";
  os << "      \"cache\": {\"hits\": " << cache_stats.hits
     << ", \"misses\": " << cache_stats.misses
     << ", \"evictions\": " << cache_stats.evictions
     << ", \"entries\": " << cache_stats.entries
     << ", \"bytes\": " << cache_stats.bytes << "},\n";
  os << "      \"ops\": [";
  bool first = true;
  for (const auto& [op, row] : per_op) {
    os << (first ? "\n" : ",\n") << "        {\"op\": \"" << op
       << "\", \"requests\": " << row.requests << ", \"ok\": " << row.ok
       << ", \"errors\": " << row.errors << "}";
    first = false;
  }
  os << (first ? "" : "\n      ") << "]\n";
  os << "    }";
  return os.str();
}

std::string QueryService::telemetry_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "      \"schema\": \"" << kTelemetrySchema << "\",\n";
  os << "      \"schema_version\": " << kTelemetrySchemaVersion << ",\n";
  os << "      \"slow_threshold_ms\": "
     << telemetry_.slow_threshold_ns() / 1'000'000 << ",\n";
  os << "      \"ring_capacity\": " << telemetry_.ring().capacity()
     << ",\n";
  os << "      \"recorded\": " << telemetry_.ring().recorded() << ",\n";
  os << "      \"dropped\": " << telemetry_.ring().dropped() << ",\n";
  os << "      \"slow_total\": " << telemetry_.slow_count() << ",\n";
  // Per-op latency distributions: the registry histograms this sink
  // fed, named service.latency.<op>.  Only non-zero buckets render.
  os << "      \"ops\": [";
  const std::string prefix = "service.latency.";
  bool first = true;
  for (const auto& [name, snap] :
       obs::Registry::instance().histograms()) {
    if (name.rfind(prefix, 0) != 0 || snap.count == 0) {
      continue;
    }
    os << (first ? "\n" : ",\n") << "        {\"op\": \""
       << name.substr(prefix.size()) << "\", \"count\": " << snap.count
       << ", \"sum_ns\": " << snap.sum << ", \"max_ns\": " << snap.max
       << ", \"p50_ns\": " << snap.percentile(0.50)
       << ", \"p90_ns\": " << snap.percentile(0.90)
       << ", \"p99_ns\": " << snap.percentile(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
      if (snap.bins[b] == 0) {
        continue;
      }
      os << (first_bucket ? "" : ", ") << "{\"le\": "
         << obs::HistogramSnapshot::bucket_upper(b)
         << ", \"count\": " << snap.bins[b] << "}";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n      ") << "],\n";
  // The most recent spans (bounded — reports should stay small; the
  // live `tail` op serves the full ring).
  const auto recent = telemetry_.ring().snapshot(32);
  os << "      \"recent\": [";
  for (std::size_t i = 0; i < recent.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "        ";
    render_telemetry_record(os, recent[i]);
  }
  os << (recent.empty() ? "" : "\n      ") << "]\n";
  os << "    }";
  return os.str();
}

void QueryService::attach_to(obs::RunReport& report) const {
  const ServiceStats totals = stats();
  report.set_result("service_requests", totals.requests);
  report.set_result("service_responded", totals.responded);
  report.set_result("service_ok", totals.ok);
  report.set_result("service_errors", totals.errors);
  report.set_result("service_slow_requests",
                    static_cast<std::int64_t>(telemetry_.slow_count()));
  report.add_raw_section("service", service_json());
  report.add_raw_section("telemetry", telemetry_json());
  if (store_ != nullptr) {
    report.set_param("snapshot_dir", store_->directory());
    report.add_raw_section("snapshot", store_->stats_json());
  }
}

#ifdef __unix__

namespace {

/// Minimal bidirectional streambuf over a connected socket fd.
class FdStreambuf final : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreambuf() override { sync(); }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    const ssize_t got = ::read(fd_, in_, sizeof(in_));
    if (got <= 0) {
      return traits_type::eof();
    }
    setg(in_, in_, in_ + got);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (flush_out() != 0) {
      return traits_type::eof();
    }
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_out(); }

 private:
  int flush_out() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t wrote = ::write(fd_, p, static_cast<std::size_t>(
                                                pptr() - p));
      if (wrote <= 0) {
        return -1;
      }
      p += wrote;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace

bool QueryService::serve_unix_socket(const std::string& path) {
  const int server = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FMM_CHECK_MSG(server >= 0, "service: cannot create unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(server);
    FMM_CHECK_MSG(false, "service: socket path too long: " << path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(server, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(server, 8) != 0) {
    ::close(server);
    FMM_CHECK_MSG(false, "service: cannot bind/listen on " << path);
  }
  FMM_LOG_INFO("service: listening on " << path);
  // One pool for every connection: a client that opens a connection per
  // request (`fmmio query --connect`) must not pay for starting threads.
  parallel::ThreadPool pool(config_.num_threads);
  bool shutdown = false;
  while (!shutdown && !stop_requested()) {
    // A signal arriving mid-accept fails it with EINTR (no SA_RESTART);
    // the loop condition then notices stop_flag and winds down.
    const int client = ::accept(server, nullptr, nullptr);
    if (client < 0) {
      break;
    }
    FdStreambuf buf(client);
    std::istream client_in(&buf);
    std::ostream client_out(&buf);
    shutdown = serve_session(client_in, client_out, pool);
    client_out.flush();
    ::close(client);
  }
  ::close(server);
  ::unlink(path.c_str());
  return shutdown;
}

#endif  // __unix__

}  // namespace fmm::service
