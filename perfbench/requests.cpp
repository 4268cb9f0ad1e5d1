// Request workloads: one client holds one connection with 2 requests in
// flight (a closed loop) and replays a seeded cold session.
//
//   serve-cold       — against a fresh QueryService daemon (2 pool
//                      threads, default cache budget) on a Unix socket.
//                      CDAG builds dominate; protocol, cache and render
//                      show; the ~0.2 GB of CDAGs overflow the cache
//                      shards, so evictions force rebuilds.
//   fabric-snapshot  — the same session through fabric::Router over 2
//                      in-process workers (1 thread each) whose services
//                      mount one SnapshotStore populated in set-up:
//                      checksummed loads replace builds, so routing,
//                      transport and snapshot verification carry the time.
//
// Every session starts from a fresh daemon or router.  A run cycles
// through a few seeded orders of the same requests; a request must
// answer the same bytes wherever it sits.
#include <errno.h>
#include <malloc.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>
#include <streambuf>
#include <thread>

#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/math_util.hpp"
#include "fabric/router.hpp"
#include "fabric/transport.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "snapshot/store.hpp"
#include "stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace service = fmm::service;
namespace sweep = fmm::sweep;

namespace {

constexpr std::size_t kWindow = 2;
constexpr std::size_t kSessionsPerPopulation = 5;
constexpr std::uint64_t kPermutations = 16;
constexpr int kIoTimeoutS = 120;
constexpr const char* kLaderman = "file:schemes/laderman_333_23.json";
constexpr const char* kStrassenFile = "file:schemes/strassen_222_7.json";

[[noreturn]] void fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: fatal: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

// --- The seeded session --------------------------------------------------

struct Session {
  std::vector<std::string> lines;  // with ids 1..N
  /// Distinct algorithm keys (registry warm-up).
  std::vector<std::string> algorithms;
  /// Distinct (algorithm, n) CDAGs, one per scheme fingerprint and n.
  std::vector<std::pair<std::string, std::size_t>> cdags;
};

std::string request_json(const std::string& op, const std::string& algorithm,
                         std::size_t n, std::int64_t m,
                         const std::string& extra) {
  std::string line = "{\"op\": \"" + op + "\"";
  if (!algorithm.empty()) {
    line += ", \"algorithm\": \"" + algorithm + "\"";
  }
  line += ", \"n\": " + std::to_string(n);
  if (m > 0) {
    line += ", \"m\": " + std::to_string(m);
  }
  return line + extra + "}";
}

/// Session `permutation` of the run.  The request set is fixed except for
/// the random-schedule seeds, which come from the workload seed; the
/// (seed, permutation) pair fixes the order and which requests repeat.
/// A run cycles through kPermutations sessions, so its latency
/// percentiles average over many orders instead of hinging on one.
Session make_session(const Options& options, std::uint64_t permutation) {
  const std::vector<std::string> schemes = {
      "strassen",      "winograd",      "strassen-dual",
      "strassen-perm", "winograd-dual", "file:schemes/hk_style_222_7.json"};
  const std::vector<std::size_t> n_pow2 =
      options.smoke ? std::vector<std::size_t>{2, 4}
                    : std::vector<std::size_t>{16, 32, 64};
  const std::vector<std::size_t> n_pow3 =
      options.smoke ? std::vector<std::size_t>{3, 9}
                    : std::vector<std::size_t>{9, 27, 81};
  const std::size_t n_simulate = options.smoke ? 4 : 16;
  std::uint64_t order_state = mix(mix(options.seed ^ 0x0bde5ULL) + permutation);
  const auto next_order = [&order_state] {
    return order_state = mix(order_state);
  };

  std::vector<std::string> unique;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (const std::size_t n : n_pow2) {
      unique.push_back(request_json("cdag", schemes[s], n, 0, ""));
      unique.push_back(request_json("liveness", schemes[s], n, 0, ""));
    }
    for (const std::int64_t m : {16, 64, 256}) {
      for (const char* policy : {"lru", "opt"}) {
        unique.push_back(request_json(
            "simulate", schemes[s], n_simulate, m,
            std::string(", \"policy\": \"") + policy + "\""));
      }
    }
    const std::uint64_t schedule_seed = mix(options.seed * 8 + s) >> 12;
    unique.push_back(request_json(
        "simulate", schemes[s], n_simulate, 64,
        ", \"schedule\": \"random\", \"seed\": " +
            std::to_string(schedule_seed)));
  }
  for (const std::size_t n : n_pow3) {
    unique.push_back(request_json("cdag", kLaderman, n, 0, ""));
    unique.push_back(request_json("liveness", kLaderman, n, 0, ""));
  }
  unique.push_back(request_json("bound", "", 4096, 256, ", \"p\": 49"));
  unique.push_back(request_json("bound", "", 1024, 64, ", \"p\": 1"));
  unique.push_back(request_json("bound", "", 65536, 1024, ", \"p\": 343"));
  unique.push_back(
      request_json("optimal", "strassen", 2, 12, ", \"remat\": false"));
  unique.push_back(
      request_json("optimal", "strassen", 2, 16, ", \"remat\": true"));

  const auto shuffle = [&next_order](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[next_order() % i]);
    }
  };
  // Request order: a seeded shuffle of the unique requests.
  shuffle(unique);
  // Repeats: half of the unique requests (seeded) come back later, at
  // least two requests after their original, so with 2 in flight the
  // original has been answered and cached when the repeat is sent.  Half
  // of the Strassen repeats spell the scheme as its file.
  std::vector<std::size_t> picks(unique.size());
  for (std::size_t u = 0; u < picks.size(); ++u) {
    picks[u] = u;
  }
  shuffle(picks);
  picks.resize(unique.size() / 2);
  std::vector<std::string> order = unique;
  for (const std::size_t u : picks) {
    std::string repeat = unique[u];
    const std::string key = "\"algorithm\": \"strassen\"";
    if (next_order() % 2 == 0 && repeat.find(key) != std::string::npos) {
      repeat.replace(repeat.find(key), key.size(),
                     std::string("\"algorithm\": \"") + kStrassenFile + "\"");
    }
    const std::size_t original = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), unique[u]) - order.begin());
    const std::size_t lo = original + 2;
    if (lo > order.size()) {
      continue;  // the original is last: nothing can follow it far enough
    }
    const std::size_t at = lo + next_order() % (order.size() - lo + 1);
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(at), repeat);
  }

  Session session;
  std::set<std::pair<std::string, std::size_t>> seen_cdags;
  std::set<std::string> seen_algorithms;
  for (std::size_t i = 0; i < order.size(); ++i) {
    session.lines.push_back("{\"id\": " + std::to_string(i + 1) + ", " +
                            order[i].substr(1));
    const service::Request request = service::parse_request(order[i]);
    if (!service::op_needs_cdag(request.op)) {
      continue;
    }
    if (seen_algorithms.insert(request.algorithm).second) {
      session.algorithms.push_back(request.algorithm);
    }
    const std::string fingerprint =
        sweep::resolve_traits(request.algorithm).fingerprint;
    if (seen_cdags.insert({fingerprint, request.n}).second) {
      session.cdags.emplace_back(request.algorithm, request.n);
    }
  }
  return session;
}

std::string strip_ids(const std::string& text) {
  static const std::regex id_pattern("\"id\": (null|-?[0-9]+)");
  return std::regex_replace(text, id_pattern, "\"id\": X");
}

// --- Transport plumbing --------------------------------------------------

/// Blocking line I/O on a connected stream socket (the client side).
class LineConn {
 public:
  explicit LineConn(int fd) : fd_(fd) {
    timeval timeout{kIoTimeoutS, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~LineConn() { ::close(fd_); }
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send(const std::string& line) {
    const std::string bytes = line + "\n";
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t wrote =
          ::write(fd_, bytes.data() + done, bytes.size() - done);
      if (wrote < 0 && errno == EINTR) {
        continue;
      }
      if (wrote <= 0) {
        fatal("socket write failed: " + std::string(std::strerror(errno)));
      }
      done += static_cast<std::size_t>(wrote);
    }
  }

  std::string recv() {
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        fatal("no response within " + std::to_string(kIoTimeoutS) +
              " s or connection closed");
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// streambuf over one end of a socketpair: the router's stdin/stdout.
class FdBuf final : public std::streambuf {
 public:
  explicit FdBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdBuf() override { sync(); }

 protected:
  int_type underflow() override {
    ssize_t got = 0;
    do {
      got = ::read(fd_, in_, sizeof(in_));
    } while (got < 0 && errno == EINTR);
    if (got <= 0) {
      return traits_type::eof();
    }
    setg(in_, in_, in_ + got);
    return traits_type::to_int_type(*gptr());
  }
  int_type overflow(int_type ch) override {
    if (sync() != 0) {
      return traits_type::eof();
    }
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t wrote =
          ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (wrote < 0 && errno == EINTR) {
        continue;
      }
      if (wrote <= 0) {
        return -1;
      }
      p += wrote;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[4096];
  char out_[4096];
};

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    fatal("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      fatal("cannot create a unix socket");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (now_s() > deadline) {
      fatal("daemon never listened on " + path);
    }
    std::this_thread::yield();
  }
}

// --- One session ---------------------------------------------------------

struct SessionRun {
  std::vector<std::string> responses;
  std::vector<double> latency_ms;
  double timed_s = 0.0;
  int max_in_flight = 0;
};

/// Closed loop with kWindow requests in flight.  Latency runs from the
/// send to the arrival of the response, so it includes the head-of-line
/// wait of ordered emission.
SessionRun drive(LineConn& conn, const std::vector<std::string>& lines) {
  SessionRun run;
  std::vector<double> sent_at(lines.size());
  std::size_t sent = 0;
  const double start = now_s();
  while (run.responses.size() < lines.size()) {
    while (sent < lines.size() && sent - run.responses.size() < kWindow) {
      sent_at[sent] = now_s();
      conn.send(lines[sent++]);
      run.max_in_flight = std::max(
          run.max_in_flight, static_cast<int>(sent - run.responses.size()));
    }
    run.responses.push_back(conn.recv());
    run.latency_ms.push_back((now_s() - sent_at[run.responses.size() - 1]) *
                             1e3);
  }
  run.timed_s = now_s() - start;
  return run;
}

/// Checks each response of a session; returns how many failed.
std::int64_t check_responses(const std::vector<std::string>& lines,
                             const std::vector<std::string>& responses,
                             std::string* problem) {
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string expect =
        "{\"id\": " + std::to_string(i + 1) + ", \"ok\": true,";
    if (responses[i].compare(0, expect.size(), expect) != 0) {
      ++bad;
      *problem = "request " + lines[i] + " answered " +
                 responses[i].substr(0, 200);
    }
  }
  return bad;
}

void shutdown_session(LineConn& conn) {
  conn.send("{\"op\": \"shutdown\"}");
  conn.recv();
}

// --- The decomposed request (traced replay) -------------------------------
//
// QueryService exposes no call for its algorithm-key normalisation or its
// cdag and bound renderers, so the replay carries copies of them
// (write_double through render_bound).  They rebuild the response bytes
// only: the replay runs them in no child span, and the service's render
// time comes from its own telemetry (service_phase_ns).  A change to
// those response bytes or to the normalisation must be mirrored here.

void write_double(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  os << buf;
}

/// The service's algorithm-key normalization: a file: key naming the same
/// scheme as a registry name collapses onto that name.
std::string canonical_algorithm_key(const std::string& key) {
  const fmm::bilinear::SchemeTraits traits = sweep::resolve_traits(key);
  if (key == traits.name) {
    return key;
  }
  try {
    if (sweep::resolve_traits(traits.name).fingerprint == traits.fingerprint) {
      return traits.name;
    }
  } catch (const std::exception&) {
  }
  return key;
}

std::string render_cdag(const fmm::cdag::Cdag& cdag) {
  std::ostringstream os;
  os << "{\"algorithm\": \"" << cdag.algorithm_name << "\""
     << ", \"n\": " << cdag.n << ", \"vertices\": " << cdag.graph.num_vertices()
     << ", \"edges\": " << cdag.graph.num_edges()
     << ", \"memory_bytes\": " << service::cdag_memory_bytes(cdag)
     << ", \"roles\": {";
  bool first = true;
  for (const auto& [role, count] : cdag.role_histogram()) {
    os << (first ? "" : ", ") << "\"" << fmm::cdag::role_name(role)
       << "\": " << count;
    first = false;
  }
  os << "}, \"subproblem_levels\": [";
  for (std::size_t i = 0; i < cdag.subproblem_levels.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"r\": " << cdag.subproblem_levels[i].r
       << ", \"count\": " << cdag.subproblem_levels[i].count << "}";
  }
  os << "]}";
  return os.str();
}

std::string render_bound(const service::Request& request) {
  namespace bounds = fmm::bounds;
  const bounds::MmParams params{static_cast<double>(request.n),
                                static_cast<double>(request.m),
                                static_cast<double>(request.p)};
  std::ostringstream os;
  os << "{\"classic_memory_dependent\": ";
  write_double(os, bounds::classic_memory_dependent(params));
  os << ", \"classic_memory_independent\": ";
  write_double(os, bounds::classic_memory_independent(params));
  os << ", \"fast_memory_dependent\": ";
  write_double(os, bounds::fast_memory_dependent(params, fmm::kOmega0));
  os << ", \"fast_memory_independent\": ";
  write_double(os, bounds::fast_memory_independent(params, fmm::kOmega0));
  os << ", \"fast_parallel\": ";
  write_double(os, bounds::fast_parallel_bound(params, fmm::kOmega0));
  if (request.p > 1) {
    os << ", \"crossover_p\": ";
    write_double(os, bounds::parallel_crossover_p(
                         static_cast<double>(request.n),
                         static_cast<double>(request.m), fmm::kOmega0));
  }
  os << "}";
  return os.str();
}

/// The one-cell sweep spec a simulate/liveness/optimal request runs.
sweep::SweepSpec one_cell_spec(const service::Request& request) {
  sweep::SweepSpec spec;
  spec.algorithms = {request.algorithm};
  spec.n_grid = {request.n};
  spec.m_grid = {request.m};
  switch (request.op) {
    case service::Op::kLiveness: spec.kinds = {sweep::TaskKind::kLiveness}; break;
    case service::Op::kOptimal: spec.kinds = {sweep::TaskKind::kOptimal}; break;
    default: spec.kinds = {sweep::TaskKind::kSimulate}; break;
  }
  if (request.op != service::Op::kOptimal) {
    spec.schedule = request.schedule == "bfs"      ? sweep::SchedulePolicy::kBfs
                    : request.schedule == "random" ? sweep::SchedulePolicy::kRandom
                                                   : sweep::SchedulePolicy::kDfs;
    if (request.policy == "opt") {
      spec.replacement = fmm::pebble::ReplacementPolicy::kBelady;
    }
  }
  spec.remat = request.remat;
  spec.base_seed = request.seed;
  return spec;
}

/// One request as the public calls QueryService::handle_line makes:
/// parse → result cache → CDAG through the content cache (snapshot
/// store, then build) → pebble call → render.  Normalisation and
/// rendering run in no child span: their time is service.request self
/// time.
std::string replay_request(SpanRecorder& recorder, const std::string& line,
                           service::ContentCache& cache,
                           fmm::snapshot::SnapshotStore* store, Work& work) {
  service::Request request;
  {
    const SpanRecorder::Scope span(recorder, "service.parse");
    request = service::parse_request(line);
  }
  service::Request normalized = request;
  std::string fingerprint;
  if (service::op_needs_cdag(request.op)) {
    normalized.algorithm = canonical_algorithm_key(request.algorithm);
    const SpanRecorder::Scope span(recorder, "bilinear.resolve");
    fingerprint = sweep::resolve_traits(normalized.algorithm).fingerprint;
  }
  std::string key;
  std::shared_ptr<const std::string> cached;
  {
    const SpanRecorder::Scope span(recorder, "service.cache");
    key = service::ContentCache::result_key(
        service::canonical_request(normalized));
    cached = cache.get_payload(key);
  }
  if (cached) {
    return service::ok_response(request, *cached);
  }
  std::shared_ptr<const fmm::cdag::Cdag> cdag;
  if (service::op_needs_cdag(request.op)) {
    const SpanRecorder::Scope span(recorder, "cdag.get");
    cdag = cache.get_or_build_cdag(
        service::ContentCache::cdag_key("scheme:" + fingerprint, normalized.n),
        [&]() -> fmm::cdag::Cdag {
          if (store != nullptr) {
            const SpanRecorder::Scope load(recorder, "snapshot.load");
            if (auto loaded = store->try_load(fingerprint, normalized.n)) {
              work.snapshot_bytes_loaded += static_cast<double>(
                  fs::file_size(store->path_for(fingerprint, normalized.n)));
              return std::move(*loaded);
            }
          }
          const fmm::bilinear::BilinearAlgorithm algorithm = [&] {
            const SpanRecorder::Scope resolve(recorder, "bilinear.resolve");
            return sweep::resolve_algorithm(normalized.algorithm);
          }();
          fmm::cdag::Cdag built;
          {
            const SpanRecorder::Scope build(recorder, "cdag.build");
            built = fmm::cdag::build_cdag(algorithm, normalized.n);
          }
          work.vertices_built += static_cast<double>(built.graph.num_vertices());
          if (store != nullptr) {
            const SpanRecorder::Scope publish(recorder, "snapshot.publish");
            store->publish(fingerprint, normalized.n, built);
          }
          return built;
        });
  }
  std::string result;
  if (request.op == service::Op::kCdag) {
    result = render_cdag(*cdag);
  } else if (request.op == service::Op::kBound) {
    result = render_bound(request);
  } else {
    const sweep::SweepSpec spec = one_cell_spec(normalized);
    result = sweep::task_row_json(replay_cell(
        recorder, sweep::enumerate_tasks(spec).at(0), *cdag, spec, work));
  }
  {
    const SpanRecorder::Scope span(recorder, "service.cache");
    cache.put_payload(key, result);
  }
  return service::ok_response(request, result);
}

/// QueryService's own time in one request phase, summed over every
/// request so far: the registry counter service.phase.<phase>.ns, which
/// handle_line's telemetry adds to with the tracer off.
std::int64_t service_phase_ns(const char* phase) {
  return fmm::obs::Registry::instance()
      .counter(std::string("service.phase.") + phase + ".ns")
      .value();
}

/// The phases handle_line splits its time into: its children.
std::int64_t handle_line_phases_ns() {
  std::int64_t total = 0;
  for (const char* phase :
       {"parse", "cache_lookup", "cdag_build", "simulate", "render"}) {
    total += service_phase_ns(phase);
  }
  return total;
}

/// Sends `line` down a worker channel and returns the answer.  The
/// worker's emitter records the request's telemetry just after it sends
/// the answer; waiting for that record keeps it out of the next
/// handle_line's phase counters.
std::string round_trip(fmm::fabric::Channel& channel, const std::string& line,
                       double* rtt_ms) {
  const fmm::obs::Counter& records =
      fmm::obs::Registry::instance().counter("service.telemetry.records");
  const std::int64_t recorded = records.value();
  std::string response;
  const double t0 = now_s();
  if (!channel.send_line(line) || !channel.recv_line(&response)) {
    fatal("worker channel broke");
  }
  if (rtt_ms != nullptr) {
    *rtt_ms = (now_s() - t0) * 1e3;
  }
  while (records.value() == recorded) {
    std::this_thread::yield();
  }
  return response;
}

/// Builds and publishes every CDAG of the session into a fresh store.
void populate_store(const Session& session, const std::string& dir,
                    SpanRecorder* recorder, Work* work) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fmm::snapshot::SnapshotStore store({dir, 0, fmm::snapshot::Verify::kFull});
  for (const auto& [algorithm_key, n] : session.cdags) {
    std::optional<SpanRecorder::Scope> span;
    if (recorder != nullptr) {
      span.emplace(*recorder, "bilinear.resolve");
    }
    const std::string fingerprint =
        sweep::resolve_traits(algorithm_key).fingerprint;
    const fmm::bilinear::BilinearAlgorithm algorithm =
        sweep::resolve_algorithm(algorithm_key);
    span.reset();
    if (recorder != nullptr) {
      span.emplace(*recorder, "cdag.build");
    }
    const fmm::cdag::Cdag cdag = fmm::cdag::build_cdag(algorithm, n);
    span.reset();
    if (work != nullptr) {
      work->vertices_built += static_cast<double>(cdag.graph.num_vertices());
    }
    if (recorder != nullptr) {
      span.emplace(*recorder, "snapshot.publish");
    }
    store.publish(fingerprint, n, cdag);
  }
}

/// A session line as the result cache sees it: id dropped and the file
/// spelling of Strassen folded onto the catalog name.
std::string request_body(const std::string& line) {
  std::string body = line.substr(line.find(", ") + 2);
  const std::string file_key = std::string("\"") + kStrassenFile + "\"";
  if (const auto at = body.find(file_key); at != std::string::npos) {
    body.replace(at, file_key.size(), "\"strassen\"");
  }
  return body;
}

}  // namespace

void warm_registry(const std::vector<std::string>& algorithms) {
  for (const std::string& key : algorithms) {
    if (fmm::bilinear::SchemeRegistry::is_file_key(key)) {
      fmm::bilinear::traits_of(
          fmm::bilinear::load_scheme_file(key.substr(std::strlen("file:"))));
    }
    sweep::resolve_traits(key);
  }
}

std::string check_session_shape(const Options& options) {
  for (std::uint64_t p = 0; p < kPermutations; ++p) {
    const Session session = make_session(options, p);
    std::vector<std::string> bodies;
    std::size_t repeats = 0;
    for (std::size_t i = 0; i < session.lines.size(); ++i) {
      const std::string id = "{\"id\": " + std::to_string(i + 1) + ", ";
      if (session.lines[i].compare(0, id.size(), id) != 0) {
        return "line " + std::to_string(i) + " does not carry id " +
               std::to_string(i + 1);
      }
      const std::string body = request_body(session.lines[i]);
      const auto original = std::find(bodies.begin(), bodies.end(), body);
      if (original != bodies.end()) {
        ++repeats;
        if (bodies.size() -
                static_cast<std::size_t>(original - bodies.begin()) <
            2) {
          return "request " + std::to_string(i + 1) +
                 " repeats a request fewer than two requests before it";
        }
      }
      bodies.push_back(body);
    }
    const double share = static_cast<double>(repeats) /
                         static_cast<double>(session.lines.size());
    if (share < 0.25 || share > 0.4) {
      return "repeat share " + std::to_string(share) + " is not about a third";
    }
  }
  return "";
}

RunResult run_requests(const Options& options) {
  const bool fabric = options.workload == "fabric-snapshot";
  RunResult result;
  E2eSamples samples;
  std::vector<Session> sessions;
  std::vector<std::string> algorithms;  // every spelling, for warm-up
  for (std::uint64_t p = 0; p < (options.smoke ? 1 : kPermutations); ++p) {
    sessions.push_back(make_session(options, p));
    for (const std::string& algorithm : sessions.back().algorithms) {
      if (std::find(algorithms.begin(), algorithms.end(), algorithm) ==
          algorithms.end()) {
        algorithms.push_back(algorithm);
      }
    }
  }
  // Every permutation holds the same requests, hence the same CDAGs.
  const Session& session = sessions[0];
  const std::size_t n_requests = session.lines.size();
  const std::string store_dir = options.work_dir + "/store";
  const std::string socket_path = options.work_dir + "/serve.sock";

  service::ServiceConfig serve_config;
  serve_config.num_threads = 2;
  service::ServiceConfig worker_config;
  worker_config.num_threads = 1;
  worker_config.snapshot_dir = store_dir;
  fmm::fabric::FabricConfig fabric_config;
  fabric_config.num_workers = 2;

  // End-to-end pass: fresh daemon (or router) per session, sessions
  // (cycling through the permutations) until the time is up.  The fabric
  // repopulates its store from scratch every kSessionsPerPopulation
  // sessions, so the population samples spread over the run.
  std::vector<double> populate_s;
  std::vector<std::vector<double>> latency_by_request(n_requests);
  std::vector<std::vector<std::string>> first_responses(sessions.size());
  std::map<std::string, std::string> answer_of;  // body -> id-free response
  std::vector<double> start_s;
  std::int64_t requeues = 0;
  std::vector<fmm::fabric::WorkerTally> tallies;
  const double start = now_s();
  std::size_t session_index = 0;
  std::string session_log = "session walls (s):";
  auto rss = std::make_unique<RssSampler>();
  do {
    if (fabric && session_index % kSessionsPerPopulation == 0) {
      const double t0 = now_s();
      populate_store(session, store_dir, nullptr, nullptr);
      populate_s.push_back(now_s() - t0);
    }
    const std::size_t permutation = session_index++ % sessions.size();
    const std::vector<std::string>& lines = sessions[permutation].lines;
    SessionRun run;
    if (fabric) {
      const double t0 = now_s();
      fmm::fabric::InProcessTransport transport(worker_config);
      fmm::fabric::Router router(fabric_config, transport);
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        fatal("socketpair failed");
      }
      std::thread serving([&router, fd = fds[1]] {
        FdBuf buf(fd);
        std::istream in(&buf);
        std::ostream out(&buf);
        router.serve(in, out);
      });
      {
        LineConn conn(fds[0]);
        conn.send("{\"op\": \"ping\"}");  // answered once workers are up
        conn.recv();
        start_s.push_back(now_s() - t0);
        run = drive(conn, lines);
        shutdown_session(conn);
      }
      serving.join();
      ::close(fds[1]);
      requeues += router.stats().requeues;
      tallies = router.worker_tallies();
    } else {
      const double t0 = now_s();
      auto daemon = std::make_unique<service::QueryService>(serve_config);
      warm_registry(algorithms);
      std::thread serving(
          [&daemon, &socket_path] { daemon->serve_unix_socket(socket_path); });
      {
        LineConn conn(connect_unix(socket_path, 30.0));
        start_s.push_back(now_s() - t0);
        run = drive(conn, lines);
        shutdown_session(conn);
      }
      serving.join();
    }
    // Hand the session's freed heap back to the kernel, so the next
    // session starts from the resident set a fresh process would have.
    ::malloc_trim(0);
    samples.peak_rss_mb.push_back(rss->take_peak_mb());
    const auto count = static_cast<std::int64_t>(lines.size());
    char wall[32];
    std::snprintf(wall, sizeof(wall), " %.3f", run.timed_s);
    session_log += wall;
    result.attempted += count;
    samples.ops += count;
    samples.timed_s += run.timed_s;
    samples.ops_per_s.push_back(static_cast<double>(count) / run.timed_s);
    samples.max_in_flight = std::max(samples.max_in_flight, run.max_in_flight);
    samples.latency_ms.insert(samples.latency_ms.end(), run.latency_ms.begin(),
                              run.latency_ms.end());
    if (permutation == 0) {
      for (std::size_t i = 0; i < n_requests; ++i) {
        latency_by_request[i].push_back(run.latency_ms[i]);
      }
    }
    std::string problem;
    if (const std::int64_t bad =
            check_responses(lines, run.responses, &problem)) {
      result.fail(bad, problem);
    }
    // The same request must answer the same bytes in every session,
    // whatever its position, cache state or spelling.
    std::int64_t differing = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string stripped = strip_ids(run.responses[i]);
      const auto [it, fresh] =
          answer_of.emplace(request_body(lines[i]), stripped);
      if (!fresh && it->second != stripped) {
        ++differing;
        problem = "request " + lines[i] + " answered differently: " +
                  stripped.substr(0, 200);
      }
    }
    if (differing > 0) {
      result.fail(differing, problem);
    }
    if (first_responses[permutation].empty()) {
      first_responses[permutation] = run.responses;
    } else if (run.responses != first_responses[permutation]) {
      result.fail(count, "session output differs from the same "
                         "permutation's first session");
    }
  } while (!options.smoke && now_s() - start < options.seconds);
  rss.reset();
  if (samples.max_in_flight > static_cast<int>(kWindow)) {
    result.fail(result.attempted, "in-flight window exceeded 2");
  }
  result.notes.push_back(session_log);

  std::string transcript;
  for (const std::string& response : first_responses[0]) {
    transcript += response + "\n";
  }
  const std::string got = digest(strip_ids(transcript));
  if (options.seed == kDigestSeed && !options.smoke &&
      got != expected_digest("session")) {
    result.fail(static_cast<std::int64_t>(n_requests),
                "session digest " + got + " != carried " +
                    expected_digest("session"));
  }
  if (fabric) {
    // At any seed, the fabric must answer what a plain serve-cold daemon
    // answers: permutation 0 once more through a fresh one (untimed).
    service::QueryService plain(serve_config);
    std::int64_t differing = 0;
    std::string problem;
    for (std::size_t i = 0; i < n_requests; ++i) {
      const std::string answer = plain.handle_line(session.lines[i]);
      if (answer != first_responses[0][i]) {
        ++differing;
        problem = "request " + session.lines[i] + ": fabric answered " +
                  first_responses[0][i].substr(0, 200) +
                  ", a plain daemon " + answer.substr(0, 200);
      }
    }
    if (differing > 0) {
      result.fail(differing, problem);
    }
  }
  samples.setup_s = start_s;
  if (fabric) {
    // A session's set-up: a store population (their median) plus its own
    // router start.
    const double populate = median(populate_s);
    for (double& s : samples.setup_s) {
      s += populate;
    }
  }
  finish_e2e(samples, "request", result);
  if (!options.trace) {
    return result;
  }
  // Traced replay of permutation 0.  Every request runs back to back
  // through each pass, and every pass keeps its own state, fresh at the
  // start: handle_line on fresh QueryServices (one per worker on the
  // fabric); on the fabric, the channels of fresh in-process workers
  // routed by pick_worker; then the traced public calls on fresh caches
  // (the fabric's store is populated by the traced set-up).
  const std::vector<std::string>& reference = first_responses[0];
  const std::vector<bool> alive(fabric_config.num_workers, true);
  const std::size_t workers = fabric ? fabric_config.num_workers : 1;
  std::vector<std::unique_ptr<service::QueryService>> services;
  for (std::size_t k = 0; k < workers; ++k) {
    services.push_back(std::make_unique<service::QueryService>(
        fabric ? worker_config : serve_config));
  }
  fmm::fabric::InProcessTransport transport(worker_config);
  std::vector<std::unique_ptr<fmm::fabric::Channel>> channels;
  for (std::size_t k = 0; fabric && k < workers; ++k) {
    channels.push_back(transport.connect(k));
    round_trip(*channels[k], "{\"op\": \"ping\"}", nullptr);
  }

  SpanRecorder recorder;
  Work work;
  const std::string traced_store = options.work_dir + "/store-traced";
  {
    const SpanRecorder::Segment segment(recorder);
    if (fabric) {
      populate_store(session, traced_store, &recorder, &work);
    } else {
      const SpanRecorder::Scope span(recorder, "bilinear.resolve");
      warm_registry(algorithms);
    }
  }
  std::vector<std::unique_ptr<service::ContentCache>> caches;
  std::vector<std::unique_ptr<fmm::snapshot::SnapshotStore>> stores;
  for (std::size_t k = 0; k < workers; ++k) {
    caches.push_back(std::make_unique<service::ContentCache>(
        service::CacheConfig{}));
    if (fabric) {
      stores.push_back(std::make_unique<fmm::snapshot::SnapshotStore>(
          fmm::snapshot::SnapshotStoreConfig{traced_store, 0,
                                             fmm::snapshot::Verify::kFull}));
    }
  }
  const std::int64_t setup_ns = recorder.wall_ns();
  std::vector<double> handle_ms(n_requests);
  std::vector<double> rtt_ms(n_requests);
  // handle_line's own split of its time (its phase counters grow only
  // inside it here): the render phase, and the rest of its wall.
  double render_ms = 0.0;
  double self_ms = 0.0;
  const auto expect = [&](std::size_t i, const std::string& got,
                          const char* pass) {
    if (got != reference[i]) {
      result.fail(1, std::string(pass) + " answered " + got.substr(0, 200) +
                         " where the session answered " +
                         reference[i].substr(0, 200));
    }
  };
  for (std::size_t i = 0; i < n_requests; ++i) {
    const std::string& line = session.lines[i];
    const std::size_t target =
        fabric ? fmm::fabric::Router::pick_worker(
                     service::canonical_request(service::parse_request(line)),
                     alive)
               : 0;
    const std::int64_t render_before = service_phase_ns("render");
    const std::int64_t phases_before = handle_line_phases_ns();
    const double t0 = now_s();
    const std::string handled = services[target]->handle_line(line);
    handle_ms[i] = (now_s() - t0) * 1e3;
    render_ms +=
        static_cast<double>(service_phase_ns("render") - render_before) * 1e-6;
    self_ms += handle_ms[i] -
               static_cast<double>(handle_line_phases_ns() - phases_before) *
                   1e-6;
    expect(i, handled, "handle_line");
    if (fabric) {
      expect(i, round_trip(*channels[target], line, &rtt_ms[i]),
             "worker channel");
    }
    const auto counters = counter_values();
    std::string replayed;
    {
      const SpanRecorder::Segment segment(recorder);
      recorder.set_op(static_cast<std::int64_t>(i));
      std::size_t k = 0;
      if (fabric) {
        const SpanRecorder::Scope span(recorder, "fabric.route");
        k = fmm::fabric::Router::pick_worker(
            service::canonical_request(service::parse_request(line)), alive);
      }
      const SpanRecorder::Scope span(recorder, "service.request");
      replayed = replay_request(recorder, line, *caches[k],
                                fabric ? stores[k].get() : nullptr, work);
    }
    add_counter_growth(counters, work);
    expect(i, replayed, "traced replay");
  }
  recorder.set_op(-1);
  for (auto& channel : channels) {
    channel->shutdown();
  }
  const double traced_ms =
      static_cast<double>(recorder.wall_ns() - setup_ns) * 1e-6;
  add_layer_metrics(recorder, work, result.layers);

  // Paired metrics: the same request across the passes above and the
  // end-to-end sessions (its latency is the median over sessions).
  double handle_total = 0.0;
  double transport_ms = 0.0;
  double rtt_total = 0.0;
  double router_ms = 0.0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    const double latency = median(latency_by_request[i]);
    handle_total += handle_ms[i];
    if (fabric) {
      rtt_total += rtt_ms[i];
      router_ms += latency - rtt_ms[i];
      transport_ms += rtt_ms[i] - handle_ms[i];
    } else {
      transport_ms += latency - handle_ms[i];
    }
  }
  result.layers["service.render_ms"] = render_ms;
  result.layers["service.self_ms"] = self_ms;
  result.layers["service.transport_ms"] = transport_ms;
  result.layers["fabric.rtt_ms"] = rtt_total;
  result.layers["fabric.router_ms"] = router_ms;
  if (fabric && !tallies.empty()) {
    double max_dispatched = 0.0;
    double sum_dispatched = 0.0;
    std::string dispatched = "dispatched per worker (last session):";
    for (const auto& tally : tallies) {
      max_dispatched =
          std::max(max_dispatched, static_cast<double>(tally.dispatched));
      sum_dispatched += static_cast<double>(tally.dispatched);
      dispatched += " " + std::to_string(tally.dispatched);
    }
    result.notes.push_back(dispatched);
    result.layers["fabric.worker_skew"] =
        sum_dispatched > 0.0
            ? max_dispatched /
                  (sum_dispatched / static_cast<double>(tallies.size()))
            : 0.0;
  }
  result.layers["fabric.requeues"] = static_cast<double>(requeues);
  result.layers["trace.overhead_frac"] =
      handle_total > 0.0 ? (traced_ms - handle_total) / handle_total : 0.0;
  char line[160];
  std::snprintf(line, sizeof(line),
                "replay passes: handle_line %.1f ms, worker channels %.1f ms, "
                "traced %.1f ms",
                handle_total, rtt_total, traced_ms);
  result.notes.emplace_back(line);
  recorder.write_jsonl(options.spans_path);
  return result;
}

}  // namespace perfbench
