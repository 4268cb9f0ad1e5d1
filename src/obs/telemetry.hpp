// Per-request telemetry: spans, the recent-request ring, and the
// slow-query log for the serving tier.
//
// Each request that flows through service::QueryService produces one
// RequestTelemetry record — op, cache verdict, per-phase durations
// (queue-wait / parse / cache-lookup / cdag-build / simulate / render /
// emit), bytes in/out — recorded into a bounded lock-free ring of the
// last N requests plus, when the total exceeds a configurable
// threshold, a separate slow-query ring.  The `tail` service op
// serializes both rings; per-op latency histograms land in the metrics
// Registry for the `metrics` scrape op.
//
// None of this ever touches canonical response bytes: telemetry is
// recorded AFTER the response string is rendered, and the byte-identity
// tests pin that contract.
//
// Phase attribution across layers uses a thread-local PhaseFrame: the
// service installs a frame for the duration of a compute, and deeper
// layers (service::ContentCache, sweep::run_task) add their measured
// nanoseconds into whichever frame is current — or do nothing when none
// is (sweeps outside the service, benches, tests).  This keeps the
// lower layers free of any service dependency.
//
// The ring is a seqlock-style structure: every slot field is an atomic
// written/read with relaxed ordering (TSAN-clean, wait-free writers),
// bracketed by an acquire/release version counter so readers detect and
// skip slots that are mid-write.  Writers never block; a reader that
// races a writer drops that slot from the snapshot instead of returning
// a torn record.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fmm::obs {

/// How the cache treated a request.
enum class CacheVerdict : int {
  kUncacheable = 0,  // control op or per-request error path
  kMiss,             // computed fresh
  kMissCoalesced,    // missed, but waited on another thread's build
  kHit,              // replayed cached bytes
};

const char* cache_verdict_name(CacheVerdict verdict);

/// Request lifecycle phases, in pipeline order.
enum class Phase : int {
  kQueueWait = 0,  // admission to worker pickup
  kParse,          // NDJSON line -> validated Request
  kCacheLookup,    // result-key derivation + payload probe
  kCdagBuild,      // CDAG construction on a cache miss
  kSimulate,       // pebble-game / liveness / bound evaluation
  kRender,         // result + response JSON rendering
  kEmit,           // ordered write to the output stream
};
inline constexpr std::size_t kNumPhases = 7;

const char* phase_name(Phase phase);

/// One request's span record.  `op` points at a static string
/// (service::op_name or a literal), which keeps the record trivially
/// copyable — a requirement for the atomic ring slots.
struct RequestTelemetry {
  std::uint64_t seq = 0;  // assigned by TelemetrySink, monotonic
  bool has_id = false;
  std::int64_t id = 0;
  const char* op = "";
  bool ok = true;
  CacheVerdict cache = CacheVerdict::kUncacheable;
  std::int64_t bytes_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t total_ns = 0;
  std::array<std::int64_t, kNumPhases> phase_ns{};

  std::int64_t& phase(Phase p) {
    return phase_ns[static_cast<std::size_t>(p)];
  }
  std::int64_t phase(Phase p) const {
    return phase_ns[static_cast<std::size_t>(p)];
  }
};

/// Thread-local attribution scratchpad.  Lower layers add measured
/// time into the current frame; the service folds the frame into the
/// request's phase durations when the compute finishes.
struct PhaseFrame {
  std::int64_t cdag_build_ns = 0;
  std::int64_t simulate_ns = 0;
  std::int64_t singleflight_wait_ns = 0;
};

/// The calling thread's current frame, or nullptr outside a request.
PhaseFrame* current_phase_frame();

/// RAII installer: makes `frame` current for this thread, restoring
/// the previous frame (usually nullptr) on destruction.
class ScopedPhaseFrame {
 public:
  explicit ScopedPhaseFrame(PhaseFrame* frame);
  ScopedPhaseFrame(const ScopedPhaseFrame&) = delete;
  ScopedPhaseFrame& operator=(const ScopedPhaseFrame&) = delete;
  ~ScopedPhaseFrame();

 private:
  PhaseFrame* previous_;
};

/// Bounded ring of the last `capacity` records.  push() is wait-free
/// and never fails — old records are overwritten (and counted as
/// dropped).  snapshot() returns surviving records oldest-first,
/// skipping any slot caught mid-write.
class TelemetryRing {
 public:
  explicit TelemetryRing(std::size_t capacity);

  void push(const RequestTelemetry& rec);

  /// Up to `limit` most recent records (0 = all), oldest first.
  std::vector<RequestTelemetry> snapshot(std::size_t limit = 0) const;

  std::size_t capacity() const { return slots_.size(); }
  /// Total records ever pushed.
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  /// Records overwritten by wraparound.
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > slots_.size() ? n - slots_.size() : 0;
  }

 private:
  struct Slot {
    // Even = stable, odd = mid-write; acquire/release brackets the
    // relaxed payload so readers can detect torn slots.
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> id{0};
    std::atomic<const char*> op{""};
    std::atomic<std::int64_t> bytes_in{0};
    std::atomic<std::int64_t> bytes_out{0};
    std::atomic<std::int64_t> total_ns{0};
    std::array<std::atomic<std::int64_t>, kNumPhases> phase_ns{};
    std::atomic<int> flags{0};  // bit 0 has_id, bit 1 ok, bits 2+ verdict
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
};

struct TelemetryConfig {
  std::size_t ring_capacity = 256;
  std::size_t slow_capacity = 64;
  /// Requests with total_ns strictly above this land in the slow log.
  std::int64_t slow_threshold_ns = 100'000'000;  // 100 ms
};

/// Owns the recent ring + slow log, assigns sequence numbers, and
/// feeds per-op latency histograms / per-phase counters into the
/// metrics Registry.  One per QueryService.
class TelemetrySink {
 public:
  explicit TelemetrySink(TelemetryConfig config = {});

  /// Stamps rec.seq, records it into the ring (and slow log when over
  /// threshold), and updates Registry histograms/counters.
  void record(RequestTelemetry rec);

  const TelemetryRing& ring() const { return ring_; }
  const TelemetryRing& slow() const { return slow_; }
  std::int64_t slow_threshold_ns() const {
    return config_.slow_threshold_ns;
  }
  std::uint64_t slow_count() const {
    return slow_total_.load(std::memory_order_relaxed);
  }

 private:
  TelemetryConfig config_;
  TelemetryRing ring_;
  TelemetryRing slow_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> slow_total_{0};
};

}  // namespace fmm::obs
