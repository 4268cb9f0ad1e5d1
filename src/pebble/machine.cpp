#include "pebble/machine.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/max_bitset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::pebble {

namespace {

using graph::VertexId;

/// Belady key of a value never used again; also the cap on reference-
/// string positions (Belady) and on schedule steps (LRU).
constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

/// How many steps ahead each stage of the LRU step loop prefetches: the
/// in-offsets of step i + 3K, the in-edges of step i + 2K, and the
/// per-vertex state of step i + K's operands and result.
constexpr std::size_t kPrefetchSteps = 4;

/// LRU prefetches only on CDAGs of at least this many vertices, where
/// the CSR outgrows the caches.  Measured on Strassen, LRU at M = 64,
/// prefetch on against off (Xeon VM, 2 MB of L2 per core, medians of 6
/// alternating runs): n = 16 (15,783 vertices, 0.4 MB of CSR) loses 15%
/// on dfs and 17% on random; n = 32 (113,553, 2.7 MB) breaks even, -6%
/// on dfs to +8% on random; n = 64 (807,159, 19 MB) gains 28% on bfs
/// and 2.0x on random for -4% on dfs.  The gate sits just above n = 32.
constexpr std::uint32_t kPrefetchMinVertices = 1 << 17;

/// Per-vertex state bits, one byte per vertex.
enum : std::uint8_t {
  kInSlow = 1 << 0,     // a copy lives in slow memory
  kResident = 1 << 1,   // in fast memory
  kDirty = 1 << 2,      // resident copy newer than slow memory
  kPinned = 1 << 3,     // operand of the step in progress
  kOutput = 1 << 4,     // must end in slow memory
  kDroppable = 1 << 5,  // dropped, not stored, when evicted dirty
  kComputed = 1 << 6,   // computed at least once
};

/// Fast memory on flat per-vertex arrays; machine.hpp states the eviction
/// order and the costs.  LRU residents sit on an intrusive list in touch
/// order (head = least recent, sentinel at index V).  A Belady resident is
/// filed under its next use: a bit at that reference-string position if
/// finite (distinct per resident, since each position references one
/// vertex), else a bit at its id.
class Cache {
 public:
  Cache(const cdag::Cdag& cdag, const SimOptions& options)
      : cdag_(cdag), options_(options),
        belady_(options.replacement == ReplacementPolicy::kBelady),
        sentinel_(static_cast<VertexId>(cdag.graph.num_vertices())),
        in_offsets_(cdag.graph.in_offset_array().data()),
        in_edges_(cdag.graph.in_edge_array().data()),
        prefetch_(!belady_ && sentinel_ >= kPrefetchMinVertices),
        flags_(sentinel_, 0), consumers_left_(sentinel_, 0) {
    FMM_CHECK_MSG(options.cache_size >= 2,
                  "fast memory of size " << options.cache_size
                      << " is too small: a step holds at least one operand "
                         "and its result, so M must be >= 2");
    for (const auto* inputs : {&cdag.inputs_a, &cdag.inputs_b}) {
      for (const VertexId v : *inputs) {
        flags_[v] |= kInSlow;
      }
    }
    for (const VertexId v : cdag.outputs) {
      flags_[v] |= kOutput;
    }
    // Dirty non-outputs dropped on eviction instead of stored: none under
    // kWritebackLive, all under kDropIntermediates, and under
    // kDropRecomputable those whose operands are all inputs, which live
    // permanently in slow memory (cheap to rematerialize).
    const auto is_input = [&](VertexId u) {
      return cdag.roles[u] == cdag::Role::kInputA ||
             cdag.roles[u] == cdag::Role::kInputB;
    };
    const auto recomputable = [&](VertexId v) {
      const auto preds = operands(v);
      return !preds.empty() &&
             std::all_of(preds.begin(), preds.end(), is_input);
    };
    const auto out_offsets = cdag.graph.out_offset_array();
    for (VertexId v = 0; v < sentinel_; ++v) {
      consumers_left_[v] = out_offsets[v + 1] - out_offsets[v];
      if ((flags_[v] & kOutput) == 0 &&
          (options.writeback == WritebackPolicy::kDropIntermediates ||
           (options.writeback == WritebackPolicy::kDropRecomputable &&
            recomputable(v)))) {
        flags_[v] |= kDroppable;
      }
    }
    if (belady_) {
      next_use_.assign(sentinel_, kNever);
      unused_.reset(sentinel_);
    } else {
      links_.resize(static_cast<std::size_t>(sentinel_) + 1);
      links_[sentinel_] = {sentinel_, sentinel_};
    }
  }

  /// Validates a static schedule's vertex ids and precomputes what its
  /// replacement policy looks ahead at.  LRU under kWritebackLive keeps,
  /// per vertex, one past its last referencing step.  Belady records, in
  /// one backward pass over its reference string (per step the operands,
  /// then the computed vertex), each position's vertex and next
  /// occurrence and each vertex's first use.  simulate() only; the
  /// recomputation runner's schedule is dynamic.
  void plan(const std::vector<VertexId>& schedule) {
    result_.summary.compute_order.reserve(schedule.size());
    result_.summary.io_before.reserve(schedule.size());
    FMM_CHECK_MSG(schedule.size() < kNever,
                  "schedule of " << schedule.size()
                                 << " steps exceeds 32-bit step indices");
    const bool lru_live =
        !belady_ && options_.writeback == WritebackPolicy::kWritebackLive;
    if (lru_live) {
      live_until_.assign(sentinel_, 0);
    }
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const VertexId v = schedule[i];
      FMM_CHECK_MSG(v < sentinel_, "invalid schedule at step "
                                       << i << ": vertex " << v
                                       << " is out of range (the CDAG has "
                                       << sentinel_ << " vertices)");
      if (lru_live) {
        live_until_[v] = static_cast<std::uint32_t>(i + 1);
      } else if (belady_) {
        refs += in_offsets_[v + 1] - in_offsets_[v] + 1;
      }
    }
    if (lru_live) {
      // A value's last reference is its last computation or its last
      // consumer's.  Every consumer of u has a larger id, so ascending u
      // still finds each consumer's own last computation in place.
      const auto out_offsets = cdag_.graph.out_offset_array();
      const auto out_edges = cdag_.graph.out_edge_array();
      for (VertexId u = 0; u < sentinel_; ++u) {
        std::uint32_t until = live_until_[u];
        for (std::uint32_t e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
          until = std::max(until, live_until_[out_edges[e]]);
        }
        live_until_[u] = until;
      }
    }
    if (!belady_) {
      return;
    }
    FMM_CHECK_MSG(refs < kNever, "reference string of "
                                     << refs << " references ("
                                     << schedule.size()
                                     << " steps) exceeds 32-bit positions");
    next_.resize(refs);
    vertex_at_.resize(refs);
    by_next_use_.reset(refs);
    auto pos = static_cast<std::uint32_t>(refs);
    const auto visit = [&](VertexId x) {
      next_[--pos] = next_use_[x];
      vertex_at_[pos] = x;
      next_use_[x] = pos;
    };
    for (auto it = schedule.rbegin(); it != schedule.rend(); ++it) {
      visit(*it);
      const auto preds = operands(*it);
      std::for_each(preds.rbegin(), preds.rend(), visit);
    }
  }

  /// Executes a static schedule.  Belady reads each step's operands from
  /// the reference string plan() built.  LRU reads them from the in-CSR
  /// and, on a CDAG of kPrefetchMinVertices or more, prefetches in three
  /// stages along the schedule, so the cache misses of steps a few ahead
  /// overlap with the current one.
  void run(const std::vector<VertexId>& schedule) {
    plan(schedule);
    if (belady_) {
      for (const VertexId v : schedule) {
        // The step's operands are the positions before v's own.
        const std::uint32_t degree = in_offsets_[v + 1] - in_offsets_[v];
        FMM_CHECK_MSG(vertex_at_[time_ + degree] == v,
                      "reference string out of step at step "
                          << result_.computations << ": position "
                          << time_ + degree << " holds vertex "
                          << vertex_at_[time_ + degree] << ", not vertex "
                          << v << " after its " << degree << " operands");
        step(v, {vertex_at_.data() + time_, degree});
      }
      return;
    }
    const VertexId* order = schedule.data();
    const std::size_t last = schedule.size() - 1;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      if (prefetch_) {
        // Past the end, each stage re-prefetches the last step: harmless.
        __builtin_prefetch(
            in_offsets_ + order[std::min(i + 3 * kPrefetchSteps, last)]);
        const VertexId edges_of =
            order[std::min(i + 2 * kPrefetchSteps, last)];
        __builtin_prefetch(in_edges_ + in_offsets_[edges_of]);
        const VertexId ahead = order[std::min(i + kPrefetchSteps, last)];
        for (const VertexId u : operands(ahead)) {
          __builtin_prefetch(&links_[u]);
          __builtin_prefetch(&consumers_left_[u]);
        }
        __builtin_prefetch(&links_[ahead]);
      }
      step(order[i], operands(order[i]));
    }
  }

  bool available(VertexId v) const {
    return (flags_[v] & (kResident | kInSlow)) != 0;
  }
  bool computed(VertexId v) const { return (flags_[v] & kComputed) != 0; }
  std::int64_t computations() const { return result_.computations; }

  /// Executes one computation of `v` from `preds`, its operands in
  /// in-neighbor order: loads and pins the operands, places the result
  /// in fast memory, then releases the operands.
  void step(VertexId v, std::span<const VertexId> preds) {
    const std::int64_t at = result_.computations;
    result_.summary.compute_order.push_back(v);
    result_.summary.io_before.push_back(result_.total_io());
    for (const VertexId u : preds) {
      if ((flags_[u] & kResident) == 0) {
        FMM_CHECK_MSG(flags_[u] & kInSlow,
                      "operand " << u << " of vertex " << v
                                 << " is neither resident nor in slow "
                                    "memory: illegal schedule (missing "
                                    "recomputation?)");
        load(u);
      }
      touch(u);
      flags_[u] |= kPinned;
    }
    if ((flags_[v] & kResident) == 0) {
      insert(v, kDirty);
    }
    touch(v);
    // Uses are consumed only after the step, so pinned operands keep
    // this step's positions as their Belady keys: the smallest of any
    // resident's (evict_one relies on that).
    for (const VertexId u : preds) {
      consume_use(u);
      FMM_CHECK_MSG(flags_[u] & kPinned,
                    "step " << at << ": operand " << u << " of vertex " << v
                            << " was released twice (listed twice among "
                               "its in-neighbors)");
      flags_[u] &= ~kPinned;
    }
    consume_use(v);
    ++result_.computations;
    if ((flags_[v] & kComputed) != 0) {
      ++result_.recomputations;
    } else {
      // First computation: each operand has one fewer outstanding
      // consumer.  This liveness signal is exact even when the schedule
      // is generated on the fly, and identical in static replay.
      for (const VertexId u : preds) {
        FMM_CHECK_MSG(consumers_left_[u] > 0,
                      "step " << at << ": operand " << u << " of vertex "
                              << v << " has no consumer left: the in-CSR "
                                 "lists more consumers of "
                              << u << " than its out-edges");
        --consumers_left_[u];
      }
    }
    flags_[v] |= kComputed;
  }

  /// Stores outputs still dirty, totals the run and flushes its tallies
  /// into the metrics registry (one add per counter per run).
  SimResult finish() {
    for (const VertexId v : cdag_.outputs) {
      if ((flags_[v] & kInSlow) == 0) {
        FMM_CHECK_MSG(flags_[v] & kResident,
                      "output " << v << " lost (dropped and not recomputed)");
        ++result_.stores;
        flags_[v] = (flags_[v] | kInSlow) & ~kDirty;
      }
    }
    result_.summary.total_io = result_.total_io();
    result_.weighted_io = options_.read_cost * result_.loads +
                          options_.write_cost * result_.stores;
    auto& registry = obs::Registry::instance();
    registry.counter("pebble.loads").add(result_.loads);
    registry.counter("pebble.stores").add(result_.stores);
    registry.counter("pebble.evictions").add(evictions_);
    registry.counter("pebble.drops").add(drops_);
    registry.counter("pebble.computations").add(result_.computations);
    registry.counter("pebble.recomputations").add(result_.recomputations);
    registry.counter("pebble.simulations").increment();
    return std::move(result_);
  }

 private:
  struct Link {
    VertexId prev, next;
  };

  /// The in-neighbors of `v` < V, straight from the CSR arrays.
  std::span<const VertexId> operands(VertexId v) const {
    return {in_edges_ + in_offsets_[v], in_edges_ + in_offsets_[v + 1]};
  }

  void load(VertexId v) {
    FMM_CHECK_MSG(flags_[v] & kInSlow, "load of value not in slow memory");
    insert(v, 0);
    ++result_.loads;
  }

  /// Inserts `v` (must not be resident), evicting per policy as needed.
  void insert(VertexId v, std::uint8_t dirty) {
    FMM_CHECK((flags_[v] & kResident) == 0);
    while (occupancy_ >= options_.cache_size) {
      evict_one();
    }
    flags_[v] |= kResident | dirty;
    ++occupancy_;
    if (belady_) {
      file(v);
    } else {
      append(v);
    }
  }

  /// LRU: moves a resident `v` to the most-recent end.  O(1).
  void touch(VertexId v) {
    if (!belady_ && links_[sentinel_].prev != v) {
      unlink(v);
      append(v);
    }
  }

  /// Belady: retires the reference of `v` at position time_ of the
  /// planned reference string.  A no-op for LRU.
  void consume_use(VertexId v) {
    if (!belady_) {
      return;
    }
    const bool resident = (flags_[v] & kResident) != 0;
    if (resident) {
      unfile(v);  // its key is time_
    }
    next_use_[v] = next_[time_++];
    if (resident) {
      file(v);
    }
  }

  void evict_one() {
    // LRU: least recent first, walking past the pinned operands at the
    // tail.  Belady: farthest next use first; every unpinned key exceeds
    // every pinned one, so a pinned farthest means all residents are
    // pinned.
    VertexId victim = belady_ ? farthest() : links_[sentinel_].next;
    while (!belady_ && victim != sentinel_ && (flags_[victim] & kPinned)) {
      victim = links_[victim].next;
    }
    const VertexId stepping = result_.summary.compute_order.back();
    FMM_CHECK_MSG(victim != sentinel_ && (flags_[victim] & kPinned) == 0,
                  "fast memory of size "
                      << options_.cache_size << " fully pinned at step "
                      << result_.computations << " (vertex " << stepping
                      << " with " << cdag_.graph.in_degree(stepping)
                      << " operands): M too small");

    const std::uint8_t flags = flags_[victim];
    if ((flags & kDirty) != 0) {
      // Outputs must survive to slow memory; other values are stored while
      // live unless droppable.  The drop policies read exact dynamic
      // liveness (consumers not yet computed), so static replay agrees.
      const bool live = options_.writeback == WritebackPolicy::kWritebackLive
                            ? referenced_again(victim)
                            : consumers_left_[victim] > 0;
      if ((flags & kOutput) != 0 || ((flags & kDroppable) == 0 && live)) {
        ++result_.stores;
        flags_[victim] |= kInSlow;
      } else {
        // Value dropped — recomputation will be required if reused.
        ++drops_;
      }
    }
    ++evictions_;
    if (belady_) {
      unfile(victim);
    } else {
      unlink(victim);
      if (prefetch_) {
        // The next victim is usually the new head: start its misses now.
        const VertexId head = links_[sentinel_].next;
        __builtin_prefetch(links_.data() + head);
        __builtin_prefetch(flags_.data() + head);
        __builtin_prefetch(live_until_.data() + head);
      }
    }
    flags_[victim] &= ~(kResident | kDirty);
    --occupancy_;
  }

  void append(VertexId v) {
    const VertexId tail = links_[sentinel_].prev;
    links_[v] = {tail, sentinel_};
    links_[tail].next = v;
    links_[sentinel_].prev = v;
  }

  void unlink(VertexId v) {
    links_[links_[v].prev].next = links_[v].next;
    links_[links_[v].next].prev = links_[v].prev;
  }

  /// Whether the planned schedule still references `v`.  LRU evicts only
  /// inside a step, and an operand not yet pinned can be evicted by the
  /// load of an earlier operand of its own step: so a value is live
  /// while its last referencing step is the current one or later.
  bool referenced_again(VertexId v) const {
    return belady_ ? next_use_[v] != kNever
                   : live_until_[v] > result_.computations;
  }

  /// Belady: the resident with the largest (next use, id).  M >= 2
  /// residents are present, so one of the two bitsets is not empty.
  VertexId farthest() const {
    return unused_.empty() ? vertex_at_[by_next_use_.max()]
                           : static_cast<VertexId>(unused_.max());
  }

  /// Belady: files a resident `v` under its next use.
  void file(VertexId v) {
    if (next_use_[v] == kNever) {
      unused_.insert(v);
    } else {
      by_next_use_.insert(next_use_[v]);
    }
  }

  void unfile(VertexId v) {
    if (next_use_[v] == kNever) {
      unused_.erase(v);
    } else {
      by_next_use_.erase(next_use_[v]);
    }
  }

  const cdag::Cdag& cdag_;
  const SimOptions& options_;
  const bool belady_;
  const VertexId sentinel_;  // == V; the LRU list's sentinel index
  const std::uint32_t* const in_offsets_;  // the CDAG's in-CSR
  const VertexId* const in_edges_;
  const bool prefetch_;  // LRU on a CDAG past kPrefetchMinVertices
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> consumers_left_;
  std::vector<std::uint32_t> live_until_;  // LRU: last referencing step + 1
  std::vector<Link> links_;                // LRU: V + 1 entries
  std::vector<std::uint32_t> next_use_;    // Belady: per-vertex key
  std::vector<std::uint32_t> next_;        // Belady: per-reference next
  std::vector<VertexId> vertex_at_;        // Belady: per-reference vertex
  MaxBitset by_next_use_;  // Belady: residents' finite next uses
  MaxBitset unused_;       // Belady: never used again, by id
  std::uint32_t time_ = 0;  // Belady: references consumed
  std::int64_t occupancy_ = 0;
  std::int64_t evictions_ = 0;
  std::int64_t drops_ = 0;
  SimResult result_;
};

/// The maximal-recomputation regime's dynamic schedule: computes `v`
/// after recomputing, recursively, every operand no longer available.
void compute_with_recomputation(Cache& cache, const cdag::Cdag& cdag,
                                VertexId v, int depth,
                                std::int64_t max_computations) {
  FMM_CHECK_MSG(depth < 256, "recomputation recursion too deep");
  FMM_CHECK_MSG(cache.computations() < max_computations,
                "recomputation thrash: exceeded "
                    << max_computations
                    << " computations; increase M or the limit");
  const auto preds = cdag.graph.in_neighbors(v);
  // Bring every operand back into existence first (recursively); then
  // re-check, since a later recomputation may have evicted an earlier
  // operand again.
  for (int round = 0; round < 64; ++round) {
    bool all_available = true;
    for (const VertexId u : preds) {
      if (!cache.available(u)) {
        compute_with_recomputation(cache, cdag, u, depth + 1,
                                   max_computations);
        all_available = false;  // re-verify from the top
      }
    }
    if (all_available) {
      break;
    }
    FMM_CHECK_MSG(round + 1 < 64,
                  "operands of vertex " << v
                                        << " keep thrashing: M too small");
  }
  cache.step(v, preds);
}

}  // namespace

SimResult simulate(const cdag::Cdag& cdag,
                   const std::vector<graph::VertexId>& schedule,
                   const SimOptions& options) {
  FMM_TRACE_SPAN("pebble.simulate", "pebble");
  Cache cache(cdag, options);
  cache.run(schedule);
  for (const VertexId v : cdag.outputs) {
    FMM_CHECK_MSG(cache.computed(v),
                  "schedule never computes output vertex " << v);
  }
  return cache.finish();
}

SimResult simulate_with_recomputation(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& base_order,
    const SimOptions& options, std::int64_t max_computations) {
  FMM_CHECK_MSG(options.replacement == ReplacementPolicy::kLru,
                "recomputation mode requires LRU (no lookahead exists)");
  FMM_CHECK_MSG(options.writeback == WritebackPolicy::kDropIntermediates ||
                    options.writeback == WritebackPolicy::kDropRecomputable,
                "recomputation mode requires a dropping write-back policy");
  Cache cache(cdag, options);
  FMM_TRACE_SPAN("pebble.simulate_with_recomputation", "pebble");
  for (const VertexId v : base_order) {
    if (!cache.computed(v)) {
      compute_with_recomputation(cache, cdag, v, /*depth=*/0,
                                 max_computations);
    }
  }
  // Outputs are written back on eviction (never dropped), so they are
  // all available here; finish() stores any still dirty.
  return cache.finish();
}

std::int64_t trivial_io_floor(const cdag::Cdag& cdag) {
  return static_cast<std::int64_t>(cdag.inputs_a.size() +
                                   cdag.inputs_b.size() +
                                   cdag.outputs.size());
}

}  // namespace fmm::pebble
