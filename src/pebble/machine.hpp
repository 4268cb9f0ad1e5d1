// Two-level memory machine simulation (the paper's sequential model,
// Section II-B) — a red–blue pebble game executor.
//
// The machine has a fast memory of M words and an unbounded slow memory.
// Inputs start in slow memory; outputs must end there.  A computation
// step places its result in fast memory and requires every operand in
// fast memory.  Reads and writes between the levels are the I/O
// operations the lower bounds count.
//
// The simulator executes an explicit schedule — a sequence of vertex
// computations, possibly with REPEATS (recomputation) — and charges I/O
// per a replacement policy.  Recomputation support is the whole point:
// a value evicted without write-back can later be recomputed instead of
// loaded, which is the degree of freedom Theorem 1.1 proves cannot beat
// the bound asymptotically.
#pragma once

#include <cstdint>
#include <vector>

#include "cdag/cdag.hpp"
#include "pebble/schedules.hpp"

namespace fmm::pebble {

/// Which resident value to evict when fast memory is full.
///
/// The eviction order is part of the results' bit-identity contract:
///   - A step references its operands in in-neighbor order, then the
///     computed vertex.  The operands are pinned for the step and are
///     never evicted; when every resident is pinned the run throws,
///     naming M, the step index, the vertex and its operand count.
///   - kLru evicts the least recently touched unpinned value.
///   - kBelady evicts the resident with the largest (next use, id).
///     Values never referenced again go first; ties go to the larger id.
///     A reference's next use advances only after its step.
///
/// Costs: R, the reference string's length, is the sum of (in-degree + 1)
/// over the schedule; kBelady needs R below 2^32 - 1, kLru a schedule of
/// fewer than 2^32 - 1 steps.  A touch is O(1) for kLru (intrusive list).
/// Under kWritebackLive, kLru keeps one V-sized 32-bit array: each
/// value's last referencing step, from one pass over the schedule and
/// one over the out-CSR.  kBelady files each resident as one bit: at its
/// next-use position in a 64-ary bitset over the reference string
/// (ceil(log64 R) levels: four at Strassen n = 64, R = 2.4 M), or, if it
/// is never used again, at its id in one over vertex ids.  A touch moves
/// that bit with at most one word operation per level, usually one in
/// all, since insert and erase stop at the first level whose word was or
/// stays non-empty; an eviction's find-max is one countl_zero per level.
/// Memory is O(V) for kLru; kBelady adds two 32-bit arrays over the
/// reference string (each position's vertex and next occurrence) and
/// R/8 + V/8 bytes of bits.
///
/// simulate() walks the in-CSR once, in schedule order.  kBelady reads
/// each step's operands back from its reference string.  kLru reads
/// them from the in-CSR and, on CDAGs of 2^17 vertices or more (where
/// the CSR outgrows the caches: 19 MB at Strassen n = 64), prefetches in
/// three stages, 4 steps apart: the in-offsets of the step 12 ahead, the
/// in-edges of the step 8 ahead, and the list links and consumer counts
/// of the operands of the step 4 ahead; each eviction also prefetches
/// the next victim.  That overlaps a random schedule's cache misses.
/// The recomputation runner's schedule is dynamic and is not prefetched.
enum class ReplacementPolicy {
  kLru,     // least-recently-used
  kBelady,  // farthest-next-use (offline optimal for hits; classic MIN)
};

/// What to do with a dirty (computed, never stored) value on eviction.
enum class WritebackPolicy {
  /// Write it to slow memory if the schedule still uses it later
  /// (standard execution; no recomputation ever needed).
  kWritebackLive,
  /// Drop non-output intermediates on eviction; the schedule must
  /// recompute them.  NOTE: completing an execution in this regime needs
  /// M = Ω(n^2) — with no intermediate stores, the recursion's live
  /// frontier (e.g. the 7 sub-results feeding the top decode) must fit in
  /// fast memory simultaneously; smaller M livelocks (detected).
  kDropIntermediates,
  /// Bounded rematerialization: drop only values recomputable directly
  /// from slow-memory-resident inputs (depth-1 recompute); every other
  /// dirty value is written back on eviction regardless of liveness.
  /// This regime works at any feasible M and actively trades
  /// recomputation for I/O — the trade Theorem 1.1 bounds.
  kDropRecomputable,
};

struct SimOptions {
  std::int64_t cache_size = 16;
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  WritebackPolicy writeback = WritebackPolicy::kWritebackLive;
  /// Cost weights for asymmetric-memory studies (NVM; paper Section V).
  std::int64_t read_cost = 1;
  std::int64_t write_cost = 1;
};

struct SimResult {
  std::int64_t loads = 0;        // slow -> fast transfers
  std::int64_t stores = 0;       // fast -> slow transfers
  std::int64_t weighted_io = 0;  // read_cost*loads + write_cost*stores
  std::int64_t computations = 0;
  std::int64_t recomputations = 0;  // computations of already-seen vertices
  /// Trace in the format the segment analyzer consumes (io_before counts
  /// unweighted loads+stores).
  ScheduleSummary summary;

  std::int64_t total_io() const { return loads + stores; }
};

/// Executes `schedule` on the machine.  Throws CheckError if M < 2, if a
/// schedule vertex is out of range (naming its step), or if the schedule
/// is illegal: an operand is neither in fast memory, nor in slow memory
/// (input or previously stored), at the moment it is needed.
SimResult simulate(const cdag::Cdag& cdag,
                   const std::vector<graph::VertexId>& schedule,
                   const SimOptions& options);

/// Executes `base_order` (each CDAG vertex once, topologically sorted) in
/// the maximal-recomputation regime: intermediates are NEVER written back
/// (WritebackPolicy::kDropIntermediates); when an operand has been dropped
/// it is recomputed on demand from whatever is still in fast memory and
/// the inputs, recursively.  The effective schedule (with recomputations
/// interleaved) is returned in the result's summary and can be replayed
/// by simulate() for cross-validation.
///
/// Requires LRU replacement (the dynamic schedule precludes Belady
/// lookahead) and, like simulate(), M >= 2.  Throws CheckError if the run
/// exceeds `max_computations` (cache thrash: M too small for this regime)
/// or if M is too small to hold a single step's working set.
SimResult simulate_with_recomputation(
    const cdag::Cdag& cdag, const std::vector<graph::VertexId>& base_order,
    const SimOptions& options, std::int64_t max_computations = 1 << 26);

/// Convenience: trivially valid lower bound on any schedule's I/O —
/// every input must be read and every output written at least once
/// (2 n^2 reads + n^2 writes).
std::int64_t trivial_io_floor(const cdag::Cdag& cdag);

}  // namespace fmm::pebble
