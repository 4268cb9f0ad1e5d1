// Parallel parameter-sweep engine for pebble/certification workloads.
//
// The paper's experiments are sweep-shaped: IO(n, M) curves over grids of
// (algorithm, n, M) for Theorem 1.1 and the alternative-basis bounds of
// Theorem 4.1.  This engine shards the independent cells of such a grid —
// pebble simulations, liveness profiles, dominator certifications, and
// lower-bound verifications — across parallel::ThreadPool workers while
// keeping the result DETERMINISTIC:
//
//   - task enumeration is a fixed cross product (algorithm-major, then n,
//     then M, then task kind), independent of thread count;
//   - every task draws randomness only from its own Rng seeded by
//     task_seed(base_seed, task_index), a SplitMix64 mix, so no task
//     observes another task's RNG consumption;
//   - each task writes exclusively to its own pre-allocated result slot;
//   - one frozen CsrGraph-backed CDAG per (algorithm, n) is shared
//     read-only by all workers;
//   - the serialized sweep section (SweepResult::to_json) is therefore
//     byte-identical across thread counts, including a serial hand-rolled
//     loop over enumerate_tasks + run_task.
//
// Failure contract: a throwing task is caught at the task boundary and
// recorded with its (algorithm, n, M) coordinates.  With
// spec.keep_going=false (default) the engine cancels the remaining queue
// and rethrows a CheckError naming the lowest-index failing cell; with
// keep_going=true failures become rows of the report instead.
//
// A task runs once.  Its result is a pure function of (scheme, n, M,
// seed), so a second attempt would fail the same way; a failed task is
// final.
//
// Resilience layer (docs/RESILIENCE.md): cells whose CDAG would blow
// the per-cell memory budget degrade into skipped(reason=budget) rows
// instead of OOM-killing the sweep, and completed rows stream into a
// JSON-lines checkpoint a killed sweep can resume from — the resumed
// report is byte-identical to an uninterrupted run.  checkpoint_path /
// checkpoint_every / resume are, like num_threads, NOT part of the
// deterministic payload.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bilinear/algorithm.hpp"
#include "bilinear/scheme.hpp"
#include "cdag/cdag.hpp"
#include "obs/run_report.hpp"
#include "pebble/machine.hpp"

namespace fmm::sweep {

inline constexpr const char* kSweepSchema = "fmm.sweep";
inline constexpr int kSweepSchemaVersion = 1;

/// Lower-bound slack constant shared with the property tests and the
/// `optimal` kind's certified floor: measured I/O of any valid schedule
/// must sit above bound/8 (the Ω-constant the repo certifies
/// empirically).
inline constexpr double kBoundSlack = 8.0;

/// What one grid cell runs.
/// Contiguous from kSimulate to kOptimal (fmmio walks the range to parse
/// --kinds by task_kind_name).
enum class TaskKind {
  kSimulate,    // pebble::simulate (or simulate_with_recomputation)
  kLiveness,    // zero-spill working-set profile of the schedule
  kDominator,   // Lemma 3.7 certification (min vertex cut sampling)
  kBoundCheck,  // Theorem 1.1 / 4.1: measured I/O vs closed-form bound
  kOptimal,     // exact minimum-I/O oracle (pebble/optimal.hpp); the
                // recomputation variant follows spec.remat, infeasible
                // cells (> 64 vertices, M too small) become skips
};

const char* task_kind_name(TaskKind kind);

/// How each task derives its schedule.
enum class SchedulePolicy { kDfs, kBfs, kRandom };

const char* schedule_policy_name(SchedulePolicy policy);

/// Declarative description of a sweep: the full cross product
/// algorithms x n_grid x m_grid x kinds is enumerated in that order.
struct SweepSpec {
  std::vector<std::string> algorithms;  // names for resolve_algorithm()
  std::vector<std::size_t> n_grid;
  std::vector<std::int64_t> m_grid;
  std::vector<TaskKind> kinds = {TaskKind::kSimulate};
  SchedulePolicy schedule = SchedulePolicy::kDfs;
  pebble::ReplacementPolicy replacement = pebble::ReplacementPolicy::kLru;
  /// Simulate in the bounded-rematerialization regime
  /// (WritebackPolicy::kDropRecomputable) instead of standard write-back.
  bool remat = false;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 = hardware concurrency.  Not part of the
  /// deterministic report payload.
  std::size_t num_threads = 1;
  /// Record task failures in the report instead of failing the sweep.
  bool keep_going = false;
  /// Lemma 3.7 certification parameters (kDominator tasks).
  std::size_t dominator_r = 2;
  std::size_t dominator_samples = 3;

  // --- Resilience (deterministic payload) --------------------------------
  /// Per-cell memory budget in bytes; a cell whose cdag::census footprint
  /// exceeds it, or whose size the census refuses, becomes a
  /// skipped(reason=budget) row (a bad n stays a build error).  0 = off.
  std::int64_t max_cell_bytes = 0;

  // --- Resilience (NOT part of the deterministic payload) ----------------
  /// Stream completed rows into this JSON-lines checkpoint ("" = off).
  std::string checkpoint_path;
  /// Rows per checkpoint flush (bounds what a kill can lose).
  std::size_t checkpoint_every = 1;
  /// Restore completed rows from checkpoint_path before running; the
  /// final report is byte-identical to an uninterrupted run.
  bool resume = false;
};

/// One enumerated grid cell (static description, known before running).
struct TaskCell {
  std::size_t index = 0;
  TaskKind kind = TaskKind::kSimulate;
  std::string algorithm;
  std::size_t n = 0;
  std::int64_t m = 0;
  std::uint64_t seed = 0;  // task_seed(spec.base_seed, index)
};

/// Outcome of one task.  Fields not produced by the cell's kind stay at
/// their zero defaults (and are omitted from the JSON rendering).
struct TaskResult {
  TaskCell cell;
  bool ok = false;
  /// Cell did not apply (e.g. dominator level not tracked at this n).
  bool skipped = false;
  /// Why a cell was skipped without running ("budget"); empty for
  /// kind-level skips like an untracked dominator level.
  std::string skip_reason;
  std::string error;  // non-empty iff !ok

  /// Scheme identity of the cell's algorithm: the scheme's declared name
  /// (e.g. "laderman" for a file-loaded cell), its content-address
  /// fingerprint, and ω0 = log_base(rank) (0 for rectangular schemes).
  /// Rendered in every row so reports and checkpoints carry which exact
  /// scheme produced each measurement.
  std::string scheme_name;
  std::string scheme_fingerprint;
  double omega0 = 0.0;

  // kSimulate / kBoundCheck payload.
  std::int64_t loads = 0;
  std::int64_t stores = 0;
  std::int64_t total_io = 0;
  std::int64_t weighted_io = 0;
  std::int64_t computations = 0;
  std::int64_t recomputations = 0;

  // kLiveness payload.
  std::int64_t liveness_peak = 0;

  // kDominator payload.
  std::int64_t dominator_samples = 0;
  double dominator_worst_ratio = 0.0;
  bool dominator_holds = false;

  // kBoundCheck payload (lower_bound / bound_holds are shared with
  // kOptimal rows, where lower_bound is the Theorem 1.1 certified floor
  // fed to the solver as its root pruning bound).
  double lower_bound = 0.0;
  double bound_ratio = 0.0;  // measured total_io / lower_bound
  bool bound_holds = false;

  // kOptimal payload.
  std::int64_t min_io = 0;
  std::int64_t states_explored = 0;
  /// "exact" (min_io is the optimum) or "budget_exceeded" (min_io is
  /// the frontier's certified lower bound); empty for other kinds.
  std::string optimality;
};

/// Deterministic aggregate view + per-task rows, in task-index order.
struct SweepResult {
  std::size_t num_tasks = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::int64_t aggregate_total_io = 0;
  std::int64_t aggregate_recomputations = 0;
  /// min over kBoundCheck cells of measured/bound (0 when none ran).
  double worst_bound_ratio = 0.0;
  bool all_bounds_hold = true;
  /// min over kDominator cells of the Lemma 3.7 slack ratio.
  double worst_dominator_ratio = 0.0;
  bool all_dominators_hold = true;
  /// Certified-chain aggregate over kOptimal cells (rendered only when
  /// the spec runs the optimal kind, keeping older reports byte-stable):
  /// every ok optimal row must satisfy lower_bound <= min_io, and where
  /// the same (algorithm, n, M) cell also ran a simulate task,
  /// min_io <= heuristic total_io — the chain
  /// `bound <= optimal <= heuristic` per cell.
  std::size_t optimal_cells = 0;
  std::size_t optimal_exact = 0;
  std::size_t optimal_chains_checked = 0;
  bool all_chains_hold = true;
  std::vector<TaskResult> tasks;

  /// Echo of the deterministic part of the spec (excludes num_threads
  /// and keep_going — those must not change the payload).
  SweepSpec spec;

  /// Wall-clock of the whole sweep.  NOT part of to_json().
  double wall_seconds = 0.0;

  /// The versioned, thread-count-independent sweep section: byte-identical
  /// across num_threads values for a fixed spec.
  std::string to_json() const;

  /// Embeds to_json() under extra.sweep and records headline results
  /// (sweep_tasks/sweep_failed/total_io) so `fmmio sweep --out` emits one
  /// schema-validated file.
  void attach_to(obs::RunReport& report) const;
};

/// Per-task seed derivation: SplitMix64 over (base_seed, task_index).
/// Tasks at different indices get decorrelated streams; the same cell
/// gets the same stream no matter which worker runs it.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index);

/// Resolves a sweep algorithm name through bilinear::SchemeRegistry
/// (cached per process): catalog names (strassen, winograd,
/// strassen-dual, strassen-perm, winograd-dual, classic,
/// classic-<n>x<m>x<p>, strassen-squared), "file:<path>" scheme files
/// (loaded and Brent-verified on first use), and the alternative-basis
/// variants strassen-alt / winograd-alt (Karstadt–Schwartz sparsifying
/// bases; Theorem 4.1), which sweep registers with the registry because
/// the basis transform lives above bilinear in the layer stack.  Throws
/// CheckError for unknown names.
bilinear::BilinearAlgorithm resolve_algorithm(const std::string& name);

/// The SchemeTraits of a sweep algorithm name — same key space and
/// cache as resolve_algorithm.  Throws CheckError for unknown names.
bilinear::SchemeTraits resolve_traits(const std::string& name);

/// The deterministic task list of `spec` (no work is performed).
std::vector<TaskCell> enumerate_tasks(const SweepSpec& spec);

/// The pebble run of a simulate or boundcheck cell: the spec's schedule,
/// drawn from Rng(cell.seed), under the spec's replacement and
/// write-back regime (remat runs LRU).  Throws CheckError on an
/// infeasible run; `fmmio simulate` calls it directly.
pebble::SimResult run_simulation(const TaskCell& cell, const cdag::Cdag& cdag,
                                 const SweepSpec& spec);

/// Runs one cell against a pre-built CDAG.  Never throws: failures are
/// recorded in the result with the cell's coordinates.
TaskResult run_task(const TaskCell& cell, const cdag::Cdag& cdag,
                    const SweepSpec& spec);

/// Renders one task row exactly as it appears in to_json()'s "tasks"
/// array — also the checkpoint row format.
std::string task_row_json(const TaskResult& task);

/// The FNV-1a fingerprint of the spec's deterministic JSON echo;
/// checkpoint files carry it so a resume under a different spec is
/// refused instead of silently mixing grids.
std::string spec_fingerprint(const SweepSpec& spec);

/// Writes a complete checkpoint file holding `rows` (the engine streams
/// rows incrementally; this whole-file form is for tests and tools).
void write_sweep_checkpoint(const std::string& path, const SweepSpec& spec,
                            const std::vector<TaskResult>& rows);

/// Loads and validates a checkpoint against `spec` (fingerprint, task
/// count, per-row coordinates).  Returns the restored rows; throws
/// CheckError on any mismatch.  A torn trailing line (killed writer) is
/// dropped.
std::vector<TaskResult> load_sweep_checkpoint(const std::string& path,
                                              const SweepSpec& spec);

/// Source of frozen CDAGs keyed by (algorithm name, n), shared read-only
/// by every consumer.  Implementations must be thread-safe: the sweep
/// engine calls get_cdag concurrently from pool workers, and the query
/// service shares one source across concurrent requests.  The interface
/// lives here (not in src/service/) because sweep links below service in
/// the layer stack; service provides the bounded LRU implementation.
class CdagSource {
 public:
  virtual ~CdagSource() = default;

  /// The frozen CDAG for (algorithm, n), built on first use and returned
  /// read-only thereafter.  Throws CheckError for unknown algorithm names
  /// or failed builds.
  virtual std::shared_ptr<const cdag::Cdag> get_cdag(
      const std::string& algorithm, std::size_t n) = 0;
};

/// Build-on-first-use source with no eviction: each distinct
/// (algorithm, n) is built exactly once (concurrent requests for the
/// same key wait for the one in-flight build — single-flight) and kept
/// alive for the source's lifetime.  run_sweep(spec) uses a fresh one
/// per call; the query service swaps in its content-addressed LRU
/// (service::CachingCdagSource) through the same interface.
class BuildingCdagSource final : public CdagSource {
 public:
  std::shared_ptr<const cdag::Cdag> get_cdag(const std::string& algorithm,
                                             std::size_t n) override;

 private:
  using Key = std::pair<std::string, std::size_t>;
  std::mutex mutex_;
  std::condition_variable build_done_;
  std::set<Key> building_;
  std::map<Key, std::shared_ptr<const cdag::Cdag>> built_;
};

/// Runs the whole sweep on spec.num_threads workers.  Throws CheckError
/// naming the failing cell's (algorithm, n, M) unless spec.keep_going.
/// Equivalent to run_sweep(spec, source) with a fresh BuildingCdagSource.
SweepResult run_sweep(const SweepSpec& spec);

/// run_sweep against a caller-owned CDAG source: cells fetch their
/// (algorithm, n) CDAG through `cdags` instead of building privately, so
/// a warm service cache makes repeated sweeps skip every rebuild.  The
/// deterministic payload (SweepResult::to_json) is byte-identical to the
/// source-less overload regardless of the source's cache state.
SweepResult run_sweep(const SweepSpec& spec, CdagSource& cdags);

}  // namespace fmm::sweep
