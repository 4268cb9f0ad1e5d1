// Schedule generators for CDAG execution on the two-level machine, and
// the summary a machine run records of its schedule.
//
// A schedule lists every non-input vertex once, in an order that
// respects all CDAG edges.  The generators below cover the regimes the
// benches compare:
//   - depth-first: the natural recursive order of Algorithm 2; with LRU
//     this is the cache-oblivious schedule whose I/O tracks the
//     (n/√M)^{ω0}·M bound within a constant,
//   - breadth-first: computes whole levels at a time; its working set is
//     Θ(n^2) per level, so its I/O degrades for small M (a useful
//     contrast series),
//   - random topological: adversarially unstructured (property tests),
//   - the recomputation regime lives in machine.hpp
//     (simulate_with_recomputation) since its schedule is dynamic.
// liveness_profile (liveness.hpp) refuses a schedule that breaks these
// rules; the machine refuses one that reads a value it cannot find.
#pragma once

#include <cstdint>
#include <vector>

#include "cdag/cdag.hpp"
#include "common/rng.hpp"

namespace fmm::pebble {

/// What a machine run executed, in the form bounds::analyze_segments
/// consumes: compute_order[i] is the vertex computed at step i
/// (recomputations appear multiple times); io_before[i] is the number of
/// unweighted I/O operations performed before step i; total_io is the
/// final count.
struct ScheduleSummary {
  std::vector<graph::VertexId> compute_order;
  std::vector<std::int64_t> io_before;
  std::int64_t total_io = 0;
};

/// The builder's creation order restricted to non-input vertices: exactly
/// the depth-first recursive execution order of the algorithm.
std::vector<graph::VertexId> dfs_schedule(const cdag::Cdag& cdag);

/// Kahn topological order with a FIFO frontier (level-ish order).  Both
/// Kahn generators count in-degrees in 16 bits and throw CheckError,
/// naming the vertex, if one has more than 65535 in-edges.
std::vector<graph::VertexId> bfs_schedule(const cdag::Cdag& cdag);

/// Uniformly random topological order (Kahn with random frontier pops).
std::vector<graph::VertexId> random_topological_schedule(
    const cdag::Cdag& cdag, Rng& rng);

}  // namespace fmm::pebble
