// Computational DAGs of recursive bilinear algorithms (Definition 2.1).
//
// H^{n x n} is the CDAG of a (square-base) fast matrix multiplication
// algorithm run to scalar granularity on n x n inputs: 2n^2 input
// vertices, encoder vertices forming the operand combinations of each of
// the t products at every recursion level, and decoder vertices down to
// the n^2 outputs.  Every multiplication sub-problem of size r x r is
// tracked so that V_out(SUB_H^{r x r}) — the output vertices of all
// (n/r)^{log_b t} intermediate r x r products (Lemma 2.2) — can be
// enumerated exactly; these sets drive the dominator-set certification of
// Lemmas 3.6/3.7 and the segment analysis of Theorem 1.1.
//
// Representation: the graph is a frozen graph::CsrGraph, and the
// per-size sub-problem metadata lives in flat pools (one SubproblemLevel
// per size r) addressed by span views — at large n the t^{log_b n}
// sub-problem records dominate memory, and nested vector-of-vectors
// would pay a heap allocation per record.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace fmm::cdag {

/// Role of a CDAG vertex in the three-phase structure of Section II.
enum class Role : std::uint8_t {
  kInputA,    // element of the input matrix A
  kInputB,    // element of the input matrix B
  kEncodeA,   // encoder combination of A-side operands
  kEncodeB,   // encoder combination of B-side operands
  kProduct,   // scalar multiplication vertex (leaf of the recursion)
  kDecode,    // decoder combination (internal)
  kOutput,    // element of the output matrix C
};

/// Human-readable role name.
const char* role_name(Role role);

/// All sub-problems of one size r, in the order the builder's recursion
/// visits them (depth-first), stored as contiguous index pools:
///   outputs_of(i) — the r^2 output vertex ids of sub-problem i
///                   (V_out per Lemma 2.2);
///   inputs_of(i)  — its 2 r^2 operand vertex ids, encoded A-operands
///                   followed by encoded B-operands (V_inp, the set
///                   Lemma 3.11's Y lives in);
///   span_of(i)    — the contiguous vertex-id interval [begin, end)
///                   created while building it (strict nesting makes each
///                   sub-CDAG one interval; defines V(SUB_H^{r x r}) for
///                   Lemma 3.11's Γ ⊆ V_int sampling).
struct SubproblemLevel {
  std::size_t r = 0;
  std::size_t count = 0;
  // Frozen flat pools: owning when the builder produced them, mmap-backed
  // views when a snapshot loader did (src/snapshot/) — consumers cannot
  // tell the difference.
  FrozenArray<graph::VertexId> output_pool;  // count * r^2
  FrozenArray<graph::VertexId> input_pool;   // count * 2 r^2
  FrozenArray<graph::VertexId> span_begin;   // count
  FrozenArray<graph::VertexId> span_end;     // count

  std::size_t outputs_per_sub() const { return r * r; }
  std::size_t inputs_per_sub() const { return 2 * r * r; }

  std::span<const graph::VertexId> outputs_of(std::size_t i) const {
    return {output_pool.data() + i * outputs_per_sub(), outputs_per_sub()};
  }
  std::span<const graph::VertexId> inputs_of(std::size_t i) const {
    return {input_pool.data() + i * inputs_per_sub(), inputs_per_sub()};
  }
  std::pair<graph::VertexId, graph::VertexId> span_of(std::size_t i) const {
    return {span_begin[i], span_end[i]};
  }
};

/// A CDAG with the metadata needed by the paper's machinery.
struct Cdag {
  graph::CsrGraph graph;
  std::vector<Role> roles;

  /// n of the H^{n x n} this CDAG represents.
  std::size_t n = 0;
  /// Base size b of the generating algorithm (2 for Strassen-like).
  std::size_t base = 0;
  /// Number of base-case products t (7 for Strassen-like).
  std::size_t num_products = 0;
  /// Name of the generating algorithm.
  std::string algorithm_name;

  std::vector<graph::VertexId> inputs_a;
  std::vector<graph::VertexId> inputs_b;
  std::vector<graph::VertexId> outputs;

  /// One level per sub-problem size r (every power of `base` dividing n,
  /// including r = n), sorted by ascending r.  Level r has
  /// t^{log_base(n/r)} sub-problems (Lemma 2.2's counting).
  std::vector<SubproblemLevel> subproblem_levels;

  /// True iff sub-problems of size r are tracked.
  bool has_subproblems(std::size_t r) const;

  /// The level for size r; throws CheckError if not tracked.
  const SubproblemLevel& subproblems(std::size_t r) const;

  /// V_inp(H^{n x n}) = inputs_a ∪ inputs_b.
  std::vector<graph::VertexId> all_inputs() const;

  /// V_out(SUB_H^{r x r}) flattened: all output vertices of all r x r
  /// sub-problems (Lemma 2.2: (n/r)^{log_b t} * r^2 vertices).  A view
  /// into the level's pool — no copy.
  std::span<const graph::VertexId> sub_outputs_flat(std::size_t r) const;

  /// V_int(SUB_H^{r x r}): all vertices belonging to r x r sub-CDAGs
  /// except their output vertices (the set Lemma 3.11 draws Γ from).
  std::vector<graph::VertexId> sub_internal_vertices(std::size_t r) const;

  /// Count of vertices per role.
  std::map<Role, std::size_t> role_histogram() const;

  /// DOT rendering with role-labelled vertices.  Guarded against huge
  /// graphs like the underlying to_dot (pass allow_large to override).
  std::string to_dot(bool allow_large = false) const;

  /// Structural sanity checks: role-consistent degrees, and the levels
  /// of census_levels (builder.hpp), Lemma 2.2's, with pools to match.
  /// The CSR graph is acyclic by construction.  Throws a one-line
  /// CheckError naming the vertex or the level on violation.
  void validate() const;
};

}  // namespace fmm::cdag
