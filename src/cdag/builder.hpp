// Recursive CDAG construction for square-base bilinear algorithms.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bilinear/algorithm.hpp"
#include "cdag/cdag.hpp"

namespace fmm::cdag {

/// What a build of H^{n x n} holds, counted in closed form from its
/// levels: size r = b^i holds t^{log_b(n/r)} sub-problems (Lemma 2.2).
struct CdagCensus {
  std::size_t vertices = 0;
  std::size_t edges = 0;
  /// Cdag::role_histogram(): only the roles that occur.
  std::map<Role, std::size_t> roles;
  /// (r, count) of Cdag::subproblem_levels: census_levels.
  std::vector<std::pair<std::size_t, std::size_t>> levels;
  /// service::cdag_memory_bytes of the built Cdag.
  std::size_t memory_bytes = 0;
};

/// Lemma 2.2's levels of H^{n x n} for a base-b scheme with t products:
/// (r, count) = (b^i, t^{log_b(n/r)}) for i = 0 .. log_b n, ascending r —
/// the one level count that census, Cdag::validate,
/// expected_sub_output_count and the snapshot reader compare against.
/// Refuses, with census's CheckError texts, a base below 2, an n that is
/// not a power of it (n = 0 included) and counts beyond int64.
std::vector<std::pair<std::size_t, std::size_t>> census_levels(
    std::size_t base, std::size_t products, std::size_t n);

/// Counts H^{n x n} without building it, in checked int64 arithmetic.
/// Refuses exactly what build_cdag refuses, with the same CheckError
/// texts: a base that is not square or below 2, an n that is not a power
/// of it (n = 0 included), sizes beyond 32-bit ids or CSR offsets, and
/// counts beyond int64.
CdagCensus census(const bilinear::BilinearAlgorithm& algorithm,
                  std::size_t n);

/// Builds H^{n x n} for the given square-base algorithm, expanded to
/// scalar granularity.  The census comes first: it refuses what cannot be
/// built before anything is allocated and sizes the arrays and levels,
/// and the built |V| and |E| must equal it.
///
/// Structure per recursion level (size s -> s/b):
///   - one EncodeA vertex per element of each of the t encoded A-operands
///     (even when the encoder row is a singleton, matching the
///     Bilardi–De Stefani CDAG where each product's operand is a distinct
///     vertex),
///   - symmetrically EncodeB,
///   - a recursive sub-CDAG per product,
///   - one Decode vertex per element of each output quadrant.
/// Every r x r sub-problem's r^2 output vertices are registered in the
/// size-r Cdag::subproblem_levels entry.
///
/// Numbering and adjacency order (pinned byte for byte by
/// tests/test_cdag_golden.cpp):
///   - vertices are numbered in recursive execution order, which
///     dfs_schedule relies on;
///   - every operand is a contiguous row-major id range (the inputs, and
///     each product's (s/b)^2 encoder block), so a recursive call takes
///     its two operands as two first ids;
///   - each vertex's in-edges are added together, in a fixed order: an
///     encoder vertex's by block q ascending, a decoder vertex's by
///     product r ascending, a product's a then b;
///   - every vertex's out-edges are added in ascending target order.
/// Those two per-vertex orders fix the bytes of freeze()'s stable
/// counting sort, whatever the global interleaving of the edges.
///
/// Memory: a build allocates O(levels) arrays — the graph, the roles, the
/// id lists and each level's four pools — and no vector per call.  A
/// sub-problem writes its outputs into its slot of the level's output
/// pool, and the parent's decoder reads them from there.  Builds share no
/// state, so they may run concurrently.
Cdag build_cdag(const bilinear::BilinearAlgorithm& algorithm, std::size_t n);

/// |V_out(SUB_H^{r x r})| predicted by Lemma 2.2: (n/r)^{log_b t} * r^2.
/// Throws CheckError unless n/r is a power of the base (r = 0 and n = 0
/// included).
std::size_t expected_sub_output_count(
    const bilinear::BilinearAlgorithm& algorithm, std::size_t n,
    std::size_t r);

}  // namespace fmm::cdag
