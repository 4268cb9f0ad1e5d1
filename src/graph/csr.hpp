// Immutable CSR (compressed sparse row) graph — the representation every
// CDAG (Definition 2.1) is built into and traversed through.
//
// A vector-of-vectors adjacency pays one heap allocation and one pointer
// chase per vertex, which caps the n at which H^{n x n} stays traversable
// at interactive speed.  CsrGraph stores both directions as flat
// offsets/edges arrays (4 bytes per edge endpoint, two offset words per
// vertex) so whole-graph sweeps, BFS, and degree lookups are contiguous
// reads.
//
// Ownership model: build-then-freeze.  A GraphBuilder accumulates
// vertices and edges append-only; freeze() validates the result once —
// every edge must point from a lower to a higher id (topological append
// order, making acyclicity a construction invariant rather than a
// per-query check) and parallel edges are rejected — then computes both
// adjacency directions in one stable counting sort.  Stability matters:
// per-vertex neighbor order equals edge insertion order, so pebble
// simulations (whose LRU clock ticks in neighbor-iteration order) are a
// pure function of the construction sequence.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/frozen_array.hpp"

namespace fmm::graph {

/// Dense 0-based vertex id.
using VertexId = std::uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kNoVertex = static_cast<VertexId>(-1);

/// Largest graph to_dot() renders without an explicit override; above
/// this a Strassen-sized CDAG would serialize to multi-GB DOT text.
inline constexpr std::size_t kDotVertexLimit = 5000;

class GraphBuilder;

/// Frozen directed acyclic graph in dual-direction CSR form.  Instances
/// are only produced by GraphBuilder::freeze() and from_frozen_parts();
/// there is no mutation API.
class CsrGraph {
 public:
  /// Empty graph (0 vertices); assign from a freeze() result to populate.
  CsrGraph() = default;

  std::size_t num_vertices() const {
    return out_offsets_.empty() ? 0 : out_offsets_.size() - 1;
  }
  std::size_t num_edges() const { return out_edges_.size(); }

  std::span<const VertexId> out_neighbors(VertexId v) const;
  std::span<const VertexId> in_neighbors(VertexId v) const;

  std::size_t out_degree(VertexId v) const { return out_neighbors(v).size(); }
  std::size_t in_degree(VertexId v) const { return in_neighbors(v).size(); }

  /// Vertices with in-degree 0.
  std::vector<VertexId> sources() const;
  /// Vertices with out-degree 0.
  std::vector<VertexId> sinks() const;

  /// The identity permutation: freeze() established u < v for every
  /// edge, so vertex ids already form a topological order.  O(V), never
  /// touches the edge arrays.
  std::vector<VertexId> topological_order() const;

  /// Acyclicity is a freeze() invariant.
  bool is_dag() const { return true; }

  /// All vertices reachable from `start` (inclusive) following out-edges.
  std::vector<bool> reachable_from(const std::vector<VertexId>& start) const;

  /// All vertices that can reach `targets` (inclusive) following in-edges.
  std::vector<bool> reaching_to(const std::vector<VertexId>& targets) const;

  /// GraphViz DOT output.  Throws CheckError above kDotVertexLimit
  /// vertices unless `allow_large` — a Strassen n=64 CDAG renders to
  /// gigabytes of DOT nobody can lay out.
  std::string to_dot(const std::vector<std::string>& labels = {},
                     bool allow_large = false) const;

  /// Bytes held by the adjacency arrays (element sizes, both
  /// directions).  Size-based, not capacity-based, so a built graph and
  /// a snapshot-loaded view over identical content report the same
  /// footprint — the `cdag` op's byte-identity contract depends on it.
  std::size_t memory_bytes() const;

  /// Flat-array views over the frozen representation, in serialization
  /// order (the fmm.snap writer's sections).  Offsets have size V+1 (or
  /// 0 for the empty graph); edge arrays have size E.
  std::span<const std::uint32_t> out_offset_array() const {
    return out_offsets_;
  }
  std::span<const std::uint32_t> in_offset_array() const {
    return in_offsets_;
  }
  std::span<const VertexId> out_edge_array() const { return out_edges_; }
  std::span<const VertexId> in_edge_array() const { return in_edges_; }

  /// Validation depth for from_frozen_parts.
  enum class PartsValidation {
    /// Re-validate the structural invariants freeze() established:
    /// monotone offsets ending at the edge count, every edge id in range
    /// and obeying topological order.  Parallel-edge freedom and out/in
    /// consistency are NOT re-verified — the snapshot checksums cover
    /// byte integrity, and those invariants cannot cause out-of-bounds
    /// traversal.
    kValidate,
    /// O(1) boundary checks only (array-size consistency, offsets start
    /// at 0 and end at the edge count); the array interiors are trusted.
    /// For snapshot sections whose integrity was already established by
    /// a checksum at publish time (Verify::kMapped loads).
    kTrustChecksummed,
  };

  /// Reconstructs a frozen graph from externally owned flat arrays —
  /// the mmap-backed snapshot reader's zero-copy path.  Throws
  /// CheckError on any violation at the chosen validation depth.
  static CsrGraph from_frozen_parts(
      FrozenArray<std::uint32_t> out_offsets,
      FrozenArray<std::uint32_t> in_offsets,
      FrozenArray<VertexId> out_edges, FrozenArray<VertexId> in_edges,
      PartsValidation validation = PartsValidation::kValidate);

  /// Content equality (FrozenArray compares elements), so built and
  /// snapshot-loaded graphs with identical structure are equal.
  friend bool operator==(const CsrGraph&, const CsrGraph&) = default;

 private:
  friend class GraphBuilder;

  // offsets have size V+1 (or 0 for the empty graph); edge arrays are
  // indexed offsets[v] .. offsets[v+1].  FrozenArray views: owning for
  // freeze()-built graphs, mmap-backed for snapshot-loaded ones.
  FrozenArray<std::uint32_t> out_offsets_;
  FrozenArray<std::uint32_t> in_offsets_;
  FrozenArray<VertexId> out_edges_;
  FrozenArray<VertexId> in_edges_;
};

/// Append-only accumulator for CsrGraph (add_vertices/add_edge), then
/// freeze(), which validates and compacts.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(std::size_t num_vertices)
      : num_vertices_(num_vertices) {}

  /// Appends `count` fresh vertices; returns the id of the first one.
  VertexId add_vertices(std::size_t count);
  VertexId add_vertex() { return add_vertices(1); }

  /// Records edge u -> v.  Bounds-checked immediately; ordering and
  /// duplicate validation happen at freeze().
  void add_edge(VertexId u, VertexId v);

  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t num_edges() const { return edge_src_.size(); }

  /// Validates and compacts into an immutable CsrGraph, consuming the
  /// builder (it is left empty).  Throws CheckError if any edge has
  /// u >= v (not in topological append order) or appears twice (parallel
  /// edge).  Records freeze count/duration and the frozen graph's memory
  /// footprint in the obs metrics registry.
  CsrGraph freeze();

 private:
  std::size_t num_vertices_ = 0;
  std::vector<VertexId> edge_src_;
  std::vector<VertexId> edge_dst_;
};

}  // namespace fmm::graph
