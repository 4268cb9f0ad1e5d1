#include "pebble/schedules.hpp"

#include <deque>
#include <limits>

#include "common/check.hpp"

namespace fmm::pebble {

namespace {

bool is_input(const cdag::Cdag& cdag, graph::VertexId v) {
  return cdag.roles[v] == cdag::Role::kInputA ||
         cdag.roles[v] == cdag::Role::kInputB;
}

/// Kahn's per-vertex in-degree counts in 16 bits: a quarter of the bytes
/// of std::size_t, so more of the counts stay in cache while the frontier
/// jumps around the graph.  Throws if a vertex has more in-edges than
/// that counts (no registry scheme comes near: a vertex's in-degree is at
/// most the terms of one encoder or decoder row).
std::vector<std::uint16_t> in_degrees(const cdag::Cdag& cdag) {
  const auto offsets = cdag.graph.in_offset_array();
  std::vector<std::uint16_t> indeg(cdag.graph.num_vertices());
  for (graph::VertexId v = 0; v < indeg.size(); ++v) {
    const std::uint32_t degree = offsets[v + 1] - offsets[v];
    FMM_CHECK_MSG(degree <= std::numeric_limits<std::uint16_t>::max(),
                  "vertex " << v << " has " << degree
                            << " in-edges; schedule generators count at "
                               "most 65535");
    indeg[v] = static_cast<std::uint16_t>(degree);
  }
  return indeg;
}

}  // namespace

std::vector<graph::VertexId> dfs_schedule(const cdag::Cdag& cdag) {
  // The builder emits vertices in the recursive execution order, and all
  // edges point from lower to higher ids apart from input edges; simply
  // listing non-input vertices by id is therefore the DFS schedule.
  std::vector<graph::VertexId> schedule;
  schedule.reserve(cdag.graph.num_vertices());
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    if (!is_input(cdag, v)) {
      schedule.push_back(v);
    }
  }
  return schedule;
}

std::vector<graph::VertexId> bfs_schedule(const cdag::Cdag& cdag) {
  std::vector<std::uint16_t> indeg = in_degrees(cdag);
  std::deque<graph::VertexId> frontier;
  for (graph::VertexId v = 0; v < indeg.size(); ++v) {
    if (indeg[v] == 0) {
      frontier.push_back(v);  // inputs seed the frontier
    }
  }
  const auto out_offsets = cdag.graph.out_offset_array();
  const auto out_edges = cdag.graph.out_edge_array();
  std::vector<graph::VertexId> schedule;
  schedule.reserve(cdag.graph.num_vertices());
  while (!frontier.empty()) {
    const graph::VertexId v = frontier.front();
    frontier.pop_front();
    if (!is_input(cdag, v)) {
      schedule.push_back(v);
    }
    for (std::uint32_t e = out_offsets[v]; e < out_offsets[v + 1]; ++e) {
      if (--indeg[out_edges[e]] == 0) {
        frontier.push_back(out_edges[e]);
      }
    }
  }
  return schedule;
}

std::vector<graph::VertexId> random_topological_schedule(
    const cdag::Cdag& cdag, Rng& rng) {
  std::vector<std::uint16_t> indeg = in_degrees(cdag);
  const auto out_offsets = cdag.graph.out_offset_array();
  const auto out_edges = cdag.graph.out_edge_array();
  // A ready vertex carries what its pop reads, so the pop's first miss is
  // its out-edges, which the pop before can prefetch.
  struct Ready {
    graph::VertexId v;
    std::uint32_t edges_begin;
    std::uint32_t edges_end;
    bool input;
  };
  const auto ready = [&](graph::VertexId v) {
    return Ready{v, out_offsets[v], out_offsets[v + 1], is_input(cdag, v)};
  };
  std::vector<Ready> frontier;
  for (graph::VertexId v = 0; v < indeg.size(); ++v) {
    if (indeg[v] == 0) {
      frontier.push_back(ready(v));
    }
  }
  std::vector<graph::VertexId> schedule;
  schedule.reserve(cdag.graph.num_vertices());
  // Each pick is Rng::uniform(frontier size), split in two: the raw draw
  // is taken as soon as the frontier is sure to be non-empty at the next
  // pick — before this pop's pushes, if the pop left an entry — and
  // uniform_from reduces it once the size is known, so the draws are
  // uniform's, draw for draw.  A draw taken early names the slot the
  // next pick lands on for each count of pushes, and those slots'
  // out-edges are prefetched while the pushes run.
  std::uint64_t draw = frontier.empty() ? 0 : rng();
  while (!frontier.empty()) {
    const std::size_t pick = rng.uniform_from(draw, frontier.size());
    const Ready pop = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    if (!pop.input) {
      schedule.push_back(pop.v);
    }
    const bool drawn_early = !frontier.empty();
    if (drawn_early) {
      draw = rng();
      const std::size_t kept = frontier.size();
      const std::size_t most = kept + (pop.edges_end - pop.edges_begin);
      for (std::size_t size = kept; size <= most; ++size) {
        if (const std::size_t slot = draw % size; slot < kept) {
          __builtin_prefetch(out_edges.data() + frontier[slot].edges_begin);
        }
      }
    }
    for (std::uint32_t e = pop.edges_begin; e < pop.edges_end; ++e) {
      if (--indeg[out_edges[e]] == 0) {
        frontier.push_back(ready(out_edges[e]));
      }
    }
    if (!drawn_early && !frontier.empty()) {
      draw = rng();
    }
  }
  return schedule;
}

}  // namespace fmm::pebble
