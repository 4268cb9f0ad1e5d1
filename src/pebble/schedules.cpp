#include "pebble/schedules.hpp"

#include <deque>

namespace fmm::pebble {

namespace {

bool is_input(const cdag::Cdag& cdag, graph::VertexId v) {
  return cdag.roles[v] == cdag::Role::kInputA ||
         cdag.roles[v] == cdag::Role::kInputB;
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
  std::vector<std::size_t> indeg(cdag.graph.num_vertices());
  std::deque<graph::VertexId> frontier;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    indeg[v] = cdag.graph.in_degree(v);
    if (indeg[v] == 0) {
      frontier.push_back(v);  // inputs seed the frontier
    }
  }
  std::vector<graph::VertexId> schedule;
  schedule.reserve(cdag.graph.num_vertices());
  while (!frontier.empty()) {
    const graph::VertexId v = frontier.front();
    frontier.pop_front();
    if (!is_input(cdag, v)) {
      schedule.push_back(v);
    }
    for (const graph::VertexId w : cdag.graph.out_neighbors(v)) {
      if (--indeg[w] == 0) {
        frontier.push_back(w);
      }
    }
  }
  return schedule;
}

std::vector<graph::VertexId> random_topological_schedule(
    const cdag::Cdag& cdag, Rng& rng) {
  std::vector<std::size_t> indeg(cdag.graph.num_vertices());
  std::vector<graph::VertexId> frontier;
  for (graph::VertexId v = 0; v < cdag.graph.num_vertices(); ++v) {
    indeg[v] = cdag.graph.in_degree(v);
    if (indeg[v] == 0) {
      frontier.push_back(v);
    }
  }
  std::vector<graph::VertexId> schedule;
  schedule.reserve(cdag.graph.num_vertices());
  while (!frontier.empty()) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.uniform(frontier.size()));
    const graph::VertexId v = frontier[pick];
    frontier[pick] = frontier.back();
    frontier.pop_back();
    if (!is_input(cdag, v)) {
      schedule.push_back(v);
    }
    for (const graph::VertexId w : cdag.graph.out_neighbors(v)) {
      if (--indeg[w] == 0) {
        frontier.push_back(w);
      }
    }
  }
  return schedule;
}

}  // namespace fmm::pebble
