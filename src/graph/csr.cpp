#include "graph/csr.hpp"

#include <deque>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"

namespace fmm::graph {

namespace {

/// Rejects parallel edges in O(V + E) with a per-source stamp: scanning
/// bucket u, mark[v] == u means v was already seen as a neighbor of u.
/// Works because every valid source id is < V <= kNoVertex.
void check_no_parallel_edges(std::span<const std::uint32_t> offsets,
                             std::span<const VertexId> edges,
                             std::size_t num_vertices) {
  std::vector<VertexId> mark(num_vertices, kNoVertex);
  for (std::size_t u = 0; u < num_vertices; ++u) {
    for (std::size_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const VertexId v = edges[k];
      FMM_CHECK_MSG(mark[v] != static_cast<VertexId>(u),
                    "parallel edge (" << u << "," << v << ")");
      mark[v] = static_cast<VertexId>(u);
    }
  }
}

/// Stable counting sort of (key, value) pairs into CSR arrays: per-key
/// bucket order equals input order.
void build_direction(const std::vector<VertexId>& keys,
                     const std::vector<VertexId>& values,
                     std::size_t num_vertices,
                     std::vector<std::uint32_t>& offsets,
                     std::vector<VertexId>& edges) {
  offsets.assign(num_vertices + 1, 0);
  for (const VertexId k : keys) {
    ++offsets[k + 1];
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    offsets[v + 1] += offsets[v];
  }
  edges.resize(keys.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    edges[cursor[keys[i]]++] = values[i];
  }
}

void record_freeze_metrics(const CsrGraph& g, std::int64_t freeze_ns) {
  auto& registry = obs::Registry::instance();
  registry.counter("graph.csr.freezes").increment();
  registry.gauge("graph.csr.freeze_ns").record_max(freeze_ns);
  registry.gauge("graph.csr.bytes")
      .record_max(static_cast<std::int64_t>(g.memory_bytes()));
}

}  // namespace

std::span<const VertexId> CsrGraph::out_neighbors(VertexId v) const {
  FMM_CHECK(v < num_vertices());
  return {out_edges_.data() + out_offsets_[v],
          out_edges_.data() + out_offsets_[v + 1]};
}

std::span<const VertexId> CsrGraph::in_neighbors(VertexId v) const {
  FMM_CHECK(v < num_vertices());
  return {in_edges_.data() + in_offsets_[v],
          in_edges_.data() + in_offsets_[v + 1]};
}

std::vector<VertexId> CsrGraph::sources() const {
  std::vector<VertexId> result;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (in_offsets_[v] == in_offsets_[v + 1]) {
      result.push_back(v);
    }
  }
  return result;
}

std::vector<VertexId> CsrGraph::sinks() const {
  std::vector<VertexId> result;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    if (out_offsets_[v] == out_offsets_[v + 1]) {
      result.push_back(v);
    }
  }
  return result;
}

std::vector<VertexId> CsrGraph::topological_order() const {
  // freeze() validated u < v for every edge, so the identity permutation
  // is a topological order by construction — no Kahn pass needed.
  std::vector<VertexId> order(num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  return order;
}

std::vector<bool> CsrGraph::reachable_from(
    const std::vector<VertexId>& start) const {
  std::vector<bool> seen(num_vertices(), false);
  std::deque<VertexId> queue;
  for (const VertexId v : start) {
    FMM_CHECK(v < num_vertices());
    if (!seen[v]) {
      seen[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId w : out_neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    }
  }
  return seen;
}

std::vector<bool> CsrGraph::reaching_to(
    const std::vector<VertexId>& targets) const {
  std::vector<bool> seen(num_vertices(), false);
  std::deque<VertexId> queue;
  for (const VertexId v : targets) {
    FMM_CHECK(v < num_vertices());
    if (!seen[v]) {
      seen[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId w : in_neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    }
  }
  return seen;
}

std::string CsrGraph::to_dot(const std::vector<std::string>& labels,
                             bool allow_large) const {
  FMM_CHECK_MSG(allow_large || num_vertices() <= kDotVertexLimit,
                "DOT output of " << num_vertices() << " vertices exceeds "
                                 << kDotVertexLimit
                                 << "; pass allow_large to override");
  std::ostringstream oss;
  oss << "digraph G {\n  rankdir=TB;\n";
  for (VertexId v = 0; v < num_vertices(); ++v) {
    oss << "  v" << v;
    if (v < labels.size() && !labels[v].empty()) {
      oss << " [label=\"" << labels[v] << "\"]";
    }
    oss << ";\n";
  }
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (const VertexId w : out_neighbors(v)) {
      oss << "  v" << v << " -> v" << w << ";\n";
    }
  }
  oss << "}\n";
  return oss.str();
}

std::size_t CsrGraph::memory_bytes() const {
  // Size-based (not capacity-based): a snapshot-loaded view and a
  // freshly built graph over the same content must report identical
  // footprints for the service's byte-identical `cdag` responses.
  return out_offsets_.size() * sizeof(std::uint32_t) +
         in_offsets_.size() * sizeof(std::uint32_t) +
         out_edges_.size() * sizeof(VertexId) +
         in_edges_.size() * sizeof(VertexId);
}

CsrGraph CsrGraph::from_frozen_parts(FrozenArray<std::uint32_t> out_offsets,
                                     FrozenArray<std::uint32_t> in_offsets,
                                     FrozenArray<VertexId> out_edges,
                                     FrozenArray<VertexId> in_edges,
                                     PartsValidation validation) {
  FMM_CHECK_MSG(out_offsets.size() == in_offsets.size(),
                "csr parts: offset arrays disagree (" << out_offsets.size()
                    << " vs " << in_offsets.size() << ")");
  CsrGraph g;
  if (out_offsets.empty()) {
    FMM_CHECK_MSG(out_edges.empty() && in_edges.empty(),
                  "csr parts: edges present with no offsets");
    return g;
  }
  const std::size_t nv = out_offsets.size() - 1;
  const auto check_direction = [&](std::span<const std::uint32_t> offsets,
                                   std::span<const VertexId> edges,
                                   bool edges_ascend, const char* name) {
    FMM_CHECK_MSG(offsets[0] == 0,
                  "csr parts: " << name << " offsets do not start at 0");
    FMM_CHECK_MSG(offsets[nv] == edges.size(),
                  "csr parts: " << name << " offsets end at " << offsets[nv]
                                << ", edge array has " << edges.size());
    if (validation == PartsValidation::kTrustChecksummed) {
      return;  // interiors covered by the caller's checksum
    }
    for (std::size_t v = 0; v < nv; ++v) {
      FMM_CHECK_MSG(offsets[v] <= offsets[v + 1],
                    "csr parts: " << name << " offsets not monotone at "
                                  << v);
      for (std::size_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        const VertexId w = edges[k];
        FMM_CHECK_MSG(w < nv, "csr parts: " << name << " edge target "
                                            << w << " out of range " << nv);
        // Topological append order: out-neighbors of v are all > v,
        // in-neighbors all < v.
        FMM_CHECK_MSG(edges_ascend ? w > v : w < v,
                      "csr parts: " << name << " edge (" << v << "," << w
                                    << ") violates topological order");
      }
    }
  };
  FMM_CHECK_MSG(out_edges.size() == in_edges.size(),
                "csr parts: edge arrays disagree (" << out_edges.size()
                    << " vs " << in_edges.size() << ")");
  check_direction(out_offsets, out_edges, /*edges_ascend=*/true, "out");
  check_direction(in_offsets, in_edges, /*edges_ascend=*/false, "in");
  g.out_offsets_ = std::move(out_offsets);
  g.in_offsets_ = std::move(in_offsets);
  g.out_edges_ = std::move(out_edges);
  g.in_edges_ = std::move(in_edges);
  return g;
}

VertexId GraphBuilder::add_vertices(std::size_t count) {
  const auto first = static_cast<VertexId>(num_vertices_);
  num_vertices_ += count;
  FMM_CHECK_MSG(num_vertices_ < kNoVertex,
                "vertex count " << num_vertices_ << " overflows VertexId");
  return first;
}

void GraphBuilder::add_edge(VertexId u, VertexId v) {
  FMM_CHECK_MSG(u < num_vertices_ && v < num_vertices_,
                "edge (" << u << "," << v << ") out of range "
                         << num_vertices_);
  edge_src_.push_back(u);
  edge_dst_.push_back(v);
}

CsrGraph GraphBuilder::freeze() {
  Stopwatch watch;
  const std::size_t nv = num_vertices_;
  const std::vector<VertexId> src = std::move(edge_src_);
  const std::vector<VertexId> dst = std::move(edge_dst_);
  num_vertices_ = 0;
  edge_src_.clear();
  edge_dst_.clear();

  FMM_CHECK_MSG(src.size() <= UINT32_MAX,
                "edge count " << src.size() << " overflows CSR offsets");
  for (std::size_t i = 0; i < src.size(); ++i) {
    FMM_CHECK_MSG(src[i] < dst[i],
                  "edge (" << src[i] << "," << dst[i]
                           << ") violates topological append order (u < v)");
  }

  std::vector<std::uint32_t> out_offsets;
  std::vector<std::uint32_t> in_offsets;
  std::vector<VertexId> out_edges;
  std::vector<VertexId> in_edges;
  build_direction(src, dst, nv, out_offsets, out_edges);
  build_direction(dst, src, nv, in_offsets, in_edges);
  check_no_parallel_edges(out_offsets, out_edges, nv);

  CsrGraph g;
  g.out_offsets_ = std::move(out_offsets);
  g.in_offsets_ = std::move(in_offsets);
  g.out_edges_ = std::move(out_edges);
  g.in_edges_ = std::move(in_edges);
  record_freeze_metrics(g, watch.nanoseconds());
  return g;
}

}  // namespace fmm::graph
