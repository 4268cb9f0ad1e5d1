// E8 — google-benchmark microbenchmarks of the library's hot paths:
// matmul kernels (naive/blocked/Strassen/Winograd/alternative-basis),
// CDAG construction, pebble simulation, max-flow dominator computation,
// and Hopcroft–Karp matching.
#include <benchmark/benchmark.h>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "bounds/dominator_cert.hpp"
#include "cdag/builder.hpp"
#include "common/rng.hpp"
#include "graph/bipartite.hpp"
#include "linalg/matmul.hpp"
#include "parallel/parallel_strassen.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace {

using namespace fmm;

void BM_MatmulNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_naive(a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_MatmulBlocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_blocked(a, b, 64));
  }
}
BENCHMARK(BM_MatmulBlocked)->Arg(128)->Arg(256);

void BM_Strassen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  bilinear::RecursiveExecutor executor(bilinear::strassen(), 32);
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.multiply(a, b));
  }
}
BENCHMARK(BM_Strassen)->Arg(128)->Arg(256);

void BM_Winograd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  bilinear::RecursiveExecutor executor(bilinear::winograd(), 32);
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.multiply(a, b));
  }
}
BENCHMARK(BM_Winograd)->Arg(128)->Arg(256);

void BM_AltBasisWinograd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  altbasis::AltBasisExecutor executor(bilinear::winograd(), 32);
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.multiply(a, b));
  }
}
BENCHMARK(BM_AltBasisWinograd)->Arg(128)->Arg(256);

void BM_ParallelStrassen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        parallel::multiply_parallel(bilinear::strassen(), a, b, 1));
  }
}
BENCHMARK(BM_ParallelStrassen)->Arg(256);

void BM_CdagBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto alg = bilinear::strassen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdag::build_cdag(alg, n));
  }
}
BENCHMARK(BM_CdagBuild)->Arg(8)->Arg(16)->Arg(32);

// Strassen at n, M = 64, under LRU (belady:0) or Belady (belady:1) and
// the dfs (schedule:0), bfs (schedule:1) or seeded random (schedule:2)
// schedule; items are references.  At n = 64 the CSR (19 MB) exceeds the
// last-level caches, so the random arms time the kernel's memory stalls.
void BM_PebbleSimulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  Rng rng(7);
  const auto schedule =
      state.range(2) == 2   ? pebble::random_topological_schedule(cdag, rng)
      : state.range(2) == 1 ? pebble::bfs_schedule(cdag)
                            : pebble::dfs_schedule(cdag);
  pebble::SimOptions options;
  options.cache_size = 64;
  options.replacement = state.range(1) != 0
                            ? pebble::ReplacementPolicy::kBelady
                            : pebble::ReplacementPolicy::kLru;
  std::int64_t refs = 0;
  for (const graph::VertexId v : schedule) {
    refs += static_cast<std::int64_t>(cdag.graph.in_degree(v)) + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pebble::simulate(cdag, schedule, options));
  }
  state.SetItemsProcessed(state.iterations() * refs);
}
BENCHMARK(BM_PebbleSimulate)
    ->ArgsProduct({{16, 32, 64}, {0, 1}, {0, 1, 2}})
    ->ArgNames({"n", "belady", "schedule"})
    ->Unit(benchmark::kMillisecond);

void BM_MinDominator(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bounds::min_dominator_size(cdag, cdag.outputs));
  }
}
BENCHMARK(BM_MinDominator)->Arg(4)->Arg(8);

void BM_HopcroftKarp(benchmark::State& state) {
  Rng rng(7);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::BipartiteGraph g(n, n);
  for (std::size_t l = 0; l < n; ++l) {
    for (std::size_t r = 0; r < n; ++r) {
      if (rng.bernoulli(0.05)) {
        g.add_edge(l, r);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_matching(g));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(256)->Arg(1024);

}  // namespace
