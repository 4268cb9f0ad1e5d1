// Quickstart: the library in six steps.
//
//   1. Pick a fast matrix-multiplication algorithm from the catalog and
//      certify it (exact Brent equations).
//   2. Multiply real matrices with it and check against the classical
//      oracle.
//   3. Build its computation DAG H^{n x n}.
//   4. Simulate an execution on a two-level memory and measure I/O.
//   5. Compare the measurement with the paper's lower bound — with and
//      without recomputation.
//   6. Ask the same questions through the query service — warm answers
//      come from the content-addressed cache, byte-identical to cold.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "bounds/formulas.hpp"
#include "cdag/builder.hpp"
#include "common/math_util.hpp"
#include "linalg/matmul.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "service/service.hpp"

int main() {
  using namespace fmm;

  // 1. An algorithm and its certificate.
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  std::printf("Algorithm: %s  <%zu,%zu,%zu;%zu>  Brent-valid: %s\n",
              alg.name().c_str(), alg.n(), alg.m(), alg.p(),
              alg.num_products(), alg.is_valid() ? "yes" : "NO");
  std::printf("Exponent omega0 = log2(7) = %.6f, leading coefficient %.1f\n",
              alg.omega(), alg.leading_coefficient());

  // 2. Multiply something real.
  const std::size_t n = 64;
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  bilinear::RecursiveExecutor executor(alg);
  const linalg::Mat c = executor.multiply(a, b);
  const linalg::Mat oracle = linalg::multiply_naive(a, b);
  std::printf("\nMultiplied %zux%zu: max |fast - classical| = %.2e\n", n, n,
              linalg::max_abs_diff(c, oracle));
  std::printf("Flops: %lld mults + %lld adds (classical would use %lld)\n",
              static_cast<long long>(executor.op_count().multiplications),
              static_cast<long long>(executor.op_count().additions),
              static_cast<long long>(linalg::classical_flops(n, n, n)));

  // 3. The CDAG.
  const std::size_t cdag_n = 16;
  const cdag::Cdag cdag = cdag::build_cdag(alg, cdag_n);
  std::printf("\nH^{%zux%zu}: %zu vertices, %zu edges, %zu scalar products\n",
              cdag_n, cdag_n, cdag.graph.num_vertices(),
              cdag.graph.num_edges(),
              cdag.role_histogram().at(cdag::Role::kProduct));

  // 4. Simulate on a two-level memory.
  const std::int64_t m = 64;
  pebble::SimOptions options;
  options.cache_size = m;
  const auto sim =
      pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
  std::printf("\nTwo-level machine, M = %lld words, DFS schedule + LRU:\n",
              static_cast<long long>(m));
  std::printf("  loads = %lld, stores = %lld, total I/O = %lld\n",
              static_cast<long long>(sim.loads),
              static_cast<long long>(sim.stores),
              static_cast<long long>(sim.total_io()));

  // 5. The paper's bound — it holds even if we recompute.
  const double bound = bounds::fast_memory_dependent(
      {static_cast<double>(cdag_n), static_cast<double>(m), 1}, kOmega0);
  std::printf("\nTheorem 1.1 bound (n/sqrt(M))^{log2 7} * M = %.1f\n", bound);
  std::printf("  measured / bound = %.2fx  (>= const, as the theorem "
              "demands)\n",
              static_cast<double>(sim.total_io()) / bound);

  pebble::SimOptions remat = options;
  remat.writeback = pebble::WritebackPolicy::kDropRecomputable;
  const auto recomputed = pebble::simulate_with_recomputation(
      cdag, pebble::dfs_schedule(cdag), remat);
  std::printf("\nWith recomputation (%lld values recomputed): I/O = %lld, "
              "still %.2fx above the bound.\n",
              static_cast<long long>(recomputed.recomputations),
              static_cast<long long>(recomputed.total_io()),
              static_cast<double>(recomputed.total_io()) / bound);
  std::printf("\nThat is the paper's result: recomputation cannot beat "
              "Omega((n/sqrt(M))^{log2 7} M).\n");

  // 6. The same stack as a query service (what `fmmio serve` runs).
  //    The first answer builds and caches; the repeat is a cache hit —
  //    and the protocol guarantees the bytes are identical either way.
  service::QueryService service;
  const std::string query =
      "{\"op\": \"simulate\", \"algorithm\": \"strassen\", \"n\": 16, "
      "\"m\": 64}";
  const std::string cold_answer = service.handle_line(query);
  const std::string warm_answer = service.handle_line(query);
  std::printf("\nQuery service (docs/SERVICE.md):\n  %s\n  -> %s\n",
              query.c_str(), cold_answer.c_str());
  std::printf("  warm repeat byte-identical: %s (cache hits: %lld)\n",
              warm_answer == cold_answer ? "yes" : "NO",
              static_cast<long long>(service.cache().stats().hits));
  return 0;
}
