// End-to-end integration tests: the full Theorem 1.1 pipeline — build a
// CDAG for a fast algorithm, certify the encoder lemmas, simulate
// schedules with and without recomputation, run the segment analysis,
// and compare everything against the closed-form bounds.  One test per
// claim of the paper's abstract.
#include <gtest/gtest.h>

#include <cmath>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "bounds/formulas.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "linalg/matmul.hpp"
#include "parallel/caps.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "sweep/sweep.hpp"

namespace fmm {
namespace {

// Claim (Section III): the lower bound holds for ANY fast matrix
// multiplication algorithm with a 2x2 base case — pipeline over the
// whole catalog.
TEST(Integration, FullPipelinePerAlgorithm) {
  Rng rng(1);
  for (const auto& alg : bilinear::all_fast_2x2_algorithms()) {
    // 1. Encoder lemmas (the paper's matching argument).
    EXPECT_TRUE(bounds::certify_encoder(alg, bilinear::Side::kA).all_pass())
        << alg.name();
    EXPECT_TRUE(bounds::certify_encoder(alg, bilinear::Side::kB).all_pass())
        << alg.name();
    EXPECT_TRUE(bounds::certify_hopcroft_kerr(alg).pass) << alg.name();

    // 2. CDAG + dominator certification (Lemma 3.7).
    const cdag::Cdag cdag = cdag::build_cdag(alg, 16);
    cdag.validate();
    const auto cert = bounds::certify_dominator_bound(
        cdag, 2, 3, bounds::ZChoice::kSingleSubproblem, rng);
    EXPECT_TRUE(cert.all_hold) << alg.name();

    // 3. Schedule simulation + segment analysis (Lemma 3.6).
    pebble::SimOptions options;
    options.cache_size = 16;
    const auto sim =
        pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
    const auto analysis =
        bounds::analyze_segments(cdag, sim.summary, options.cache_size);
    EXPECT_TRUE(analysis.all_segments_hold) << alg.name();
  }
}

// Claim (abstract): "recomputations cannot reduce communication costs"
// — the measured I/O of the maximal-recomputation schedule stays above
// the same Ω((n/√M)^{ω0} M) expression the no-recomputation schedule
// obeys.
TEST(Integration, RecomputationDoesNotBeatTheBound) {
  const cdag::Cdag cdag = cdag::build_cdag(bilinear::strassen(), 16);
  for (const std::int64_t m : {32, 64}) {
    pebble::SimOptions plain;
    plain.cache_size = m;
    const auto normal =
        pebble::simulate(cdag, pebble::dfs_schedule(cdag), plain);

    pebble::SimOptions remat = plain;
    remat.writeback = pebble::WritebackPolicy::kDropRecomputable;
    const auto recomputed = pebble::simulate_with_recomputation(
        cdag, pebble::dfs_schedule(cdag), remat);

    const double bound = bounds::fast_memory_dependent(
        {16.0, static_cast<double>(m), 1.0}, kOmega0);
    EXPECT_GE(static_cast<double>(normal.total_io()), bound / 8.0);
    EXPECT_GE(static_cast<double>(recomputed.total_io()), bound / 8.0)
        << "recomputation drove I/O below the bound at M=" << m;
  }
}

// Claim (Theorem 1.1, parallel): measured CAPS communication obeys
// max{memory-dependent, memory-independent}.
TEST(Integration, ParallelMaxBound) {
  const std::int64_t n = 256;
  for (const std::int64_t p : {7, 49, 343}) {
    const auto caps = parallel::simulate_caps(n, p);
    const double bound = bounds::fast_parallel_bound(
        {static_cast<double>(n),
         static_cast<double>(caps.peak_memory_words), static_cast<double>(p)},
        kOmega0);
    EXPECT_GE(static_cast<double>(caps.words_per_proc), bound / 8.0)
        << "P=" << p;
  }
}

// Claim (Section IV / Theorem 4.1): alternative-basis algorithms obey the
// same bounds; their flop savings (coefficient 5) do not change I/O
// asymptotics.  Lemma 3.6's segment bound holds on the core's CDAG of
// both alternative-basis keys, resolved through the registry, at every
// M in {16, 64, 256} with 2 sqrt(M) <= n, with and without
// recomputation.
TEST(Integration, AlternativeBasisSegmentsHold) {
  for (const char* key : {"strassen-alt", "winograd-alt"}) {
    for (const std::size_t n : {8u, 16u, 32u}) {
      const cdag::Cdag cdag =
          cdag::build_cdag(sweep::resolve_algorithm(key), n);
      cdag.validate();
      const auto schedule = pebble::dfs_schedule(cdag);
      for (const std::int64_t m : {16, 64, 256}) {
        if (2.0 * std::sqrt(static_cast<double>(m)) >
            static_cast<double>(n)) {
          continue;
        }
        for (const bool remat : {false, true}) {
          pebble::SimOptions options;
          options.cache_size = m;
          options.writeback = remat
                                  ? pebble::WritebackPolicy::kDropRecomputable
                                  : options.writeback;
          const auto sim =
              remat ? pebble::simulate_with_recomputation(cdag, schedule,
                                                          options)
                    : pebble::simulate(cdag, schedule, options);
          EXPECT_TRUE(
              bounds::analyze_segments(cdag, sim.summary, m).all_segments_hold)
              << key << " n=" << n << " M=" << m << " remat=" << remat;
        }
      }
    }
  }
}

// Cross-validation: executor flop counts vs the closed-form fast_flops.
TEST(Integration, FlopFormulasAgreeWithExecutor) {
  for (const auto& [alg, linear_ops] :
       std::vector<std::pair<bilinear::BilinearAlgorithm, double>>{
           {bilinear::strassen(), 18.0}, {bilinear::winograd(), 15.0}}) {
    bilinear::RecursiveExecutor executor(alg);
    for (const std::size_t n : {8u, 32u, 128u}) {
      const auto predicted = executor.predicted_count(n);
      EXPECT_NEAR(static_cast<double>(predicted.total()),
                  bounds::fast_flops(static_cast<double>(n), linear_ops),
                  1e-6)
          << alg.name() << " n=" << n;
    }
  }
}

// The classic-vs-fast contrast of Table I: at equal (n, M), the classic
// algorithm's CDAG forces more I/O than Strassen's (exponent 3 vs 2.81).
TEST(Integration, ClassicCdagNeedsMoreIo) {
  const cdag::Cdag fast = cdag::build_cdag(bilinear::strassen(), 16);
  const cdag::Cdag classic = cdag::build_cdag(bilinear::classic(2, 2, 2),
                                              16);
  pebble::SimOptions options;
  options.cache_size = 16;
  const auto fast_io =
      pebble::simulate(fast, pebble::dfs_schedule(fast), options).total_io();
  const auto classic_io =
      pebble::simulate(classic, pebble::dfs_schedule(classic), options)
          .total_io();
  EXPECT_LT(fast_io, classic_io);
}

// End-to-end numerical sanity across the three algorithm tiers the paper
// discusses (coefficient 7, 6, 5): all compute the same product.
TEST(Integration, ThreeTiersSameProduct) {
  const std::size_t n = 64;
  linalg::Mat a(n, n), b(n, n);
  linalg::fill_random(a, 42);
  linalg::fill_random(b, 43);
  const linalg::Mat oracle = linalg::multiply_naive(a, b);

  bilinear::RecursiveExecutor strassen_exec(bilinear::strassen());
  bilinear::RecursiveExecutor winograd_exec(bilinear::winograd());
  altbasis::AltBasisExecutor ks_exec(bilinear::winograd());

  EXPECT_LT(linalg::max_abs_diff(strassen_exec.multiply(a, b), oracle),
            1e-7);
  EXPECT_LT(linalg::max_abs_diff(winograd_exec.multiply(a, b), oracle),
            1e-7);
  EXPECT_LT(linalg::max_abs_diff(ks_exec.multiply(a, b), oracle), 1e-7);

  // And their measured costs are ordered 5 < 6 < 7 (per n^{ω0} unit).
  const double n_omega = fpow(static_cast<double>(n), kOmega0);
  const double c7 =
      static_cast<double>(strassen_exec.op_count().total()) / n_omega;
  const double c6 =
      static_cast<double>(winograd_exec.op_count().total()) / n_omega;
  const double c5_bilinear =
      static_cast<double>(ks_exec.op_count().bilinear_mults +
                          ks_exec.op_count().bilinear_adds) /
      n_omega;
  EXPECT_LT(c5_bilinear, c6);
  EXPECT_LT(c6, c7);
}

}  // namespace
}  // namespace fmm
