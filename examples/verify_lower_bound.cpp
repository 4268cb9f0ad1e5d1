// Runs the paper's full certification pipeline on one algorithm:
//
//   verify_lower_bound [strassen|winograd|strassen-dual|strassen-perm|
//                       winograd-dual]
//
// Steps mirror Section III's proof: encoder lemmas (3.1-3.3),
// Hopcroft-Kerr sets (3.4/3.5), Lemma 2.2 cardinalities, exact minimum
// dominators (3.7), disjoint paths (3.11), and segment analysis (3.6) on
// a simulated schedule.
#include <cstdio>
#include <cstring>

#include "bilinear/catalog.hpp"
#include "bounds/dominator_cert.hpp"
#include "bounds/encoder_lemmas.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/rng.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"

namespace {

fmm::bilinear::BilinearAlgorithm pick_algorithm(const char* name) {
  using namespace fmm::bilinear;
  if (name == nullptr || std::strcmp(name, "strassen") == 0) {
    return strassen();
  }
  if (std::strcmp(name, "winograd") == 0) {
    return winograd();
  }
  if (std::strcmp(name, "strassen-dual") == 0) {
    return strassen_transposed();
  }
  if (std::strcmp(name, "strassen-perm") == 0) {
    return strassen_permuted();
  }
  if (std::strcmp(name, "winograd-dual") == 0) {
    return winograd_transposed();
  }
  std::fprintf(stderr, "unknown algorithm '%s', using strassen\n", name);
  return strassen();
}

const char* verdict(bool ok) { return ok ? "PASS" : "FAIL"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace fmm;

  const bilinear::BilinearAlgorithm alg =
      pick_algorithm(argc > 1 ? argv[1] : nullptr);
  std::printf("==== Certifying the I/O lower bound machinery for %s ====\n\n",
              alg.name().c_str());

  bool all_ok = true;

  // Step 0: the algorithm itself.
  {
    const bool valid = alg.is_valid();
    all_ok &= valid;
    std::printf("[%s] Brent-equation validity (exact rationals)\n",
                verdict(valid));
  }

  // Step 1: encoder lemmas, both operands.
  for (const auto side : {bilinear::Side::kA, bilinear::Side::kB}) {
    const auto cert = bounds::certify_encoder(alg, side);
    all_ok &= cert.all_pass();
    std::printf("[%s] Lemmas 3.1-3.3 on the %c-encoder (127 subsets; min "
                "matching slack %d)\n",
                verdict(cert.all_pass()),
                side == bilinear::Side::kA ? 'A' : 'B',
                cert.min_matching_slack);
    if (!cert.failure.empty()) {
      std::printf("      %s\n", cert.failure.c_str());
    }
  }

  // Step 2: Hopcroft-Kerr sets.
  {
    const auto cert = bounds::certify_hopcroft_kerr(alg);
    all_ok &= cert.pass;
    std::printf("[%s] Lemma 3.4 / Corollary 3.5 (9 forbidden sets, usage "
                "<= t-6)\n",
                verdict(cert.pass));
  }

  // Step 3: Lemma 2.2 cardinalities on a built CDAG.
  const std::size_t n = 16;
  const cdag::Cdag cdag = cdag::build_cdag(alg, n);
  {
    bool ok = true;
    for (const auto& level : cdag.subproblem_levels) {
      const std::size_t expected =
          cdag::expected_sub_output_count(alg, n, level.r);
      ok &= (level.output_pool.size() == expected);
    }
    all_ok &= ok;
    std::printf("[%s] Lemma 2.2: |V_out(SUB_H^{r x r})| = (n/r)^{log2 7} "
                "r^2 for all r | n = %zu\n",
                verdict(ok), n);
  }

  // Step 4: exact minimum dominators (Lemma 3.7).
  Rng rng(7);
  {
    const auto cert = bounds::certify_dominator_bound(
        cdag, 2, 6, bounds::ZChoice::kUniformRandom, rng);
    all_ok &= cert.all_hold;
    std::printf("[%s] Lemma 3.7: min dominator >= |Z|/2 (6 exact max-flow "
                "samples, worst ratio %.2f)\n",
                verdict(cert.all_hold), cert.worst_ratio);
  }

  // Step 5: disjoint paths (Lemma 3.11).
  {
    const auto samples = bounds::certify_disjoint_paths(cdag, 2, 6, rng);
    bool ok = true;
    for (const auto& sample : samples) {
      ok &= sample.holds;
    }
    all_ok &= ok;
    std::printf("[%s] Lemma 3.11: disjoint input->SUB paths >= "
                "2r sqrt(|Z|-2|Gamma|) (6 samples)\n",
                verdict(ok));
  }

  // Step 6: segment analysis on a real schedule (Lemma 3.6).
  {
    pebble::SimOptions options;
    options.cache_size = 16;
    const auto sim =
        pebble::simulate(cdag, pebble::dfs_schedule(cdag), options);
    const auto analysis =
        bounds::analyze_segments(cdag, sim.summary, options.cache_size);
    all_ok &= analysis.all_segments_hold;
    std::printf("[%s] Lemma 3.6: every 4M-output segment performs >= M "
                "I/O (%zu segments @ M = %lld)\n",
                verdict(analysis.all_segments_hold),
                analysis.segments.size(),
                static_cast<long long>(analysis.cache_m));
  }

  // Step 7: the same under recomputation.
  {
    pebble::SimOptions options;
    options.cache_size = 16;
    options.writeback = pebble::WritebackPolicy::kDropRecomputable;
    const auto sim = pebble::simulate_with_recomputation(
        cdag, pebble::dfs_schedule(cdag), options);
    const auto analysis =
        bounds::analyze_segments(cdag, sim.summary, options.cache_size);
    all_ok &= analysis.all_segments_hold;
    std::printf("[%s] Lemma 3.6 WITH recomputation (%lld recomputes): "
                "segment bound still holds\n",
                verdict(analysis.all_segments_hold),
                static_cast<long long>(sim.recomputations));
  }

  std::printf("\n==== %s: %s ====\n", alg.name().c_str(),
              all_ok ? "ALL CHECKS PASS" : "SOME CHECKS FAILED");
  return all_ok ? 0 : 1;
}
