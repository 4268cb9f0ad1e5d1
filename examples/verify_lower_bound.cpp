// Runs the paper's full certification pipeline on one scheme key:
//
//   verify_lower_bound [<algorithm>]     (default strassen)
//
// Steps mirror Section III's proof.  The key's certification verdict
// (Theorem 1.1, or 4.1 for an alternative-basis key) covers validity,
// the encoder lemmas (3.1-3.3), Hopcroft-Kerr sets (3.4/3.5) and exact
// minimum dominators (3.7); then Lemma 2.2 cardinalities, disjoint paths
// (3.11), and segment analysis (3.6) on a simulated schedule.  A key
// that is unknown or that no theorem covers exits 2.
#include <cstdio>
#include <string>

#include "bounds/dominator_cert.hpp"
#include "bounds/segments.hpp"
#include "cdag/builder.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "pebble/machine.hpp"
#include "pebble/schedules.hpp"
#include "sweep/sweep.hpp"

namespace {

const char* verdict(bool ok) { return ok ? "PASS" : "FAIL"; }

}  // namespace

int main(int argc, char** argv) {
  using namespace fmm;

  const std::string key = argc > 1 ? argv[1] : "strassen";
  bounds::CertificationReport certification;
  try {
    certification = sweep::certify_key(key);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "verify_lower_bound: %s\n", e.what());
    return 2;
  }
  if (certification.theorem == bounds::Theorem::kNone) {
    std::fprintf(stderr,
                 "verify_lower_bound: no theorem covers '%s' (Theorems "
                 "1.1 and 4.1 need a 2x2 rank-7 scheme)\n",
                 key.c_str());
    return 2;
  }
  const bilinear::BilinearAlgorithm alg = sweep::resolve_algorithm(key);
  std::printf("==== Certifying the I/O lower bound machinery for %s ====\n\n",
              alg.name().c_str());

  // Steps 0-2: the verdict (validity, Lemmas 3.1-3.3, Hopcroft-Kerr,
  // Lemma 3.7 on H^{8x8}).
  std::printf("%s", certification.to_text().c_str());
  bool all_ok = certification.all_pass();

  // Step 3: Lemma 2.2 cardinalities on a built CDAG: validate() compares
  // every sub-problem level with cdag::census_levels and throws on a
  // mismatch.
  const std::size_t n = 16;
  const cdag::Cdag cdag = cdag::build_cdag(alg, n);
  cdag.validate();
  std::printf("[PASS] Lemma 2.2: |V_out(SUB_H^{r x r})| = (n/r)^{log2 7} "
              "r^2 for all r | n = %zu\n",
              n);

  // Step 4: disjoint paths (Lemma 3.11).
  {
    Rng rng(7);
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

  // Step 5: segment analysis on a real schedule (Lemma 3.6).
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

  // Step 6: the same under recomputation.
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
