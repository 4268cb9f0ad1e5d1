// Bring your own algorithm: define a new <2,2,2;7> bilinear algorithm,
// certify it end to end, optimize its basis, and watch the paper's
// machinery apply to it — the point of Lemma 3.1 is exactly that the
// bound does not care WHICH 7-multiplication algorithm you invented.
//
// The "custom" algorithm here is Strassen conjugated by swapping the
// inner dimension and then transpose-dualized — structurally unlike the
// textbook presentations, but a perfectly valid fast MM algorithm.
#include <cstdio>

#include "altbasis/alt_basis.hpp"
#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "bounds/report.hpp"
#include "linalg/matmul.hpp"

int main() {
  using namespace fmm;

  // ---- 1. Construct something nobody has a table for.
  const bilinear::BilinearAlgorithm custom =
      bilinear::permute_base(bilinear::strassen(), {0, 1}, {1, 0}, {1, 0})
          .transpose_dual();
  std::printf("Custom algorithm: %s  <%zu,%zu,%zu;%zu>\n",
              custom.name().c_str(), custom.n(), custom.m(), custom.p(),
              custom.num_products());

  // ---- 2. Certify it: Theorem 1.1's verdict runs the Brent equations,
  //         the paper's encoder lemmas, Hopcroft-Kerr and an exact
  //         dominator sample (Lemma 3.7) on H^{8x8}.
  const bounds::CertificationReport verdict =
      bounds::certify_algorithm(custom);
  std::printf("%s", verdict.to_text().c_str());
  if (!verdict.all_pass()) {
    return 1;
  }

  // ---- 3. Use it on data.
  linalg::Mat a(32, 32), b(32, 32);
  linalg::fill_random(a, 11);
  linalg::fill_random(b, 22);
  bilinear::RecursiveExecutor executor(custom);
  const double err = linalg::max_abs_diff(executor.multiply(a, b),
                                          linalg::multiply_naive(a, b));
  std::printf("Numerical check at n=32: max error %.2e\n", err);

  // ---- 4. Bonus: find its sparsest alternative basis (Section IV).
  altbasis::AltBasisExecutor ab_exec(custom);
  const altbasis::AlternativeBasis& ab = ab_exec.basis();
  std::printf("\nAlternative basis found: %zu base linear ops (leading "
              "coefficient %.2f; naive was %zu ops / %.2f)\n",
              ab.base_linear_ops,
              ab.transformed.leading_coefficient(),
              custom.base_linear_ops(), custom.leading_coefficient());

  const double ab_err = linalg::max_abs_diff(
      ab_exec.multiply(a, b), linalg::multiply_naive(a, b));
  std::printf("Alternative-basis execution error: %.2e\n", ab_err);

  std::printf("\nConclusion: ANY valid 2x2-base fast MM algorithm — even "
              "one you just made up — satisfies the paper's lemmas, so "
              "Theorem 1.1 bounds its I/O, recomputation or not.\n");
  return 0;
}
