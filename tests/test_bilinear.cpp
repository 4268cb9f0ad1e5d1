// Tests for bilinear algorithms: exact Brent-equation validity for the
// whole catalog, recursive executor correctness against the classical
// oracle, exact operation counting, tensor products and duals.
#include <gtest/gtest.h>

#include <cmath>

#include "bilinear/algorithm.hpp"
#include "bilinear/catalog.hpp"
#include "bilinear/executor.hpp"
#include "common/check.hpp"
#include "common/math_util.hpp"
#include "linalg/matmul.hpp"

namespace fmm::bilinear {
namespace {

using linalg::fill_random;
using linalg::Mat;
using linalg::max_abs_diff;
using linalg::multiply_naive;

// ---------------------------------------------------------------------
// Validity of the catalog (Brent equations, exact rational arithmetic).
// ---------------------------------------------------------------------

struct AlgCase {
  std::string label;
  BilinearAlgorithm algorithm;
};

std::vector<AlgCase> validity_cases() {
  std::vector<AlgCase> cases;
  cases.push_back({"classic222", classic(2, 2, 2)});
  cases.push_back({"classic333", classic(3, 3, 3)});
  cases.push_back({"classic123", classic(1, 2, 3)});
  cases.push_back({"strassen", strassen()});
  cases.push_back({"winograd", winograd()});
  cases.push_back({"strassen_transposed", strassen_transposed()});
  cases.push_back({"strassen_permuted", strassen_permuted()});
  cases.push_back({"winograd_transposed", winograd_transposed()});
  cases.push_back({"strassen_squared", strassen_squared()});
  cases.push_back({"rect_2x2x4", rect_2x2x4()});
  cases.push_back({"rect_4x2x2", rect_4x2x2()});
  return cases;
}

class CatalogValidity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CatalogValidity, BrentEquationsHold) {
  const AlgCase c = validity_cases()[GetParam()];
  const auto violation = c.algorithm.first_brent_violation();
  EXPECT_FALSE(violation.has_value())
      << c.label << ": " << violation.value_or("");
}

INSTANTIATE_TEST_SUITE_P(AllCatalog, CatalogValidity,
                         ::testing::Range<std::size_t>(0, 11),
                         [](const auto& param_info) {
                           return validity_cases()[param_info.param].label;
                         });

TEST(Validity, BrokenAlgorithmDetected) {
  BilinearAlgorithm bad = strassen();
  // Flip one coefficient: validity must break.
  IntMat u = bad.u();
  u.at(0, 0) = -u.at(0, 0);
  const BilinearAlgorithm broken("broken", 2, 2, 2, u, bad.v(), bad.w());
  EXPECT_FALSE(broken.is_valid());
  EXPECT_EQ(broken.first_brent_violation().value_or(""),
            "Brent equation violated at A[0,0] B[0,0] C[0,0]: got -1, "
            "expected 1");
}

// ---------------------------------------------------------------------
// Structural properties.
// ---------------------------------------------------------------------

TEST(Structure, StrassenShape) {
  const BilinearAlgorithm s = strassen();
  EXPECT_EQ(s.n(), 2u);
  EXPECT_TRUE(s.is_square());
  EXPECT_EQ(s.num_products(), 7u);
  EXPECT_NEAR(s.omega(), kOmega0, 1e-12);
}

TEST(Structure, ClassicProductCount) {
  EXPECT_EQ(classic(2, 2, 2).num_products(), 8u);
  EXPECT_EQ(classic(3, 2, 4).num_products(), 24u);
  EXPECT_EQ(classic(2, 2, 2).omega(), 3.0);
}

TEST(Structure, StrassenNaiveAdditionCount) {
  // Classical Strassen: 18 additions at the base case.
  EXPECT_EQ(strassen().base_linear_ops(), 18u);
  EXPECT_NEAR(strassen().leading_coefficient(), 7.0, 1e-12);
}

TEST(Structure, WinogradSharedCircuitCount) {
  // Winograd with common subexpressions: 4 + 4 + 7 = 15 additions.
  const BilinearAlgorithm w = winograd();
  EXPECT_EQ(w.encoder_a_circuit().num_ops(), 4u);
  EXPECT_EQ(w.encoder_b_circuit().num_ops(), 4u);
  EXPECT_EQ(w.decoder_circuit().num_ops(), 7u);
  EXPECT_EQ(w.base_linear_ops(), 15u);
  EXPECT_NEAR(w.leading_coefficient(), 6.0, 1e-12);
}

TEST(Structure, CircuitsComputeCoefficientMatrices) {
  for (const auto& alg : all_fast_2x2_algorithms()) {
    EXPECT_TRUE(alg.encoder_a_circuit().computes(alg.u())) << alg.name();
    EXPECT_TRUE(alg.encoder_b_circuit().computes(alg.v())) << alg.name();
    EXPECT_TRUE(alg.decoder_circuit().computes(alg.w())) << alg.name();
  }
}

TEST(Structure, WrongCircuitRejected) {
  BilinearAlgorithm s = strassen();
  // The Winograd A-encoder does not compute Strassen's U.
  const BilinearAlgorithm w = winograd();
  EXPECT_THROW(s.set_circuits(w.encoder_a_circuit(), w.encoder_b_circuit(),
                              w.decoder_circuit()),
               CheckError);
}

TEST(Structure, EncoderBipartiteDegrees) {
  const auto g = strassen().encoder_bipartite(Side::kA);
  EXPECT_EQ(g.n_left(), 4u);
  EXPECT_EQ(g.n_right(), 7u);
  // nnz(U) = 12 edges for Strassen's A encoder.
  EXPECT_EQ(g.num_edges(), 12u);
}

TEST(Structure, ProductSupports) {
  const auto supports = strassen().product_supports(Side::kA);
  ASSERT_EQ(supports.size(), 7u);
  EXPECT_EQ(supports[0], (std::vector<std::size_t>{0, 3}));  // A11+A22
  EXPECT_EQ(supports[2], (std::vector<std::size_t>{0}));     // A11
}

// ---------------------------------------------------------------------
// Transpose dual and permutation conjugation.
// ---------------------------------------------------------------------

TEST(Transforms, TransposeDualOfRectangular) {
  const BilinearAlgorithm r = rect_2x2x4();  // <2,2,4;14>
  const BilinearAlgorithm d = r.transpose_dual();
  EXPECT_EQ(d.n(), 4u);
  EXPECT_EQ(d.m(), 2u);
  EXPECT_EQ(d.p(), 2u);
  EXPECT_TRUE(d.is_valid());
}

TEST(Transforms, DualIsInvolutionOnShape) {
  const BilinearAlgorithm d2 = strassen().transpose_dual().transpose_dual();
  EXPECT_EQ(d2.n(), 2u);
  EXPECT_TRUE(d2.is_valid());
  // Double dual recovers the original coefficients.
  EXPECT_EQ(d2.u(), strassen().u());
  EXPECT_EQ(d2.v(), strassen().v());
  EXPECT_EQ(d2.w(), strassen().w());
}

TEST(Transforms, PermutationPreservesValidity) {
  const BilinearAlgorithm p =
      permute_base(winograd(), {1, 0}, {0, 1}, {1, 0});
  EXPECT_TRUE(p.is_valid());
  EXPECT_NE(p.u(), winograd().u());
}

TEST(Transforms, DualPreservesSharedCircuits) {
  // The transpose dual transports the Winograd circuits, keeping the
  // 15-addition count (naive circuits would cost 24).
  const BilinearAlgorithm dual = winograd_transposed();
  EXPECT_EQ(dual.base_linear_ops(), 15u);
  EXPECT_NEAR(dual.leading_coefficient(), 6.0, 1e-12);
  EXPECT_TRUE(dual.encoder_a_circuit().computes(dual.u()));
  EXPECT_TRUE(dual.encoder_b_circuit().computes(dual.v()));
  EXPECT_TRUE(dual.decoder_circuit().computes(dual.w()));
}

TEST(Transforms, PermutationPreservesSharedCircuits) {
  const BilinearAlgorithm p =
      permute_base(winograd(), {1, 0}, {1, 0}, {0, 1});
  EXPECT_EQ(p.base_linear_ops(), 15u);
  EXPECT_TRUE(p.encoder_a_circuit().computes(p.u()));
  EXPECT_TRUE(p.decoder_circuit().computes(p.w()));
}

TEST(Transforms, DualDiffersFromOriginal) {
  EXPECT_NE(strassen_transposed().u(), strassen().u());
  EXPECT_NE(strassen_permuted().u(), strassen().u());
}

// ---------------------------------------------------------------------
// Tensor products.
// ---------------------------------------------------------------------

TEST(Tensor, ShapeAndCount) {
  const BilinearAlgorithm sq = strassen_squared();
  EXPECT_EQ(sq.n(), 4u);
  EXPECT_EQ(sq.num_products(), 49u);
  EXPECT_NEAR(sq.omega(), kOmega0, 1e-12);  // log4(49) == log2(7)
}

TEST(Tensor, RectangularShapes) {
  const BilinearAlgorithm r = rect_2x2x4();
  EXPECT_EQ(r.n(), 2u);
  EXPECT_EQ(r.m(), 2u);
  EXPECT_EQ(r.p(), 4u);
  EXPECT_EQ(r.num_products(), 14u);
}

TEST(Tensor, ClassicTensorClassicIsClassic) {
  const BilinearAlgorithm t =
      BilinearAlgorithm::tensor(classic(2, 1, 1), classic(1, 2, 1));
  EXPECT_EQ(t.n(), 2u);
  EXPECT_EQ(t.m(), 2u);
  EXPECT_EQ(t.p(), 1u);
  EXPECT_TRUE(t.is_valid());
  EXPECT_EQ(t.num_products(), 4u);
}

// ---------------------------------------------------------------------
// Recursive executor: numerical correctness and operation counts.
// ---------------------------------------------------------------------

class ExecutorCorrectness
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ExecutorCorrectness, MatchesClassicalOracle) {
  const auto [alg_index, size] = GetParam();
  const auto algorithms = all_fast_2x2_algorithms();
  const BilinearAlgorithm& alg = algorithms[alg_index];
  RecursiveExecutor executor(alg);
  Mat a(size, size), b(size, size);
  fill_random(a, 1000 + alg_index);
  fill_random(b, 2000 + size);
  const Mat fast = executor.multiply(a, b);
  const Mat oracle = multiply_naive(a, b);
  EXPECT_LT(max_abs_diff(fast, oracle), 1e-8)
      << alg.name() << " at n=" << size;
}

INSTANTIATE_TEST_SUITE_P(
    AllFast2x2, ExecutorCorrectness,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 3, 4),
                       ::testing::Values<std::size_t>(2, 4, 8, 16, 32)));

TEST(Executor, StrassenSquaredCorrect) {
  const BilinearAlgorithm sq = strassen_squared();
  RecursiveExecutor executor(sq);
  Mat a(16, 16), b(16, 16);
  fill_random(a, 7);
  fill_random(b, 8);
  EXPECT_LT(max_abs_diff(executor.multiply(a, b), multiply_naive(a, b)),
            1e-8);
}

TEST(Executor, CutoffChangesNothingNumerically) {
  const BilinearAlgorithm s = strassen();
  Mat a(16, 16), b(16, 16);
  fill_random(a, 70);
  fill_random(b, 80);
  const Mat oracle = multiply_naive(a, b);
  for (const std::size_t cutoff : {1u, 2u, 4u, 8u, 16u}) {
    RecursiveExecutor executor(s, cutoff);
    EXPECT_LT(max_abs_diff(executor.multiply(a, b), oracle), 1e-8)
        << "cutoff=" << cutoff;
  }
}

TEST(Executor, PaddedMultiplyArbitraryShape) {
  const BilinearAlgorithm s = strassen();
  RecursiveExecutor executor(s);
  Mat a(5, 7), b(7, 3);
  fill_random(a, 11);
  fill_random(b, 12);
  const Mat c = executor.multiply_padded(a, b);
  EXPECT_EQ(c.rows(), 5u);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_LT(max_abs_diff(c, multiply_naive(a, b)), 1e-8);
}

TEST(Executor, MeasuredCountsMatchPrediction) {
  for (const auto& alg : all_fast_2x2_algorithms()) {
    for (const std::size_t n : {2u, 4u, 8u, 16u}) {
      RecursiveExecutor executor(alg);
      Mat a(n, n), b(n, n);
      fill_random(a, n);
      fill_random(b, n + 1);
      executor.multiply(a, b);
      const OpCount predicted = executor.predicted_count(n);
      EXPECT_EQ(executor.op_count().multiplications,
                predicted.multiplications)
          << alg.name() << " n=" << n;
      EXPECT_EQ(executor.op_count().additions, predicted.additions)
          << alg.name() << " n=" << n;
    }
  }
}

TEST(Executor, MultiplicationCountIsNPowOmega) {
  RecursiveExecutor executor(strassen());
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const OpCount predicted = executor.predicted_count(n);
    const auto levels = ilog2_floor(n);
    EXPECT_EQ(predicted.multiplications, pow7(levels)) << "n=" << n;
  }
}

TEST(Executor, LeadingCoefficientConvergence) {
  // flops(n) / n^{log2 7} must approach the leading coefficient from
  // below: 7 for Strassen, 6 for Winograd.
  for (const auto& [alg, coef] :
       std::vector<std::pair<BilinearAlgorithm, double>>{
           {strassen(), 7.0}, {winograd(), 6.0}}) {
    RecursiveExecutor executor(alg);
    const std::size_t n = 512;
    const OpCount predicted = executor.predicted_count(n);
    const double normalized =
        static_cast<double>(predicted.multiplications + predicted.additions) /
        fpow(static_cast<double>(n), kOmega0);
    EXPECT_GT(normalized, coef - 0.35) << alg.name();
    EXPECT_LT(normalized, coef) << alg.name();
  }
}

TEST(Executor, ClassicBaseRecursionWorks) {
  // The classical algorithm run through the same recursive machinery.
  const BilinearAlgorithm c8 = classic(2, 2, 2);
  RecursiveExecutor executor(c8);
  Mat a(8, 8), b(8, 8);
  fill_random(a, 3);
  fill_random(b, 4);
  EXPECT_LT(max_abs_diff(executor.multiply(a, b), multiply_naive(a, b)),
            1e-9);
  // 8^{log2 8} = 512 multiplications.
  EXPECT_EQ(executor.op_count().multiplications, 512);
}

TEST(Executor, RectangularBaseRejected) {
  const BilinearAlgorithm r = rect_2x2x4();
  EXPECT_THROW(RecursiveExecutor executor(r), CheckError);
}

TEST(Executor, NonPowerDimensionRejected) {
  RecursiveExecutor executor(strassen());
  Mat a(6, 6), b(6, 6);
  EXPECT_THROW(executor.multiply(a, b), CheckError);
}

}  // namespace
}  // namespace fmm::bilinear
