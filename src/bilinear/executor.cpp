#include "bilinear/executor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "linalg/matmul.hpp"

namespace fmm::bilinear {

namespace {

/// result = c1 * x + c2 * y, elementwise.
linalg::Mat combine(int c1, const linalg::Mat& x, int c2,
                    const linalg::Mat& y) {
  FMM_CHECK(x.rows() == y.rows() && x.cols() == y.cols());
  linalg::Mat out(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      out(i, j) = c1 * x(i, j) + c2 * y(i, j);
    }
  }
  return out;
}

/// Evaluates a linear circuit where each value is a whole matrix block.
/// Every LinOp costs one scalar op per element (adds_counter accumulates).
std::vector<linalg::Mat> evaluate_circuit_on_blocks(
    const LinearCircuit& circuit, std::vector<linalg::Mat> inputs,
    std::int64_t* adds_counter) {
  FMM_CHECK(inputs.size() == circuit.num_inputs());
  const std::size_t block_elems =
      inputs.empty() ? 0 : inputs[0].rows() * inputs[0].cols();
  std::vector<linalg::Mat> values = std::move(inputs);
  values.reserve(circuit.num_inputs() + circuit.num_ops());
  for (const LinOp& op : circuit.ops()) {
    values.push_back(combine(op.c1, values[op.s1], op.c2, values[op.s2]));
    *adds_counter += static_cast<std::int64_t>(block_elems);
  }
  std::vector<linalg::Mat> out;
  out.reserve(circuit.num_outputs());
  for (const std::size_t idx : circuit.outputs()) {
    out.push_back(values[idx]);
  }
  return out;
}

}  // namespace

RecursiveExecutor::RecursiveExecutor(BilinearAlgorithm algorithm,
                                     std::size_t cutoff)
    : algorithm_(std::move(algorithm)),
      cutoff_(std::max<std::size_t>(1, cutoff)) {
  FMM_CHECK_MSG(algorithm_.is_square(),
                "recursive executor requires a square base case");
  FMM_CHECK_MSG(algorithm_.n() >= 2, "base size must be >= 2");
}

linalg::Mat RecursiveExecutor::multiply(const linalg::Mat& a,
                                        const linalg::Mat& b) {
  FMM_CHECK(a.rows() == a.cols() && b.rows() == b.cols() &&
            a.rows() == b.rows());
  // Dimension must be cutoff-reachable: d = c * b^k with c <= cutoff.
  std::size_t d = a.rows();
  FMM_CHECK(d >= 1);
  while (d > cutoff_ && d % algorithm_.n() == 0) {
    d /= algorithm_.n();
  }
  FMM_CHECK_MSG(d <= cutoff_ || d == 1,
                "dimension " << a.rows() << " is not a power of the base size "
                             << algorithm_.n() << " above the cutoff");
  return multiply_recursive(a, b);
}

linalg::Mat RecursiveExecutor::multiply_padded(const linalg::Mat& a,
                                               const linalg::Mat& b) {
  FMM_CHECK(a.cols() == b.rows());
  const std::size_t want = std::max({a.rows(), a.cols(), b.cols(),
                                     std::size_t{1}});
  std::size_t d = 1;
  while (d < want) {
    d *= algorithm_.n();
  }
  const linalg::Mat pa = linalg::pad_to(a, d, d);
  const linalg::Mat pb = linalg::pad_to(b, d, d);
  const linalg::Mat pc = multiply_recursive(pa, pb);
  return linalg::crop_to(pc, a.rows(), b.cols());
}

linalg::Mat RecursiveExecutor::multiply_recursive(const linalg::Mat& a,
                                                  const linalg::Mat& b) {
  const std::size_t d = a.rows();
  const std::size_t base = algorithm_.n();
  if (d <= cutoff_ || d == 1 || d % base != 0) {
    count_.multiplications +=
        static_cast<std::int64_t>(d) * static_cast<std::int64_t>(d) *
        static_cast<std::int64_t>(d);
    count_.additions += static_cast<std::int64_t>(d) *
                        static_cast<std::int64_t>(d) *
                        static_cast<std::int64_t>(d - 1);
    return linalg::multiply_naive(a, b);
  }
  const std::size_t s = d / base;

  // Split into base x base grids of s x s blocks (row-major order, the
  // same flattening the coefficient matrices use).
  auto split = [&](const linalg::Mat& m) {
    std::vector<linalg::Mat> blocks;
    blocks.reserve(base * base);
    for (std::size_t bi = 0; bi < base; ++bi) {
      for (std::size_t bj = 0; bj < base; ++bj) {
        blocks.push_back(m.block(bi * s, bj * s, s, s).to_matrix());
      }
    }
    return blocks;
  };

  const std::vector<linalg::Mat> a_tilde = evaluate_circuit_on_blocks(
      algorithm_.encoder_a_circuit(), split(a), &count_.additions);
  const std::vector<linalg::Mat> b_tilde = evaluate_circuit_on_blocks(
      algorithm_.encoder_b_circuit(), split(b), &count_.additions);

  std::vector<linalg::Mat> products;
  products.reserve(algorithm_.num_products());
  for (std::size_t r = 0; r < algorithm_.num_products(); ++r) {
    products.push_back(multiply_recursive(a_tilde[r], b_tilde[r]));
  }

  const std::vector<linalg::Mat> c_blocks = evaluate_circuit_on_blocks(
      algorithm_.decoder_circuit(), std::move(products), &count_.additions);

  linalg::Mat c(d, d);
  for (std::size_t bi = 0; bi < base; ++bi) {
    for (std::size_t bj = 0; bj < base; ++bj) {
      c.block(bi * s, bj * s, s, s)
          .assign(c_blocks[bi * base + bj].view());
    }
  }
  return c;
}

OpCount RecursiveExecutor::predicted_count(std::size_t d) const {
  const std::size_t base = algorithm_.n();
  if (d <= cutoff_ || d == 1 || d % base != 0) {
    OpCount leaf;
    leaf.multiplications = checked_pow(static_cast<std::int64_t>(d), 3);
    leaf.additions =
        checked_mul(checked_mul(static_cast<std::int64_t>(d),
                                static_cast<std::int64_t>(d)),
                    static_cast<std::int64_t>(d) - 1);
    return leaf;
  }
  const std::size_t s = d / base;
  const OpCount child = predicted_count(s);
  OpCount result;
  const auto t = static_cast<std::int64_t>(algorithm_.num_products());
  result.multiplications = checked_mul(t, child.multiplications);
  result.additions = checked_add(
      checked_mul(t, child.additions),
      checked_mul(static_cast<std::int64_t>(algorithm_.base_linear_ops()),
                  checked_mul(static_cast<std::int64_t>(s),
                              static_cast<std::int64_t>(s))));
  return result;
}

}  // namespace fmm::bilinear
