#include "bilinear/linear_circuit.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace fmm::bilinear {

std::size_t IntMat::nnz() const {
  std::size_t count = 0;
  for (const int v : data) {
    if (v != 0) {
      ++count;
    }
  }
  return count;
}

std::size_t IntMat::row_nnz(std::size_t i) const {
  FMM_CHECK(i < rows);
  std::size_t count = 0;
  for (std::size_t j = 0; j < cols; ++j) {
    if (at(i, j) != 0) {
      ++count;
    }
  }
  return count;
}

IntMat IntMat::kronecker(const IntMat& a, const IntMat& b) {
  IntMat out(a.rows * b.rows, a.cols * b.cols);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t j = 0; j < a.cols; ++j) {
      const int aij = a.at(i, j);
      if (aij == 0) {
        continue;
      }
      for (std::size_t k = 0; k < b.rows; ++k) {
        for (std::size_t l = 0; l < b.cols; ++l) {
          out.at(i * b.rows + k, j * b.cols + l) = aij * b.at(k, l);
        }
      }
    }
  }
  return out;
}

IntMat IntMat::multiply(const IntMat& a, const IntMat& b) {
  FMM_CHECK_MSG(a.cols == b.rows,
                "IntMat shape mismatch " << a.cols << " vs " << b.rows);
  IntMat out(a.rows, b.cols);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t k = 0; k < a.cols; ++k) {
      const int aik = a.at(i, k);
      if (aik == 0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols; ++j) {
        const std::int64_t prod =
            checked_mul(aik, b.at(k, j));
        const std::int64_t sum = checked_add(out.at(i, j), prod);
        FMM_CHECK_MSG(sum >= INT32_MIN && sum <= INT32_MAX,
                      "IntMat entry overflow");
        out.at(i, j) = static_cast<int>(sum);
      }
    }
  }
  return out;
}

IntMat IntMat::identity(std::size_t n) {
  IntMat out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.at(i, i) = 1;
  }
  return out;
}

std::int64_t IntMat::determinant() const {
  FMM_CHECK_MSG(rows == cols, "determinant of non-square matrix");
  const std::size_t n = rows;
  if (n == 0) {
    return 1;
  }
  // Bareiss fraction-free elimination: all divisions are exact.
  std::vector<std::int64_t> m(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    m[i] = data[i];
  }
  std::int64_t sign = 1;
  std::int64_t prev = 1;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (m[k * n + k] == 0) {
      std::size_t pivot = k + 1;
      while (pivot < n && m[pivot * n + k] == 0) {
        ++pivot;
      }
      if (pivot == n) {
        return 0;
      }
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m[k * n + j], m[pivot * n + j]);
      }
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        const std::int64_t num =
            checked_mul(m[i * n + j], m[k * n + k]) -
            checked_mul(m[i * n + k], m[k * n + j]);
        FMM_CHECK(num % prev == 0);
        m[i * n + j] = num / prev;
      }
      m[i * n + k] = 0;
    }
    prev = m[k * n + k];
  }
  return sign * m[(n - 1) * n + (n - 1)];
}

IntMat IntMat::inverse_integer() const {
  FMM_CHECK_MSG(rows == cols, "inverse of non-square matrix");
  const std::size_t n = rows;
  const std::int64_t det = determinant();
  FMM_CHECK_MSG(det != 0, "singular matrix has no inverse");

  // Adjugate via cofactors (matrices here are at most 8x8).
  auto minor_det = [&](std::size_t skip_row, std::size_t skip_col) {
    IntMat sub(n - 1, n - 1);
    std::size_t si = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == skip_row) {
        continue;
      }
      std::size_t sj = 0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == skip_col) {
          continue;
        }
        sub.at(si, sj) = at(i, j);
        ++sj;
      }
      ++si;
    }
    return sub.determinant();
  };

  IntMat inv(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t cof = minor_det(j, i);  // transposed for adjugate
      if ((i + j) % 2 == 1) {
        cof = -cof;
      }
      FMM_CHECK_MSG(cof % det == 0,
                    "inverse is not integral (entry " << i << "," << j << ")");
      const std::int64_t entry = cof / det;
      FMM_CHECK(entry >= INT32_MIN && entry <= INT32_MAX);
      inv.at(i, j) = static_cast<int>(entry);
    }
  }
  return inv;
}

LinearCircuit::LinearCircuit(std::size_t num_inputs, std::vector<LinOp> ops,
                             std::vector<std::size_t> outputs)
    : num_inputs_(num_inputs), ops_(std::move(ops)),
      outputs_(std::move(outputs)) {
  std::size_t next_value = num_inputs_;
  for (const LinOp& op : ops_) {
    FMM_CHECK_MSG(op.s1 < next_value && op.s2 < next_value,
                  "LinOp references a value not yet defined");
    ++next_value;
  }
  for (const std::size_t out : outputs_) {
    FMM_CHECK_MSG(out < next_value, "output references undefined value");
  }
}

std::vector<double> LinearCircuit::evaluate(
    const std::vector<double>& inputs) const {
  FMM_CHECK(inputs.size() == num_inputs_);
  std::vector<double> values(inputs);
  values.reserve(num_inputs_ + ops_.size());
  for (const LinOp& op : ops_) {
    values.push_back(op.c1 * values[op.s1] + op.c2 * values[op.s2]);
  }
  std::vector<double> out;
  out.reserve(outputs_.size());
  for (const std::size_t idx : outputs_) {
    out.push_back(values[idx]);
  }
  return out;
}

std::vector<std::int64_t> LinearCircuit::evaluate_exact(
    const std::vector<std::int64_t>& inputs) const {
  FMM_CHECK(inputs.size() == num_inputs_);
  std::vector<std::int64_t> values(inputs);
  values.reserve(num_inputs_ + ops_.size());
  for (const LinOp& op : ops_) {
    values.push_back(checked_add(checked_mul(op.c1, values[op.s1]),
                                 checked_mul(op.c2, values[op.s2])));
  }
  std::vector<std::int64_t> out;
  out.reserve(outputs_.size());
  for (const std::size_t idx : outputs_) {
    out.push_back(values[idx]);
  }
  return out;
}

IntMat LinearCircuit::to_matrix() const {
  IntMat m(outputs_.size(), num_inputs_);
  std::vector<std::int64_t> unit(num_inputs_, 0);
  for (std::size_t j = 0; j < num_inputs_; ++j) {
    unit[j] = 1;
    const std::vector<std::int64_t> col = evaluate_exact(unit);
    for (std::size_t i = 0; i < col.size(); ++i) {
      FMM_CHECK(col[i] >= INT32_MIN && col[i] <= INT32_MAX);
      m.at(i, j) = static_cast<int>(col[i]);
    }
    unit[j] = 0;
  }
  return m;
}

bool LinearCircuit::computes(const IntMat& expected) const {
  if (expected.rows != outputs_.size() || expected.cols != num_inputs_) {
    return false;
  }
  return to_matrix() == expected;
}

LinearCircuit LinearCircuit::remap_inputs(
    const std::vector<std::size_t>& old_to_new) const {
  FMM_CHECK_MSG(old_to_new.size() == num_inputs_,
                "input remap size mismatch");
  const auto remap = [&](std::size_t value_index) {
    return value_index < num_inputs_ ? old_to_new[value_index]
                                     : value_index;
  };
  std::vector<LinOp> ops;
  ops.reserve(ops_.size());
  for (const LinOp& op : ops_) {
    ops.push_back(LinOp{remap(op.s1), op.c1, remap(op.s2), op.c2});
  }
  std::vector<std::size_t> outputs;
  outputs.reserve(outputs_.size());
  for (const std::size_t out : outputs_) {
    outputs.push_back(remap(out));
  }
  return LinearCircuit(num_inputs_, std::move(ops), std::move(outputs));
}

LinearCircuit LinearCircuit::reorder_outputs(
    const std::vector<std::size_t>& new_from_old) const {
  FMM_CHECK_MSG(new_from_old.size() == outputs_.size(),
                "output reorder size mismatch");
  std::vector<std::size_t> outputs;
  outputs.reserve(outputs_.size());
  for (const std::size_t old_index : new_from_old) {
    FMM_CHECK(old_index < outputs_.size());
    outputs.push_back(outputs_[old_index]);
  }
  return LinearCircuit(num_inputs_, ops_, std::move(outputs));
}

LinearCircuit LinearCircuit::naive_from_matrix(const IntMat& matrix) {
  std::vector<LinOp> ops;
  std::vector<std::size_t> outputs;
  std::size_t next_value = matrix.cols;
  for (std::size_t i = 0; i < matrix.rows; ++i) {
    std::vector<std::pair<std::size_t, int>> terms;
    for (std::size_t j = 0; j < matrix.cols; ++j) {
      if (matrix.at(i, j) != 0) {
        terms.emplace_back(j, matrix.at(i, j));
      }
    }
    if (terms.empty()) {
      // Zero output: 0*x0 + 0*x0.
      ops.push_back(LinOp{0, 0, 0, 0});
      outputs.push_back(next_value++);
    } else if (terms.size() == 1 && terms[0].second == 1) {
      outputs.push_back(terms[0].first);  // direct wire, no op
    } else {
      // acc = c0*x0 + c1*x1 (or c0*x0 + 0 if single negated/scaled term).
      std::size_t acc;
      if (terms.size() == 1) {
        ops.push_back(LinOp{terms[0].first, terms[0].second, 0, 0});
        acc = next_value++;
      } else {
        ops.push_back(LinOp{terms[0].first, terms[0].second, terms[1].first,
                            terms[1].second});
        acc = next_value++;
        for (std::size_t k = 2; k < terms.size(); ++k) {
          ops.push_back(LinOp{acc, 1, terms[k].first, terms[k].second});
          acc = next_value++;
        }
      }
      outputs.push_back(acc);
    }
  }
  return LinearCircuit(matrix.cols, std::move(ops), std::move(outputs));
}

}  // namespace fmm::bilinear
