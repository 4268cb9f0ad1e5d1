#include "bilinear/algorithm.hpp"

#include <cmath>

#include "bilinear/scheme.hpp"
#include "common/check.hpp"

namespace fmm::bilinear {

BilinearAlgorithm::BilinearAlgorithm(std::string name, std::size_t n,
                                     std::size_t m, std::size_t p, IntMat u,
                                     IntMat v, IntMat w)
    : name_(std::move(name)), n_(n), m_(m), p_(p), u_(std::move(u)),
      v_(std::move(v)), w_(std::move(w)) {
  FMM_CHECK_MSG(u_.cols == n_ * m_, "U must be t x (n*m)");
  FMM_CHECK_MSG(v_.cols == m_ * p_, "V must be t x (m*p)");
  FMM_CHECK_MSG(u_.rows == v_.rows, "U and V must have t rows each");
  FMM_CHECK_MSG(w_.rows == n_ * p_ && w_.cols == u_.rows,
                "W must be (n*p) x t");
  enc_a_ = LinearCircuit::naive_from_matrix(u_);
  enc_b_ = LinearCircuit::naive_from_matrix(v_);
  dec_ = LinearCircuit::naive_from_matrix(w_);
}

void BilinearAlgorithm::set_circuits(LinearCircuit enc_a, LinearCircuit enc_b,
                                     LinearCircuit dec) {
  FMM_CHECK_MSG(enc_a.computes(u_), "encoder-A circuit does not compute U");
  FMM_CHECK_MSG(enc_b.computes(v_), "encoder-B circuit does not compute V");
  FMM_CHECK_MSG(dec.computes(w_), "decoder circuit does not compute W");
  enc_a_ = std::move(enc_a);
  enc_b_ = std::move(enc_b);
  dec_ = std::move(dec);
}

std::size_t BilinearAlgorithm::base_linear_ops() const {
  return enc_a_.num_ops() + enc_b_.num_ops() + dec_.num_ops();
}

double BilinearAlgorithm::leading_coefficient() const {
  FMM_CHECK_MSG(is_square(), "leading coefficient defined for square bases");
  const double t = static_cast<double>(num_products());
  const double b2 = static_cast<double>(n_ * n_);
  FMM_CHECK_MSG(t > b2, "sub-quadratic product count");
  return 1.0 + static_cast<double>(base_linear_ops()) / (t - b2);
}

double BilinearAlgorithm::omega() const {
  FMM_CHECK_MSG(is_square() && n_ >= 2, "omega defined for square bases >= 2");
  return std::log(static_cast<double>(num_products())) /
         std::log(static_cast<double>(n_));
}

std::optional<std::string> BilinearAlgorithm::first_brent_violation() const {
  return bilinear::first_brent_violation(scheme_from_algorithm(*this));
}

bool BilinearAlgorithm::is_valid() const {
  return !first_brent_violation().has_value();
}

graph::BipartiteGraph BilinearAlgorithm::encoder_bipartite(Side side) const {
  const IntMat& enc = (side == Side::kA) ? u_ : v_;
  graph::BipartiteGraph g(enc.cols, enc.rows);
  for (std::size_t r = 0; r < enc.rows; ++r) {
    for (std::size_t x = 0; x < enc.cols; ++x) {
      if (enc.at(r, x) != 0) {
        g.add_edge(x, r);
      }
    }
  }
  return g;
}

std::vector<std::vector<std::size_t>> BilinearAlgorithm::product_supports(
    Side side) const {
  const IntMat& enc = (side == Side::kA) ? u_ : v_;
  std::vector<std::vector<std::size_t>> supports(enc.rows);
  for (std::size_t r = 0; r < enc.rows; ++r) {
    for (std::size_t x = 0; x < enc.cols; ++x) {
      if (enc.at(r, x) != 0) {
        supports[r].push_back(x);
      }
    }
  }
  return supports;
}

BilinearAlgorithm BilinearAlgorithm::transpose_dual() const {
  const std::size_t t = num_products();
  // New roles: A' = B^T (p x m), B' = A^T (m x n), C' = C^T (p x n).
  IntMat u2(t, p_ * m_);
  IntMat v2(t, m_ * n_);
  IntMat w2(p_ * n_, t);
  for (std::size_t r = 0; r < t; ++r) {
    for (std::size_t i2 = 0; i2 < p_; ++i2) {
      for (std::size_t k2 = 0; k2 < m_; ++k2) {
        // A'[i2,k2] = B[k2,i2]
        u2.at(r, i2 * m_ + k2) = v_.at(r, k2 * p_ + i2);
      }
    }
    for (std::size_t k2 = 0; k2 < m_; ++k2) {
      for (std::size_t j2 = 0; j2 < n_; ++j2) {
        // B'[k2,j2] = A[j2,k2]
        v2.at(r, k2 * n_ + j2) = u_.at(r, j2 * m_ + k2);
      }
    }
  }
  for (std::size_t i2 = 0; i2 < p_; ++i2) {
    for (std::size_t j2 = 0; j2 < n_; ++j2) {
      for (std::size_t r = 0; r < t; ++r) {
        // C'[i2,j2] = C[j2,i2]
        w2.at(i2 * n_ + j2, r) = w_.at(j2 * p_ + i2, r);
      }
    }
  }
  BilinearAlgorithm dual(name_ + "-dual", p_, m_, n_, std::move(u2),
                         std::move(v2), std::move(w2));

  // Transport the shared circuits through the symmetry so duals keep
  // their addition counts (e.g. Winograd-dual stays at 15, not the 24 of
  // naive circuits).  The dual's A-encoder is the original B-encoder with
  // inputs relabelled by transposition, and vice versa; the decoder keeps
  // its ops with outputs transposed.
  {
    std::vector<std::size_t> b_to_dual_a(m_ * p_);
    for (std::size_t k = 0; k < m_; ++k) {
      for (std::size_t j = 0; j < p_; ++j) {
        b_to_dual_a[k * p_ + j] = j * m_ + k;  // B[k,j] == A'[j,k]
      }
    }
    std::vector<std::size_t> a_to_dual_b(n_ * m_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t k = 0; k < m_; ++k) {
        a_to_dual_b[i * m_ + k] = k * n_ + i;  // A[i,k] == B'[k,i]
      }
    }
    std::vector<std::size_t> c_transpose(n_ * p_);
    for (std::size_t i2 = 0; i2 < p_; ++i2) {
      for (std::size_t j2 = 0; j2 < n_; ++j2) {
        c_transpose[i2 * n_ + j2] = j2 * p_ + i2;  // C'[i2,j2] == C[j2,i2]
      }
    }
    dual.set_circuits(enc_b_.remap_inputs(b_to_dual_a),
                      enc_a_.remap_inputs(a_to_dual_b),
                      dec_.reorder_outputs(c_transpose));
  }
  return dual;
}

BilinearAlgorithm BilinearAlgorithm::tensor(const BilinearAlgorithm& a,
                                            const BilinearAlgorithm& b) {
  // Tensor product of bilinear maps.  A plain Kronecker product of the
  // coefficient matrices would index A by (i1,k1,i2,k2), but the library
  // convention is row-major over the *composed* matrix, i.e. (i1,i2,k1,k2);
  // we therefore place each coefficient explicitly.
  const std::size_t n = a.n() * b.n();
  const std::size_t m = a.m() * b.m();
  const std::size_t p = a.p() * b.p();
  const std::size_t t = a.num_products() * b.num_products();
  IntMat u2(t, n * m);
  IntMat v2(t, m * p);
  IntMat w2(n * p, t);
  for (std::size_t r1 = 0; r1 < a.num_products(); ++r1) {
    for (std::size_t r2 = 0; r2 < b.num_products(); ++r2) {
      const std::size_t r = r1 * b.num_products() + r2;
      for (std::size_t i1 = 0; i1 < a.n(); ++i1) {
        for (std::size_t k1 = 0; k1 < a.m(); ++k1) {
          const int ua = a.u().at(r1, i1 * a.m() + k1);
          if (ua == 0) continue;
          for (std::size_t i2 = 0; i2 < b.n(); ++i2) {
            for (std::size_t k2 = 0; k2 < b.m(); ++k2) {
              const int ub = b.u().at(r2, i2 * b.m() + k2);
              if (ub == 0) continue;
              u2.at(r, (i1 * b.n() + i2) * m + (k1 * b.m() + k2)) = ua * ub;
            }
          }
        }
      }
      for (std::size_t k1 = 0; k1 < a.m(); ++k1) {
        for (std::size_t j1 = 0; j1 < a.p(); ++j1) {
          const int va = a.v().at(r1, k1 * a.p() + j1);
          if (va == 0) continue;
          for (std::size_t k2 = 0; k2 < b.m(); ++k2) {
            for (std::size_t j2 = 0; j2 < b.p(); ++j2) {
              const int vb = b.v().at(r2, k2 * b.p() + j2);
              if (vb == 0) continue;
              v2.at(r, (k1 * b.m() + k2) * p + (j1 * b.p() + j2)) = va * vb;
            }
          }
        }
      }
      for (std::size_t i1 = 0; i1 < a.n(); ++i1) {
        for (std::size_t j1 = 0; j1 < a.p(); ++j1) {
          const int wa = a.w().at(i1 * a.p() + j1, r1);
          if (wa == 0) continue;
          for (std::size_t i2 = 0; i2 < b.n(); ++i2) {
            for (std::size_t j2 = 0; j2 < b.p(); ++j2) {
              const int wb = b.w().at(i2 * b.p() + j2, r2);
              if (wb == 0) continue;
              w2.at((i1 * b.n() + i2) * p + (j1 * b.p() + j2), r) = wa * wb;
            }
          }
        }
      }
    }
  }
  return BilinearAlgorithm(a.name() + "(x)" + b.name(), n, m, p,
                           std::move(u2), std::move(v2), std::move(w2));
}

}  // namespace fmm::bilinear
