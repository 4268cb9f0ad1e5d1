// Bilinear (fast) matrix-multiplication algorithms <n, m, p; t>.
//
// Definition 2.6 of the paper: an <n,m,p;t>-algorithm multiplies an n x m
// matrix A by an m x p matrix B using t scalar (block) multiplications.
// It is fully described by three integer coefficient matrices:
//
//   U : t x (n*m)   — encoder of A:   Ã_r = sum_{i,k} U[r,(i,k)] A[i,k]
//   V : t x (m*p)   — encoder of B:   B̃_r = sum_{k,j} V[r,(k,j)] B[k,j]
//   W : (n*p) x t   — decoder:        C[i,j] = sum_r W[(i,j),r] Ã_r B̃_r
//
// Validity is decidable exactly via the Brent equations, checked by the
// one exact verifier, bilinear::first_brent_violation (scheme.hpp) —
// every algorithm in the catalog is certified, not assumed.  The encoder
// bipartite graphs of Section II (Figure 2) are derived straight from U
// and V.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bilinear/linear_circuit.hpp"
#include "graph/bipartite.hpp"

namespace fmm::bilinear {

/// Which operand's encoder to inspect.
enum class Side { kA, kB };

class BilinearAlgorithm {
 public:
  /// Constructs with naive (no-sharing) encoder/decoder circuits.
  BilinearAlgorithm(std::string name, std::size_t n, std::size_t m,
                    std::size_t p, IntMat u, IntMat v, IntMat w);

  /// Attaches hand-optimized straight-line circuits (must compute U, V, W
  /// respectively; verified, CheckError on mismatch).
  void set_circuits(LinearCircuit enc_a, LinearCircuit enc_b,
                    LinearCircuit dec);

  const std::string& name() const { return name_; }
  std::size_t n() const { return n_; }
  std::size_t m() const { return m_; }
  std::size_t p() const { return p_; }
  /// Number of multiplications t.
  std::size_t num_products() const { return u_.rows; }
  /// True iff n == m == p (required by the square recursive executor).
  bool is_square() const { return n_ == m_ && m_ == p_; }

  const IntMat& u() const { return u_; }
  const IntMat& v() const { return v_; }
  const IntMat& w() const { return w_; }

  const LinearCircuit& encoder_a_circuit() const { return enc_a_; }
  const LinearCircuit& encoder_b_circuit() const { return enc_b_; }
  const LinearCircuit& decoder_circuit() const { return dec_; }

  /// Linear ops in the base case (encoder A + encoder B + decoder
  /// circuits).  Determines the leading coefficient of the arithmetic
  /// complexity: 1 + base_linear_ops() / (t - n*p) for square algorithms.
  std::size_t base_linear_ops() const;

  /// Leading coefficient of the flop count (square algorithms only):
  /// flops(N) = coef * N^{log_n t} - (coef - 1) * N^2 for N a power of n.
  double leading_coefficient() const;

  /// The exponent log_base(t), e.g. log2(7) for Strassen.
  double omega() const;

  /// Exact Brent-equation check: !first_brent_violation().
  bool is_valid() const;

  /// First violated Brent equation with its residual, or nullopt: the
  /// scheme verifier bilinear::first_brent_violation on this algorithm.
  std::optional<std::string> first_brent_violation() const;

  /// Encoder bipartite graph (Lemma 3.1's G = (X, Y, E)): left = the n*m
  /// (or m*p) input arguments, right = the t products; edge iff the
  /// coefficient is nonzero.
  graph::BipartiteGraph encoder_bipartite(Side side) const;

  /// Row supports of U (side A) or V (side B) — the "neighbor sets" of
  /// products, used by the Lemma 3.3 checker.
  std::vector<std::vector<std::size_t>> product_supports(Side side) const;

  /// The transpose-dual algorithm: computes C^T = B^T A^T, yielding a
  /// valid <p,m,n;t>-algorithm with permuted coefficient matrices.  For
  /// 2x2 base cases this produces structurally different (but equally
  /// valid) algorithms, exercising the paper's "any fast matrix
  /// multiplication algorithm with 2x2 base case" generality.
  BilinearAlgorithm transpose_dual() const;

  /// Tensor (Kronecker) product: <n1*n2, m1*m2, p1*p2; t1*t2>.
  static BilinearAlgorithm tensor(const BilinearAlgorithm& a,
                                  const BilinearAlgorithm& b);

 private:
  std::string name_;
  std::size_t n_, m_, p_;
  IntMat u_, v_, w_;
  LinearCircuit enc_a_, enc_b_, dec_;
};

}  // namespace fmm::bilinear
