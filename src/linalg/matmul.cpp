#include "linalg/matmul.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "common/math_util.hpp"

namespace fmm::linalg {

Mat multiply_naive(const Mat& a, const Mat& b) {
  FMM_CHECK_MSG(a.cols() == b.rows(), "shape mismatch " << a.cols() << " vs "
                                                        << b.rows());
  Mat c(a.rows(), b.cols(), 0.0);
  multiply_accumulate(a.view(), b.view(), c.view());
  return c;
}

void multiply_accumulate(ConstMatView a, ConstMatView b, MatView c) {
  FMM_CHECK(a.cols() == b.rows() && c.rows() == a.rows() &&
            c.cols() == b.cols());
  // ikj order: the innermost loop streams rows of B and C.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
}

Mat multiply_blocked(const Mat& a, const Mat& b, std::size_t tile) {
  FMM_CHECK(a.cols() == b.rows());
  FMM_CHECK(tile >= 1);
  Mat c(a.rows(), b.cols(), 0.0);
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t p = b.cols();
  for (std::size_t ii = 0; ii < n; ii += tile) {
    const std::size_t ni = std::min(tile, n - ii);
    for (std::size_t kk = 0; kk < m; kk += tile) {
      const std::size_t nk = std::min(tile, m - kk);
      for (std::size_t jj = 0; jj < p; jj += tile) {
        const std::size_t nj = std::min(tile, p - jj);
        multiply_accumulate(a.block(ii, kk, ni, nk), b.block(kk, jj, nk, nj),
                            c.block(ii, jj, ni, nj));
      }
    }
  }
  return c;
}

Mat multiply_threaded(const Mat& a, const Mat& b, std::size_t num_threads) {
  FMM_CHECK(a.cols() == b.rows());
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  Mat c(a.rows(), b.cols(), 0.0);
  num_threads = std::min(num_threads, std::max<std::size_t>(1, a.rows()));
  const std::size_t band = ceil_div(a.rows(), num_threads);
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    const std::size_t r0 = t * band;
    if (r0 >= a.rows()) {
      break;
    }
    const std::size_t nr = std::min(band, a.rows() - r0);
    workers.emplace_back([&, r0, nr] {
      multiply_accumulate(a.block(r0, 0, nr, a.cols()), b.view(),
                          c.block(r0, 0, nr, b.cols()));
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  return c;
}

std::int64_t classical_flops(std::size_t n, std::size_t m, std::size_t p) {
  const auto ni = static_cast<std::int64_t>(n);
  const auto mi = static_cast<std::int64_t>(m);
  const auto pi = static_cast<std::int64_t>(p);
  const std::int64_t mults = checked_mul(checked_mul(ni, mi), pi);
  const std::int64_t adds = checked_mul(checked_mul(ni, pi), mi - 1);
  return checked_add(mults, adds);
}

}  // namespace fmm::linalg
