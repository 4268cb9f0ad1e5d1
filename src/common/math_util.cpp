#include "common/math_util.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace fmm {

bool is_power_of(std::int64_t v, std::int64_t base) {
  if (v < 1 || base < 2) {
    return false;
  }
  while (v % base == 0) {
    v /= base;
  }
  return v == 1;
}

int ilog2_floor(std::uint64_t x) {
  FMM_CHECK(x >= 1);
  int r = 0;
  while (x >>= 1) {
    ++r;
  }
  return r;
}

int ilog2_ceil(std::uint64_t x) {
  FMM_CHECK(x >= 1);
  const int f = ilog2_floor(x);
  return is_pow2(x) ? f : f + 1;
}

std::uint64_t next_pow2(std::uint64_t x) {
  FMM_CHECK(x >= 1);
  if (is_pow2(x)) {
    return x;
  }
  const int c = ilog2_ceil(x);
  FMM_CHECK(c < 64);
  return std::uint64_t{1} << c;
}

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  FMM_CHECK(b != 0);
  return (a + b - 1) / b;
}

std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  FMM_CHECK_MSG(!__builtin_add_overflow(a, b, &out),
                "int64 overflow in " << a << " + " << b);
  return out;
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  FMM_CHECK_MSG(!__builtin_mul_overflow(a, b, &out),
                "int64 overflow in " << a << " * " << b);
  return out;
}

std::int64_t checked_pow(std::int64_t base, int exp) {
  FMM_CHECK(exp >= 0);
  std::int64_t result = 1;
  for (int i = 0; i < exp; ++i) {
    result = checked_mul(result, base);
  }
  return result;
}

std::int64_t pow7(int k) {
  FMM_CHECK_MSG(k >= 0 && k <= 22, "7^" << k << " exceeds int64");
  return checked_pow(7, k);
}

double fpow(double x, double e) {
  FMM_CHECK_MSG(x >= 0.0, "fpow requires non-negative base, got " << x);
  if (x == 0.0) {
    return 0.0;
  }
  return std::pow(x, e);
}

std::int64_t gcd_i64(std::int64_t a, std::int64_t b) {
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    const std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

}  // namespace fmm
