// Small exact-integer and floating-point helpers used across the library.
//
// The lower-bound formulas of the paper involve quantities like
// (n/sqrt(M))^{log2 7} * M; we provide numerically careful helpers so that
// bound evaluation is reproducible and overflow-checked where exact counts
// are required (operation counting uses 64-bit saturating arithmetic with
// explicit checks).
#pragma once

#include <cstdint>

namespace fmm {

/// log2(7): the exponent ω0 of 2x2-base-case fast matrix multiplication.
inline constexpr double kOmega0 = 2.807354922057604;  // log2(7)

/// True iff `x` is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// True iff v == base^k for some k >= 0 (false for v < 1 or base < 2).
bool is_power_of(std::int64_t v, std::int64_t base);

/// floor(log2(x)); requires x >= 1.
int ilog2_floor(std::uint64_t x);

/// ceil(log2(x)); requires x >= 1.
int ilog2_ceil(std::uint64_t x);

/// Smallest power of two >= x; requires x >= 1 and result representable.
std::uint64_t next_pow2(std::uint64_t x);

/// ceil(a / b) for positive integers.
std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b);

/// a*b as int64, throwing CheckError on overflow.  The canonical
/// overflow-checked multiply: anything computing exact counts from grid
/// parameters (n, M) must go through this so huge cells fail loudly
/// instead of silently wrapping.
std::int64_t checked_mul(std::int64_t a, std::int64_t b);

/// base^exp as int64 (exp >= 0), throwing CheckError on overflow.
std::int64_t checked_pow(std::int64_t base, int exp);

/// a+b as int64, throwing CheckError on overflow.
std::int64_t checked_add(std::int64_t a, std::int64_t b);

/// 7^k as int64 with overflow check (k <= 22).
std::int64_t pow7(int k);

/// Floating-point x^e via exp/log, with x>0 required; returns 0 for x==0.
double fpow(double x, double e);

/// Greatest common divisor of |a| and |b| (gcd(0,0) == 0).
std::int64_t gcd_i64(std::int64_t a, std::int64_t b);

}  // namespace fmm
