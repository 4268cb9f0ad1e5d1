// Deterministic pseudo-random number generation.
//
// All randomized certifiers (dominator-set sampling, random Z subsets,
// random matrices) must be reproducible across runs and platforms, so we
// ship our own xoshiro256** instead of relying on std::mt19937's
// distribution behaviour (std distributions are not cross-platform
// deterministic).
#pragma once

#include <cstdint>
#include <vector>

namespace fmm {

/// xoshiro256** by Blackman & Vigna, seeded via SplitMix64.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform integer in [0, bound) using unbiased rejection; bound >= 1.
  std::uint64_t uniform(std::uint64_t bound);

  /// uniform(bound) whose first raw draw, `r`, was taken before `bound`
  /// was known: returns what uniform(bound) returns after drawing r,
  /// drawing again exactly when uniform would.
  std::uint64_t uniform_from(std::uint64_t r, std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_double();

  /// Uniform double in [lo, hi).
  double uniform_double(double lo, double hi);

  /// True with probability p.
  bool bernoulli(double p);

  /// A uniformly random k-subset of {0, ..., n-1}, sorted ascending.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace fmm
