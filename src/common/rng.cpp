#include "common/rng.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace fmm {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seeded by the sequential SplitMix64 generator.
  for (auto& s : s_) {
    seed += kSplitMixGamma;
    s = splitmix64_finalize(seed);
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  FMM_CHECK(bound >= 1);
  return uniform_from((*this)(), bound);
}

std::uint64_t Rng::uniform_from(std::uint64_t r, std::uint64_t bound) {
  FMM_CHECK(bound >= 1);
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  while (r < threshold) {
    r = (*this)();
  }
  return r % bound;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FMM_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_double(double lo, double hi) {
  FMM_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform_double();
}

bool Rng::bernoulli(double p) {
  return uniform_double() < p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  FMM_CHECK_MSG(k <= n, "cannot sample " << k << " of " << n);
  // Floyd's algorithm: O(k) expected insertions.
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(uniform(j + 1));
    if (std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(t);
    } else {
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fmm
