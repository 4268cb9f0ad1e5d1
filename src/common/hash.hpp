// The repository's two non-cryptographic hashes, one definition each.
//
//   - SplitMix64 (Steele, Lea & Flood): the finalizer plus the stateless
//     keyed mix splitmix64(seed, a, b) behind every seeded decision —
//     fault injection, chaos drops, sweep task seeds, Rng seeding and
//     the fabric's rendezvous weights.
//   - FNV-1a 64: content fingerprints (scheme files, sweep specs, cache
//     keys), the fabric's routing key and the cache's shard choice.
//
// Every output is pinned by golden values in tests/test_common.cpp: task
// seeds, fingerprints and routing choices are part of the byte-identity
// contract, so these bodies must never change.  Header-only and inline
// because the rendezvous hash and the cache shard hash sit on the
// per-request path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace fmm {

/// SplitMix64's golden-ratio increment.
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;
/// SplitMix64's two finalizer multipliers.
inline constexpr std::uint64_t kSplitMixMul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kSplitMixMul2 = 0x94d049bb133111ebULL;
/// FNV-1a 64-bit offset basis and prime.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
/// The decimal offset basis 14695981039346656037 with its last digit
/// dropped.  The fabric's routing key, the cache's shard hash and the
/// fmm.snap checksum were all written against it; worker choice, shard
/// placement and every published snapshot depend on it, so it stays.
inline constexpr std::uint64_t kFnvTruncatedBasis = 1469598103934665603ULL;

/// The SplitMix64 output finalizer (no state increment).
constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * kSplitMixMul1;
  z = (z ^ (z >> 27)) * kSplitMixMul2;
  return z ^ (z >> 31);
}

/// SplitMix64 mix of (seed, a, b): one finalization per key, so decision
/// k of stream (seed, a) never depends on how many other streams were
/// consumed.
constexpr std::uint64_t splitmix64(std::uint64_t seed, std::uint64_t a,
                                   std::uint64_t b = 0) {
  return splitmix64_finalize(seed + kSplitMixGamma * (a + 1) +
                             kSplitMixMul1 * (b + 1));
}

/// Uniform double in [0, 1) from the top 53 bits of splitmix64.
constexpr double splitmix_unit(std::uint64_t seed, std::uint64_t a,
                               std::uint64_t b = 0) {
  return static_cast<double>(splitmix64(seed, a, b) >> 11) * 0x1.0p-53;
}

/// FNV-1a 64 of `text`, starting from `basis` (kFnvOffsetBasis or
/// kFnvTruncatedBasis).
constexpr std::uint64_t fnv1a64(std::string_view text, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (const char ch : text) {
    hash = (hash ^ static_cast<unsigned char>(ch)) * kFnvPrime;
  }
  return hash;
}

/// fnv1a64 rendered as 16 lowercase hex digits — the content
/// fingerprint of scheme files, sweep specs and cache keys.
inline std::string fingerprint64(std::string_view text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    fnv1a64(text, kFnvOffsetBasis)));
  return std::string(buf);
}

}  // namespace fmm
