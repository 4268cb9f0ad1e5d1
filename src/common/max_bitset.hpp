// A set of integers in [0, n) with insert, erase and find-max in one word
// operation per level: a 64-ary bitset tree.
//
// Level 0 holds one bit per element; each level above holds one bit per
// word of the level below, set iff that word is non-zero, up to a single
// top word.  Insert and erase touch one word per level and stop at the
// first level whose word does not change emptiness; find-max descends from
// the top word with one std::countl_zero per level.  With ceil(log64 n)
// levels (at least one), n = 2^32 needs six.  Memory is n/8 bytes plus
// 1/63 of that for the levels above.
//
// Header-only and inline: the Belady kernel (pebble/machine.cpp) calls it
// on every reference.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fmm {

class MaxBitset {
 public:
  explicit MaxBitset(std::uint64_t universe = 0) { reset(universe); }

  /// Empties the set and sizes it for elements in [0, universe).
  void reset(std::uint64_t universe) {
    levels_ = 0;
    std::size_t total = 0;
    std::uint64_t words = universe;
    do {
      words = words == 0 ? 1 : (words - 1) / 64 + 1;
      begin_[levels_++] = total;
      total += static_cast<std::size_t>(words);
    } while (words > 1);
    words_.assign(total, 0);
  }

  bool empty() const { return words_.back() == 0; }

  /// Adds `i` < universe; a no-op if present.
  void insert(std::uint64_t i) {
    for (std::size_t level = 0; level < levels_; ++level, i >>= 6) {
      std::uint64_t& word = words_[begin_[level] + (i >> 6)];
      const bool was_empty = word == 0;
      word |= std::uint64_t{1} << (i & 63);
      if (!was_empty) {
        return;
      }
    }
  }

  /// Removes `i` < universe; a no-op if absent.
  void erase(std::uint64_t i) {
    for (std::size_t level = 0; level < levels_; ++level, i >>= 6) {
      std::uint64_t& word = words_[begin_[level] + (i >> 6)];
      word &= ~(std::uint64_t{1} << (i & 63));
      if (word != 0) {
        return;
      }
    }
  }

  /// The largest element; the set must not be empty.
  std::uint64_t max() const {
    std::uint64_t i = 0;
    for (std::size_t level = levels_; level-- > 0;) {
      const std::uint64_t word = words_[begin_[level] + i];
      i = i << 6 | static_cast<std::uint64_t>(63 - std::countl_zero(word));
    }
    return i;
  }

 private:
  static constexpr std::size_t kMaxLevels = 11;  // ceil(64 / 6)

  std::vector<std::uint64_t> words_;   // level 0 first, the top word last
  std::size_t begin_[kMaxLevels] = {};  // each level's first word
  std::size_t levels_ = 0;
};

}  // namespace fmm
