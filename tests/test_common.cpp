// Unit tests for src/common: checked math, RNG determinism, tables, the
// byte-level contracts of the shared JSON and hash primitives, and the
// max-bitset against std::set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/max_bitset.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "fabric/router.hpp"
#include "sweep/sweep.hpp"

namespace fmm {
namespace {

TEST(Check, ThrowsWithContext) {
  try {
    FMM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FMM_CHECK(2 + 2 == 4));
}

TEST(MathUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 62));
  EXPECT_FALSE(is_pow2((1ull << 62) + 1));
}

TEST(MathUtil, IsPowerOf) {
  EXPECT_TRUE(is_power_of(1, 7));
  EXPECT_TRUE(is_power_of(343, 7));
  EXPECT_TRUE(is_power_of(81, 3));
  EXPECT_TRUE(is_power_of(1ll << 62, 2));
  EXPECT_FALSE(is_power_of(0, 2));
  EXPECT_FALSE(is_power_of(-8, 2));
  EXPECT_FALSE(is_power_of(12, 2));
  EXPECT_FALSE(is_power_of(9, 1));
}

TEST(MathUtil, Ilog2Floor) {
  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(4), 2);
  EXPECT_EQ(ilog2_floor(1023), 9);
  EXPECT_EQ(ilog2_floor(1024), 10);
}

TEST(MathUtil, Ilog2Ceil) {
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(2), 1);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(1025), 11);
}

TEST(MathUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 100), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

TEST(MathUtil, IpowChecked) {
  EXPECT_EQ(checked_pow(2, 10), 1024);
  EXPECT_EQ(checked_pow(7, 0), 1);
  EXPECT_EQ(checked_pow(-3, 3), -27);
  EXPECT_THROW(checked_pow(10, 40), CheckError);
}

TEST(MathUtil, MulAddOverflow) {
  EXPECT_EQ(checked_mul(1 << 20, 1 << 20), 1ll << 40);
  EXPECT_THROW(checked_mul(INT64_MAX, 2), CheckError);
  EXPECT_THROW(checked_add(INT64_MAX, 1), CheckError);
}

TEST(MathUtil, CheckedMulAddPow) {
  EXPECT_EQ(checked_mul(1ll << 31, 1ll << 31), 1ll << 62);
  EXPECT_EQ(checked_mul(-3, 7), -21);
  EXPECT_THROW(checked_mul(1ll << 32, 1ll << 32), CheckError);
  EXPECT_THROW(checked_mul(INT64_MIN, -1), CheckError);

  EXPECT_EQ(checked_add(INT64_MAX - 1, 1), INT64_MAX);
  EXPECT_THROW(checked_add(INT64_MAX, 1), CheckError);
  EXPECT_THROW(checked_add(INT64_MIN, -1), CheckError);

  EXPECT_EQ(checked_pow(7, 6), 117649);
  EXPECT_EQ(checked_pow(2, 62), 1ll << 62);
  EXPECT_EQ(checked_pow(123, 0), 1);
  EXPECT_THROW(checked_pow(2, 63), CheckError);
  EXPECT_THROW(checked_pow(7, 30), CheckError);
}

TEST(MathUtil, Pow7) {
  EXPECT_EQ(pow7(0), 1);
  EXPECT_EQ(pow7(3), 343);
  EXPECT_EQ(pow7(6), 117649);
  EXPECT_THROW(pow7(23), CheckError);
}

TEST(MathUtil, Omega0Value) {
  EXPECT_NEAR(kOmega0, std::log2(7.0), 1e-12);
}

TEST(MathUtil, Gcd) {
  EXPECT_EQ(gcd_i64(12, 18), 6);
  EXPECT_EQ(gcd_i64(-12, 18), 6);
  EXPECT_EQ(gcd_i64(0, 7), 7);
  EXPECT_EQ(gcd_i64(0, 0), 0);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  // Golden values: every seeded schedule, sample and fault draw in the
  // repository descends from these streams.
  const auto first4 = [](Rng rng) {
    return std::vector<std::uint64_t>{rng(), rng(), rng(), rng()};
  };
  EXPECT_EQ(first4(Rng(0)),
            (std::vector<std::uint64_t>{
                0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL,
                0x1a5f849d4933e6e0ULL, 0x6aa594f1262d2d2cULL}));
  EXPECT_EQ(first4(Rng(42)),
            (std::vector<std::uint64_t>{
                0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
                0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL}));
  EXPECT_EQ(Rng()(), 0x422ea740d0977210ULL);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b());
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.uniform(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 8u);
  for (const std::size_t s : sample) {
    EXPECT_LT(s, 20u);
  }
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
}

TEST(Rng, SampleFullSet) {
  Rng rng(17);
  const auto sample = rng.sample_without_replacement(5, 5);
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(19);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Rng, Shuffle) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), w.begin()));
}

TEST(Table, ConsoleRendering) {
  Table t({"a", "bb"});
  t.begin_row();
  t.add_cell("x");
  t.add_cell(std::int64_t{42});
  std::ostringstream oss;
  t.print_console(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("--"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  Table t({"col"});
  t.begin_row();
  t.add_cell(3.14159);
  std::ostringstream oss;
  t.print_markdown(oss);
  EXPECT_NE(oss.str().find("| col |"), std::string::npos);
  EXPECT_NE(oss.str().find("3.142"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"c"});
  t.begin_row();
  t.add_cell(std::string("a,b\"c"));
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_NE(oss.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, IncompleteRowThrows) {
  Table t({"a", "b"});
  t.begin_row();
  t.add_cell("only-one");
  std::ostringstream oss;
  EXPECT_THROW(t.print_console(oss), CheckError);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"a"});
  t.begin_row();
  t.add_cell("1");
  EXPECT_THROW(t.add_cell("2"), CheckError);
}

TEST(Table, AddRowAtOnce) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row({"only"}), CheckError);
}

TEST(FormatHelpers, Doubles) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(1234567.0), "1.235e+06");
  EXPECT_EQ(format_ratio(1.5), "1.50x");
}

TEST(Json, EscapePinsEveryByteClass) {
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\\"), "\\\\");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("\r"), "\\u000d");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
  // Multibyte UTF-8 ("é" and "€") passes through byte for byte.
  EXPECT_EQ(json_escape("h\xc3\xa9 \xe2\x82\xac"), "h\xc3\xa9 \xe2\x82\xac");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
}

TEST(Json, WriteDoubleIsTwelveSignificantDigits) {
  const auto render = [](double value) {
    std::ostringstream os;
    write_double(os, value);
    return os.str();
  };
  EXPECT_EQ(render(2.0), "2");
  EXPECT_EQ(render(0.1), "0.1");
  EXPECT_EQ(render(kOmega0), "2.80735492206");
  EXPECT_EQ(render(1e20), "1e+20");
  EXPECT_EQ(render(std::nan("")), "null");
  EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, DumpReproducesCanonicalText) {
  const std::string text =
      "{\"a\": [1, -2.5e3, \"x\\\"y\\u0001\"], \"b\": null, \"c\": true, "
      "\"d\": {}, \"e\": 18446744073709551615}";
  EXPECT_EQ(parse_json(text).dump(), text);
}

TEST(Hash, SplitMixGoldenValues) {
  // Captured before the SplitMix64 copies were merged into common/hash.
  EXPECT_EQ(splitmix64(0, 0, 0), 0xe4bacea5c4b9b499ULL);
  EXPECT_EQ(splitmix64(1, 2, 3), 0xa36ffc56813bbaf5ULL);
  EXPECT_EQ(splitmix64(42, 7), 0x030c4f4c49796281ULL);
  EXPECT_EQ(splitmix64(0xdeadbeefULL, 123456789, 99), 0x2f869b9f1c31d866ULL);
  EXPECT_EQ(splitmix_unit(42, 0), 0.97556707434287415);
  EXPECT_EQ(splitmix_unit(7, 1, 2), 0.88140802133081075);
  EXPECT_EQ(sweep::task_seed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(sweep::task_seed(1, 5), 0xc34d0bff90150280ULL);
  EXPECT_EQ(sweep::task_seed(0xfeedfaceULL, 1000), 0xa258099cddb66c1bULL);
}

TEST(Hash, FnvGoldenValues) {
  // Captured before the FNV-1a copies were merged into common/hash.
  EXPECT_EQ(fingerprint64(""), "cbf29ce484222325");
  EXPECT_EQ(fingerprint64("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(fingerprint64("abc"), "e71fa2190541574b");
  EXPECT_EQ(fingerprint64("strassen|64"), "0b0a23b7ff1ff8fc");
  EXPECT_EQ(fnv1a64("abc", kFnvOffsetBasis), 0xe71fa2190541574bULL);
  // The routing / shard-hash basis.
  EXPECT_EQ(fnv1a64("", kFnvTruncatedBasis), 0x14650fb0739d0383ULL);
  EXPECT_EQ(fnv1a64("a", kFnvTruncatedBasis), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(fnv1a64("strassen", kFnvTruncatedBasis), 0x3c8f619676f521a0ULL);
  const std::vector<bool> alive(4, true);
  EXPECT_EQ(fabric::Router::pick_worker("a", alive), 1u);
  EXPECT_EQ(fabric::Router::pick_worker("strassen", alive), 3u);
  EXPECT_EQ(fabric::Router::pick_worker("{\"op\": \"simulate\"}", alive), 1u);
}

TEST(MaxBitset, MatchesStdSetAtEveryLevelBoundary) {
  EXPECT_TRUE(MaxBitset(0).empty());
  // Either side of 64, 64^2 and 64^3 elements: one to four levels.
  for (const std::uint64_t universe :
       {1u, 64u, 65u, 4096u, 4097u, 262144u, 262145u}) {
    MaxBitset bits(universe);
    std::set<std::uint64_t> model;
    Rng rng(universe);
    // A third of the values lie near each end of the range, where the
    // partial words at each level sit.
    const std::uint64_t edge = std::min<std::uint64_t>(universe, 130);
    const auto pick = [&] {
      switch (rng.uniform(3)) {
        case 0:
          return rng.uniform(edge);
        case 1:
          return universe - 1 - rng.uniform(edge);
        default:
          return rng.uniform(universe);
      }
    };
    // Alternate filling and draining phases; a third of the draining
    // erases take the maximum, so find-max descends through fresh words.
    for (int op = 0; op < 8000; ++op) {
      const bool filling = (op / 1000) % 2 == 0;
      if (rng.uniform(10) < (filling ? 8u : 2u)) {
        const std::uint64_t x = pick();
        bits.insert(x);
        model.insert(x);
      } else if (!model.empty() && rng.uniform(3) == 0) {
        bits.erase(*model.rbegin());
        model.erase(std::prev(model.end()));
      } else {
        const std::uint64_t x = pick();
        bits.erase(x);
        model.erase(x);
      }
      ASSERT_EQ(bits.empty(), model.empty()) << universe << " op " << op;
      if (!model.empty()) {
        ASSERT_EQ(bits.max(), *model.rbegin()) << universe << " op " << op;
      }
    }
    while (!model.empty()) {
      ASSERT_EQ(bits.max(), *model.rbegin()) << universe;
      bits.erase(bits.max());
      model.erase(std::prev(model.end()));
    }
    EXPECT_TRUE(bits.empty()) << universe;
  }
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  (void)sink;
  EXPECT_GE(sw.nanoseconds(), 0);
  EXPECT_GE(sw.seconds(), 0.0);
}

}  // namespace
}  // namespace fmm
