// Unit tests for src/util: RNG, fp16, hashing, strings, histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/fp16.hpp"
#include "util/hash.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mcqa::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42, 7);
  Rng b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(42);
  Rng b(43);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 1);
  Rng b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(1);
  for (std::uint32_t bound : {1u, 2u, 3u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.bounded(bound), bound);
    }
  }
}

TEST(Rng, BoundedZeroAndOne) {
  Rng rng(1);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerate) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_EQ(rng.uniform_int(9, 2), 9);  // hi < lo clamps to lo
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, ZipfSkewsLow) {
  Rng rng(13);
  std::size_t low = 0;
  const std::size_t n = 10000;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = rng.zipf(100, 1.2);
    EXPECT_LT(k, 100u);
    low += (k < 10) ? 1 : 0;
  }
  // Rank 0-9 should dominate under a Zipf law.
  EXPECT_GT(low, n / 2);
}

TEST(Rng, ZipfSingleton) {
  Rng rng(13);
  EXPECT_EQ(rng.zipf(1), 0u);
  EXPECT_EQ(rng.zipf(0), 0u);
}

TEST(Rng, ForkIndependence) {
  const Rng parent(99);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  Rng a2 = parent.fork(1);
  EXPECT_EQ(a(), a2());  // same salt -> same stream
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkByStringMatchesSameString) {
  const Rng parent(99);
  Rng a = parent.fork("doc_1");
  Rng b = parent.fork("doc_1");
  Rng c = parent.fork("doc_2");
  EXPECT_EQ(a(), b());
  Rng a3 = parent.fork("doc_1");
  EXPECT_NE(a3(), c());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(21);
  const auto sample = rng.sample_indices(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : sample) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleIndicesClampsToN) {
  Rng rng(21);
  EXPECT_EQ(rng.sample_indices(5, 10).size(), 5u);
  EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng rng(33);
  const std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_pick(w), 1u);
}

TEST(Rng, WeightedPickAllZeroReturnsSize) {
  Rng rng(33);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_EQ(rng.weighted_pick(w), 2u);
  EXPECT_EQ(rng.weighted_pick({}), 0u);
}

TEST(Rng, WeightedPickProportions) {
  Rng rng(37);
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 10000; ++i) ones += rng.weighted_pick(w) == 1 ? 1 : 0;
  EXPECT_NEAR(ones / 10000.0, 0.75, 0.03);
}

// --- fp16 ---------------------------------------------------------------------

TEST(Fp16, ExactValuesRoundTrip) {
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -2.5f, 1024.0f}) {
    EXPECT_EQ(fp16_to_float(float_to_fp16(f)), f) << f;
  }
}

TEST(Fp16, SignedZero) {
  EXPECT_EQ(float_to_fp16(0.0f), 0x0000);
  EXPECT_EQ(float_to_fp16(-0.0f), 0x8000);
}

TEST(Fp16, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(fp16_to_float(float_to_fp16(inf)), inf);
  EXPECT_EQ(fp16_to_float(float_to_fp16(-inf)), -inf);
  EXPECT_TRUE(std::isnan(fp16_to_float(
      float_to_fp16(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Fp16, OverflowSaturatesToInf) {
  EXPECT_TRUE(std::isinf(fp16_to_float(float_to_fp16(1e6f))));
}

TEST(Fp16, UnderflowToZero) {
  EXPECT_EQ(fp16_to_float(float_to_fp16(1e-9f)), 0.0f);
}

TEST(Fp16, SubnormalHalfValues) {
  // Smallest positive half subnormal: 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_NEAR(fp16_to_float(float_to_fp16(tiny)), tiny, tiny * 0.01);
}

class Fp16ErrorBound : public ::testing::TestWithParam<float> {};

TEST_P(Fp16ErrorBound, RelativeErrorWithinHalfUlp) {
  const float f = GetParam();
  const float back = fp16_to_float(float_to_fp16(f));
  // Half precision has 11 significand bits: rel error <= 2^-11.
  EXPECT_LE(std::fabs(back - f), std::fabs(f) * 0x1.0p-11 + 1e-12f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fp16ErrorBound,
                         ::testing::Values(0.1f, 0.333f, 3.14159f, 17.29f,
                                           -0.777f, 123.456f, 0.001f,
                                           -4096.5f, 65000.0f));

TEST(Fp16, VectorQuantizeDequantize) {
  const std::vector<float> v{0.1f, -0.5f, 2.0f, 0.0f};
  const auto q = quantize_fp16(v);
  const auto d = dequantize_fp16(q);
  ASSERT_EQ(d.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(d[i], v[i], std::fabs(v[i]) * 0.001 + 1e-6);
  }
}

// --- hash ---------------------------------------------------------------------

TEST(Hash, Fnv1aStableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), kFnvOffset64);
  // Same input same hash, different input different hash.
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
}

TEST(Hash, IntegerOverloadDiffersFromString) {
  EXPECT_NE(fnv1a64(std::uint64_t{1}), fnv1a64(std::uint64_t{2}));
}

TEST(Hash, CombineNotCommutative) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, HexDigestWidthAndChars) {
  const std::string d = hex_digest(0xdeadbeefULL, 12);
  EXPECT_EQ(d.size(), 12u);
  EXPECT_EQ(d.substr(4), "deadbeef");
  EXPECT_EQ(hex_digest(0xfULL, 1), "f");
  EXPECT_EQ(hex_digest(0xabcULL, 16).size(), 16u);
}

TEST(Hash, IncrementalMatchesOneShotAtEverySplitPoint) {
  // The property the streaming embedder rests on: FNV-1a has no
  // finalization, so hashing any prefix/suffix split piecewise equals
  // hashing the whole string at once.
  const std::string s = "the quick brown fox jumps over 13 lazy dogs.";
  const std::uint64_t want = fnv1a64(s);
  for (std::size_t cut = 0; cut <= s.size(); ++cut) {
    Fnv1a h;
    h.update(std::string_view(s).substr(0, cut));
    h.update(std::string_view(s).substr(cut));
    EXPECT_EQ(h.digest(), want) << "split at " << cut;
  }
}

TEST(Hash, IncrementalByteFeedingMatchesOneShot) {
  const std::string s = "piecewise";
  Fnv1a h;
  for (const char c : s) h.update(c);
  EXPECT_EQ(h.digest(), fnv1a64(s));
  // Empty updates are identity.
  Fnv1a e;
  e.update(std::string_view{});
  EXPECT_EQ(e.digest(), kFnvOffset64);
}

TEST(Hash, IncrementalRespectsSeed) {
  const std::uint64_t seed = 0xb10cfee1u;
  Fnv1a h(seed);
  h.update("abc");
  EXPECT_EQ(h.digest(), fnv1a64("abc", seed));
  EXPECT_NE(h.digest(), fnv1a64("abc"));
}

TEST(Hash, BigramCompositionMatchesJoinedString) {
  // Exactly how embed() hashes a word bigram without materializing it.
  Fnv1a h;
  h.update("hello").update(' ').update("world");
  EXPECT_EQ(h.digest(), fnv1a64("hello world"));
}

// --- strings -------------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  hello   world \t\n x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_upper("gy"), "GY");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("%SPDF-1.2", "%SPDF-"));
  EXPECT_FALSE(starts_with("abc", "abcd"));
  EXPECT_TRUE(ends_with("file.spdf", ".spdf"));
  EXPECT_FALSE(ends_with("x", "xx"));
}

TEST(Strings, ContainsCi) {
  EXPECT_TRUE(contains_ci("The Half-Life of Iodine", "half-life"));
  EXPECT_FALSE(contains_ci("abc", "abd"));
  EXPECT_TRUE(contains_ci("anything", ""));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Strings, FormatParamCount) {
  EXPECT_EQ(format_param_count(7.0), "7 B");
  EXPECT_EQ(format_param_count(1.1), "1.1 B");
}

TEST(Strings, EditDistance) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("", "abc"), 3u);
}

// Textbook Levenshtein over the full (|a|+1) x (|b|+1) table: the oracle
// for both of edit_distance's paths.
std::size_t textbook_edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::vector<std::size_t>> d(a.size() + 1,
                                          std::vector<std::size_t>(b.size() + 1));
  for (std::size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

// Random pairs at lengths 0-130, so the shorter string falls on either
// side of the bit-parallel path's 64-byte limit, over a 3-letter
// alphabet (many matches) and over all 256 byte values (bytes >= 0x80
// index the match masks).  Half the pairs are an edited copy, which
// keeps distances small over the wide alphabet too.
TEST(Strings, EditDistanceMatchesTextbookDp) {
  Rng rng(0xed17d157ULL);
  for (const std::uint32_t alphabet : {3u, 256u}) {
    const auto byte = [&] {
      return static_cast<char>(alphabet == 3 ? 'a' + rng.bounded(3)
                                             : rng.bounded(256));
    };
    for (int trial = 0; trial < 1500; ++trial) {
      std::string a(rng.bounded(131), '\0');
      for (char& c : a) c = byte();
      std::string b;
      if (trial % 2 == 0) {
        b.assign(rng.bounded(131), '\0');
        for (char& c : b) c = byte();
      } else {
        b = a;
        for (std::uint32_t e = rng.bounded(8); e > 0; --e) {
          const std::size_t at =
              rng.bounded(static_cast<std::uint32_t>(b.size() + 1));
          const std::uint32_t op = rng.bounded(3);
          if (op == 0) {
            b.insert(at, 1, byte());
          } else if (at < b.size()) {
            if (op == 1) {
              b.erase(at, 1);
            } else {
              b[at] = byte();
            }
          }
        }
      }
      const std::size_t want = textbook_edit_distance(a, b);
      ASSERT_EQ(edit_distance(a, b), want) << a.size() << " x " << b.size();
      ASSERT_EQ(edit_distance(b, a), want) << b.size() << " x " << a.size();
      const std::size_t longest = std::max(a.size(), b.size());
      const double sim =
          longest == 0 ? 1.0
                       : 1.0 - static_cast<double>(want) /
                                   static_cast<double>(longest);
      ASSERT_EQ(string_similarity(a, b), sim);
    }
  }
}

TEST(Strings, EditDistanceAtTheWordBoundary) {
  // Pattern lengths 63, 64 and 65 against texts around them: the
  // bit-parallel path's top bit and the DP fallback.
  Rng rng(64);
  for (const std::size_t m : {1u, 63u, 64u, 65u}) {
    for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 130u}) {
      for (int trial = 0; trial < 20; ++trial) {
        std::string a(m, '\0');
        std::string b(n, '\0');
        for (char& c : a) c = static_cast<char>('a' + rng.bounded(2));
        for (char& c : b) c = static_cast<char>('a' + rng.bounded(2));
        ASSERT_EQ(edit_distance(a, b), textbook_edit_distance(a, b))
            << m << " x " << n;
      }
    }
  }
  EXPECT_EQ(edit_distance(std::string(64, 'x'), std::string(64, 'y')), 64u);
  EXPECT_EQ(edit_distance(std::string(64, 'x'), ""), 64u);
  EXPECT_EQ(edit_distance(std::string(64, 'x'), std::string(65, 'x')), 1u);
  EXPECT_EQ(BitPattern(std::string(64, 'x')).distance("xx"), 62u);
  EXPECT_THROW(BitPattern(std::string(65, 'x')), std::length_error);
}

TEST(Strings, StringSimilarityBounds) {
  EXPECT_DOUBLE_EQ(string_similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(string_similarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(string_similarity("abc", "xyz"), 0.0);
  const double s = string_similarity("cisplatin", "cisplatim");
  EXPECT_GT(s, 0.8);
  EXPECT_LT(s, 1.0);
}

// --- histogram ------------------------------------------------------------------

TEST(SummaryStats, BasicMoments) {
  SummaryStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(SummaryStats, MergeMatchesCombined) {
  SummaryStats a;
  SummaryStats b;
  SummaryStats whole;
  for (int i = 0; i < 10; ++i) {
    const double x = i * 0.7;
    (i % 2 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps into bin 0
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.quantile(0.0), 0.5, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 99.5, 1.0);
}

TEST(Histogram, ExactQuantilesNearestRank) {
  Histogram h(0.0, 100.0, 10);  // coarse bins: exact path must not round
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.p50(), 50.0);
  EXPECT_EQ(h.p95(), 95.0);
  EXPECT_EQ(h.p99(), 99.0);
  EXPECT_EQ(h.exact_quantile(0.0), 1.0);
  EXPECT_EQ(h.exact_quantile(1.0), 100.0);
}

TEST(Histogram, ExactQuantilesSmallSamples) {
  Histogram h(0.0, 10.0, 4);
  h.add(7.0);
  EXPECT_EQ(h.p50(), 7.0);  // single sample is every quantile
  EXPECT_EQ(h.p99(), 7.0);
  h.add(3.0);  // out-of-order insert: quantiles still sort
  EXPECT_EQ(h.p50(), 3.0);  // nearest-rank: ceil(0.5*2) = rank 1
  EXPECT_EQ(h.p99(), 7.0);
}

TEST(Histogram, ExactQuantilesOutlierBeyondBinRange) {
  Histogram h(0.0, 10.0, 4);
  h.add(5.0);
  h.add(5000.0);  // clamped in the bins, exact in the quantiles
  EXPECT_EQ(h.exact_quantile(1.0), 5000.0);
  EXPECT_EQ(h.p99(), 5000.0);
}

TEST(Histogram, ExactQuantilesEmptyIsZero) {
  const Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p95(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.p999(), 0.0);
}

TEST(Histogram, P999NearestRankBoundaries) {
  // Below 1000 samples the nearest-rank p99.9 is the maximum: with n
  // samples the rank is ceil(0.999 * n), which stays n until n >= 1001.
  Histogram small(0.0, 100.0, 4);
  for (int i = 1; i <= 999; ++i) small.add(static_cast<double>(i));
  EXPECT_EQ(small.p999(), 999.0);

  // At n = 1000 the 0.999 rank is exactly 999 (an exact-boundary rank:
  // ceil(999.0) must not round up to 1000).
  Histogram exact(0.0, 2000.0, 4);
  for (int i = 1; i <= 1000; ++i) exact.add(static_cast<double>(i));
  EXPECT_EQ(exact.p999(), 999.0);
  EXPECT_EQ(exact.exact_quantile(1.0), 1000.0);

  // Past the boundary one outlier in 2000 samples no longer moves p99.9
  // off the bulk: rank ceil(0.999 * 2000) = 1998.
  Histogram big(0.0, 10.0, 4);
  for (int i = 0; i < 1999; ++i) big.add(1.0);
  big.add(5000.0);
  EXPECT_EQ(big.p999(), 1.0);
  EXPECT_EQ(big.exact_quantile(1.0), 5000.0);
}

TEST(Histogram, P999SingleSampleAndOne) {
  Histogram h(0.0, 10.0, 4);
  h.add(4.0);
  EXPECT_EQ(h.p999(), 4.0);  // n = 1: every quantile is the sample
  EXPECT_EQ(h.exact_quantile(0.0), 4.0);
  EXPECT_EQ(h.exact_quantile(1.0), 4.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, RenderNonEmpty) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
}

}  // namespace
}  // namespace mcqa::util
