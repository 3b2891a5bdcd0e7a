#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace syncon {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(XoshiroTest, IsDeterministicAcrossInstances) {
  Xoshiro256StarStar a(99), b(99);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(XoshiroTest, DifferentSeedsDiffer) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(XoshiroTest, BelowStaysInRange) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(XoshiroTest, BelowHitsEveryResidue) {
  Xoshiro256StarStar rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(XoshiroTest, UniformIsInclusive) {
  Xoshiro256StarStar rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.uniform(10, 12);
    ASSERT_GE(v, 10u);
    ASSERT_LE(v, 12u);
    saw_lo |= (v == 10);
    saw_hi |= (v == 12);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(XoshiroTest, Uniform01InHalfOpenRange) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(XoshiroTest, BernoulliExtremes) {
  Xoshiro256StarStar rng(5);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(XoshiroTest, BernoulliRoughlyCalibrated) {
  Xoshiro256StarStar rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(XoshiroTest, BurstRespectsCap) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t b = rng.burst(0.9, 5);
    ASSERT_GE(b, 1u);
    ASSERT_LE(b, 5u);
  }
}

TEST(XoshiroTest, SampleWithoutReplacementIsSortedAndUnique) {
  Xoshiro256StarStar rng(23);
  for (int i = 0; i < 200; ++i) {
    const auto sample = rng.sample_without_replacement(20, 7);
    ASSERT_EQ(sample.size(), 7u);
    for (std::size_t k = 1; k < sample.size(); ++k) {
      ASSERT_LT(sample[k - 1], sample[k]);
    }
    ASSERT_LT(sample.back(), 20u);
  }
}

TEST(XoshiroTest, SampleAllReturnsIdentity) {
  Xoshiro256StarStar rng(29);
  const auto sample = rng.sample_without_replacement(5, 5);
  ASSERT_EQ(sample.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sample[i], i);
}

TEST(XoshiroTest, SampleRejectsOversizedRequest) {
  Xoshiro256StarStar rng(31);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), ContractViolation);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.7 - 3;
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSetTest, QuantilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSetTest, EmptyQuantileThrows) {
  SampleSet s;
  EXPECT_THROW(s.quantile(0.5), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.max(), ContractViolation);
  EXPECT_THROW(s.mean(), ContractViolation);
}

TEST(SampleSetTest, SingleElementQuantiles) {
  SampleSet s;
  s.add(42.0);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), 42.0);
  }
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(SampleSetTest, AddAfterQuantileInvalidatesMemo) {
  SampleSet s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);  // sorts and memoizes
  s.add(0.0);                          // must invalidate the memo
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
}

TEST(SampleSetTest, MergeDisjointRangesPreservesMinMax) {
  SampleSet lo, hi;
  for (int i = 1; i <= 4; ++i) lo.add(i);        // 1..4
  for (int i = 100; i <= 103; ++i) hi.add(i);    // 100..103
  EXPECT_DOUBLE_EQ(lo.median(), 2.5);            // memoized before merge
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 8u);
  EXPECT_DOUBLE_EQ(lo.min(), 1.0);
  EXPECT_DOUBLE_EQ(lo.max(), 103.0);
  EXPECT_DOUBLE_EQ(lo.median(), 52.0);  // (4 + 100) / 2

  SampleSet empty;
  lo.merge(empty);  // merging an empty set is a no-op
  EXPECT_EQ(lo.count(), 8u);
  empty.merge(lo);
  EXPECT_EQ(empty.count(), 8u);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 103.0);
}

TEST(RunningStatsTest, MergeIntoEmptyAndFromEmpty) {
  RunningStats a, b, empty;
  for (const double v : {1.0, 2.0, 3.0}) b.add(v);
  a.merge(b);  // empty.merge(nonempty) copies
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  a.merge(empty);  // nonempty.merge(empty) is a no-op
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(IntHistogramTest, TracksBoundsAndViolations) {
  IntHistogram h;
  for (const std::uint64_t v : {1u, 2u, 2u, 3u, 8u}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min_value(), 1u);
  EXPECT_EQ(h.max_value(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.2);
  EXPECT_EQ(h.count_above(3), 1u);
  EXPECT_EQ(h.count_above(8), 0u);
  EXPECT_EQ(h.count_above(0), 5u);
}

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.new_row().add_cell(std::string("alpha")).add_cell(std::uint64_t{7});
  t.new_row().add_cell(std::string("b")).add_cell(std::uint64_t{123});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| alpha | 7   |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 123 |"), std::string::npos);
}

TEST(TextTableTest, RejectsTooManyCells) {
  TextTable t({"only"});
  t.new_row().add_cell(std::string("x"));
  EXPECT_THROW(t.add_cell(std::string("y")), ContractViolation);
}

TEST(TextTableTest, RejectsCellWithoutRow) {
  TextTable t({"c"});
  EXPECT_THROW(t.add_cell(std::string("x")), ContractViolation);
}

TEST(WithThousandsTest, GroupsDigits) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
}

TEST(CliParserTest, ParsesOptionsAndFlags) {
  CliParser cli("prog", "test");
  cli.add_option("count", "5", "how many");
  cli.add_option("name", "x", "label");
  cli.add_flag("verbose", "say more");
  const char* argv[] = {"prog", "--count=9", "--name", "hello", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("count"), 9);
  EXPECT_EQ(cli.get("name"), "hello");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(CliParserTest, DefaultsApply) {
  CliParser cli("prog", "test");
  cli.add_option("count", "5", "how many");
  cli.add_flag("verbose", "say more");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_uint("count"), 5u);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(CliParserTest, UnknownOptionFailsParse) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParserTest, RejectsNonNumericValues) {
  CliParser cli("prog", "test");
  cli.add_option("count", "5", "how many");
  cli.add_option("rate", "0.5", "how fast");
  const char* argv[] = {"prog", "--count=abc", "--rate=x"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("count"), ContractViolation);
  EXPECT_THROW(cli.get_double("rate"), ContractViolation);
}

TEST(CliParserTest, RejectsTrailingJunk) {
  CliParser cli("prog", "test");
  cli.add_option("count", "5", "how many");
  cli.add_option("rate", "0.5", "how fast");
  const char* argv[] = {"prog", "--count=12x", "--rate=0.1junk"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("count"), ContractViolation);
  EXPECT_THROW(cli.get_double("rate"), ContractViolation);
}

TEST(CliParserTest, RejectsNegativeForUnsigned) {
  CliParser cli("prog", "test");
  cli.add_option("count", "5", "how many");
  const char* argv[] = {"prog", "--count=-3"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("count"), -3);
  EXPECT_THROW(cli.get_uint("count"), ContractViolation);
}

TEST(CliParserTest, UnsignedCoversTheFullSeedRange) {
  // 64-bit case seeds routinely exceed int64 max; get_uint must not funnel
  // through signed parsing.
  CliParser cli("prog", "test");
  cli.add_option("seed", "1", "campaign seed");
  const char* argv[] = {"prog", "--seed=13498596972625284250"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_uint("seed"), 13498596972625284250ull);
  EXPECT_THROW(cli.get_uint("seed", 65535), ContractViolation);
}

TEST(CliParserTest, CollectsPositional) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "a.trace", "b.trace"};
  ASSERT_TRUE(cli.parse(3, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "a.trace");
}

TEST(ContractsTest, ViolationCarriesContext) {
  try {
    SYNCON_REQUIRE(false, "this failed");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("this failed"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

// The CRC-32 definition, one byte and eight bit steps at a time, with no
// table: the reference the sliced routine must equal.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZeroAndKeepsTheSeed) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32({}, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainingEqualsTheOneShotChecksum) {
  const std::span<const std::uint8_t> text =
      bytes_of("The quick brown fox jumps over the lazy dog, twice over.");
  const std::uint32_t whole = crc32(text);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(crc32(text.subspan(cut), crc32(text.first(cut))), whole)
        << "split at " << cut;
  }
}

TEST(Crc32Test, SlicedEqualsBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0–80 cover no slice, one to ten eight-byte slices and every
  // tail length; start offsets 0–7 cover every alignment of the loads.
  Xoshiro256StarStar rng(31);
  std::vector<std::uint8_t> buffer(8 + 80);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 80; ++length) {
      const std::span<const std::uint8_t> bytes = all.subspan(offset, length);
      ASSERT_EQ(crc32(bytes), crc32_bytewise(bytes))
          << "offset " << offset << ", length " << length;
      ASSERT_EQ(crc32(bytes, 0x1234ABCDu), crc32_bytewise(bytes, 0x1234ABCDu))
          << "seeded, offset " << offset << ", length " << length;
    }
  }
}

}  // namespace
}  // namespace syncon
