#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>

#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/hash.hpp"
#include "support/interner.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace velev {
namespace {

TEST(Hash, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hashCombine(hashCombine(0, 1), 2),
            hashCombine(hashCombine(0, 2), 1));
}

TEST(Hash, ValuesDistinguishLengths) {
  EXPECT_NE(hashValues({1}), hashValues({1, 0}));
  EXPECT_NE(hashValues({}), hashValues({0}));
}

TEST(Hash, NoTrivialCollisionsInSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeIsInclusive) {
  Rng r(2);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng r(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.coin();
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(Rng, UnitIsInHalfOpenInterval) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Interner, SameStringSameId) {
  StringInterner in;
  EXPECT_EQ(in.intern("abc"), in.intern("abc"));
  EXPECT_NE(in.intern("abc"), in.intern("abd"));
}

TEST(Interner, RoundTrip) {
  StringInterner in;
  const auto id = in.intern("RegFile");
  EXPECT_EQ(in.str(id), "RegFile");
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, FindDoesNotInsert) {
  StringInterner in;
  EXPECT_EQ(in.find("missing"), StringInterner::kInvalid);
  EXPECT_EQ(in.size(), 0u);
}

TEST(Interner, ManyStringsStayStable) {
  StringInterner in;
  std::vector<StringInterner::Id> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(in.intern("s" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(in.str(ids[i]), "s" + std::to_string(i));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
  t.reset();
  EXPECT_LT(t.milliseconds(), 15.0);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(VELEV_CHECK(1 == 2), InternalError);
  EXPECT_NO_THROW(VELEV_CHECK(1 == 1));
}

TEST(Check, MessageIncludesDetail) {
  try {
    VELEV_CHECK_MSG(false, "slice " << 72);
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("slice 72"), std::string::npos);
  }
}

TEST(Flags, UintTakesTheWholeStringOrNothing) {
  EXPECT_EQ(parseUint("0", 0, 10), 0u);
  EXPECT_EQ(parseUint("42", 1, 100), 42u);
  EXPECT_EQ(parseUint("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  EXPECT_FALSE(parseUint("", 0, 10).has_value());
  EXPECT_FALSE(parseUint("-1", 0, UINT64_MAX).has_value());
  EXPECT_FALSE(parseUint("+1", 0, 10).has_value());
  EXPECT_FALSE(parseUint(" 1", 0, 10).has_value());
  EXPECT_FALSE(parseUint("1 ", 0, 10).has_value());
  EXPECT_FALSE(parseUint("8k", 0, 10).has_value());
  EXPECT_FALSE(parseUint("x", 0, 10).has_value());
  EXPECT_FALSE(parseUint("0x10", 0, 100).has_value());
  EXPECT_FALSE(parseUint("18446744073709551616", 0, UINT64_MAX).has_value());
  EXPECT_FALSE(parseUint("0", 1, 10).has_value());   // below the range
  EXPECT_FALSE(parseUint("11", 1, 10).has_value());  // above the range
}

TEST(Flags, RealIsFiniteAndFullyConsumed) {
  EXPECT_EQ(parseReal("0.25"), 0.25);
  EXPECT_EQ(parseReal("-3"), -3.0);
  EXPECT_EQ(parseReal("1e2"), 100.0);
  EXPECT_FALSE(parseReal("").has_value());
  EXPECT_FALSE(parseReal("1s").has_value());
  EXPECT_FALSE(parseReal(" 1").has_value());
  EXPECT_FALSE(parseReal("x").has_value());
  EXPECT_FALSE(parseReal("inf").has_value());
  EXPECT_FALSE(parseReal("nan").has_value());
}

}  // namespace
}  // namespace velev
