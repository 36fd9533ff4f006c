// Tests for the deterministic RNG substrate.

#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "ftmesh/sim/rng.hpp"

namespace {

using ftmesh::sim::Rng;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsNotDegenerate) {
  Rng r(0);
  std::uint64_t x = r();
  bool varied = false;
  for (int i = 0; i < 16; ++i) {
    const auto y = r();
    if (y != x) varied = true;
    x = y;
  }
  EXPECT_TRUE(varied);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[r.next_below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 5000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(19);
  const double rate = 0.05;
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += r.exponential(rate);
  EXPECT_NEAR(sum / kDraws, 1.0 / rate, 1.0 / rate * 0.05);
}

TEST(Rng, ExponentialIsPositive) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng r(29);
  int hits = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, kDraws * 0.25, kDraws * 0.02);
}

TEST(Rng, DeriveIsDeterministicAndOrderIndependent) {
  Rng a(99);
  Rng c1 = a.derive(5);
  // Advancing the parent must not change what derive() yields.
  (void)a();
  (void)a();
  Rng c2 = a.derive(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, DeriveWithDifferentSaltsDiverges) {
  Rng a(99);
  Rng c1 = a.derive(1);
  Rng c2 = a.derive(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1() == c2()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// Regression: the extreme bounds used to compute `hi - lo` in signed
// arithmetic (overflow UB for spans wider than INT64_MAX) and the full
// 64-bit range wrapped the span to zero, handing next_below(0) an empty
// interval.  Any value is in range for the full span; the point is that
// UBSan-instrumented builds execute these lines without a finding.
TEST(Rng, UniformIntExtremeBoundsAreDefined) {
  Rng r(7);
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 100; ++i) {
    (void)r.uniform_int(kMin, kMax);  // span wraps to 0
    const auto wide = r.uniform_int(kMin, 0);  // span > INT64_MAX
    EXPECT_LE(wide, 0);
    const auto pinned = r.uniform_int(kMax, kMax);
    EXPECT_EQ(pinned, kMax);
    const auto low = r.uniform_int(kMin, kMin);
    EXPECT_EQ(low, kMin);
  }
}

TEST(Rng, SplitMix64KnownSequenceAdvances) {
  std::uint64_t s = 0;
  const auto a = ftmesh::sim::splitmix64(s);
  const auto b = ftmesh::sim::splitmix64(s);
  EXPECT_NE(a, b);
  EXPECT_EQ(s, 2 * 0x9e3779b97f4a7c15ULL);
}

// Literal values of the counter RNG.  Every arbitration draw in the cycle
// kernel comes from counter_hash / counter_below, so these pin the exact
// bits the reports depend on: a change to the hash, the bound reduction or
// the stream indexing fails here before it reaches a fixture.
TEST(CounterRng, CounterHashLiteralValues) {
  using ftmesh::sim::counter_hash;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(counter_hash(0, 0, 0), 0x1e136b3638e1520fULL);
  EXPECT_EQ(counter_hash(kMax, kMax, kMax), 0xe99ff867dbf682c9ULL);
  EXPECT_EQ(counter_hash(1, 2, 3), 0x0faef70efd93ccb1ULL);
  EXPECT_EQ(counter_hash(0x5bf1e, 12345, 67), 0x7a349e115a07fcd2ULL);
  EXPECT_EQ(counter_hash(kMax, 0, 0), 0xf72e4126f96f7409ULL);
  EXPECT_EQ(counter_hash(0, kMax, 0), 0x49c18e491a66eb93ULL);
}

TEST(CounterRng, CounterBelowLiteralValues) {
  using ftmesh::sim::counter_below;
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  EXPECT_EQ(counter_below(7, 100, 3, 1), 0u);
  EXPECT_EQ(counter_below(7, 100, 3, 2), 0u);
  EXPECT_EQ(counter_below(7, 100, 3, 5), 1u);
  EXPECT_EQ(counter_below(7, 100, 3, 120), 30u);
  EXPECT_EQ(counter_below(7, 100, 3, kHalf), 2323911575352656020ULL);
  EXPECT_EQ(counter_below(kMax, 0, 0, 1), 0u);
  EXPECT_EQ(counter_below(kMax, 0, 0, 2), 1u);
  EXPECT_EQ(counter_below(kMax, 0, 0, 5), 4u);
  EXPECT_EQ(counter_below(kMax, 0, 0, 120), 115u);
  EXPECT_EQ(counter_below(kMax, 0, 0, kHalf), 8905622605973142020ULL);
}

TEST(CounterRng, FirstDrawsLiteralValues) {
  ftmesh::sim::CounterRng r(0x0123456789abcdefULL);
  const std::uint64_t want[] = {
      0x76abb05ead24dd9fULL, 0x6435505c287e16adULL, 0x0083f6cf1a70de14ULL,
      0xf72849dc890eb2d9ULL, 0xf7efb7277bdde112ULL, 0x64a4a19b39c0aa3dULL,
      0x0166fcdba18de2aeULL, 0x6f5204677497ae2cULL};
  for (const std::uint64_t w : want) EXPECT_EQ(r(), w);
  ftmesh::sim::CounterRng q(42);
  const std::uint64_t below[] = {31, 115, 98, 13, 55, 52, 19, 73};
  for (const std::uint64_t b : below) EXPECT_EQ(q.next_below(120), b);
}

}  // namespace
