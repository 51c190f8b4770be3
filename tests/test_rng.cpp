#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

namespace ssle::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound) << "bound=" << bound;
    }
  }
}

TEST(Rng, BelowZeroAndOneAreZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(Rng, RangeAtInt64Extremes) {
  // Regression: `hi - lo + 1` used to be computed in *signed* arithmetic —
  // UB/wrap whenever the span overflows int64.  The span is now widened
  // through uint64 (where wrap is defined and correct).
  Rng rng(21);
  // Degenerate single-point range.
  EXPECT_EQ(rng.range(5, 5), 5);
  EXPECT_EQ(rng.range(std::numeric_limits<std::int64_t>::min(),
                      std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
  // Tight window at the top of the domain.
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(std::numeric_limits<std::int64_t>::max() - 3,
                             std::numeric_limits<std::int64_t>::max());
    EXPECT_GE(v, std::numeric_limits<std::int64_t>::max() - 3);
  }
  // Span larger than int64 can hold (lo < 0 < hi, width ≈ 1.5 · 2^63):
  // the old signed subtraction overflowed here.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min() / 4 * 3;
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max() / 4 * 3;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
  // Full int64 domain: span wraps to 0 in uint64, meaning "every value".
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(std::numeric_limits<std::int64_t>::min(),
                             std::numeric_limits<std::int64_t>::max());
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(Rng, RangeExtremesStayUniformish) {
  // A wide two-bucket sanity check on an overflowing span: halves of the
  // range should be hit roughly equally.
  Rng rng(23);
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min() + 2;
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max() - 2;
  int below_zero = 0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) below_zero += rng.range(lo, hi) < 0;
  EXPECT_NEAR(static_cast<double>(below_zero) / draws, 0.5, 0.02);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(11);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kDraws = 160000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  // Chi-square with 15 dof; 99.9% quantile ≈ 37.7.
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 37.7);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.real();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, CoinIsFair) {
  Rng rng(17);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.coin();
  EXPECT_NEAR(heads / 100000.0, 0.5, 0.01);
}

TEST(Rng, SubstreamsAreIndependentStreams) {
  EXPECT_NE(substream(1, 0), substream(1, 1));
  EXPECT_NE(substream(1, 0), substream(2, 0));
  EXPECT_EQ(substream(5, 3), substream(5, 3));
}

TEST(RngSplit, SameParentStateAndKeyGiveTheSameChild) {
  Rng a(42);
  Rng b(42);
  Rng child_a = a.split(7);
  Rng child_b = b.split(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child_a.next(), child_b.next());
  }
}

TEST(RngSplit, DoesNotAdvanceTheParent) {
  Rng with_split(42);
  Rng without_split(42);
  (void)with_split.split(0);
  (void)with_split.split(123456789);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(with_split.next(), without_split.next());
  }
}

TEST(RngSplit, ChildIsIndependentOfParentDrawInterleaving) {
  // Drawing from the child never perturbs the parent, and vice versa: a
  // caller may interleave child-stream and parent-stream draws in any
  // order (even a hardware-dependent one) and still get deterministic
  // trajectories.
  Rng parent(9);
  Rng child = parent.split(3);
  std::vector<std::uint64_t> child_seq;
  for (int i = 0; i < 50; ++i) child_seq.push_back(child.next());

  Rng parent2(9);
  Rng child2 = parent2.split(3);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(child2.next(), child_seq[i]);
    (void)parent2.next();  // interleave parent draws
  }
}

TEST(RngSplit, DistinctKeysAndDistinctParentsGiveDistinctChildren) {
  Rng parent(42);
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t k = 0; k < 64; ++k) {
    firsts.push_back(parent.split(k).next());
  }
  firsts.push_back(parent.next());  // the parent's own stream differs too
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());

  // A parent advanced by one draw yields entirely different children.
  Rng p1(42), p2(42);
  (void)p2.next();
  EXPECT_NE(p1.split(5).next(), p2.split(5).next());
}

TEST(RngSplit, ChildStreamsLookUniform) {
  // Same chi-square style as the seeded-stream test: 60000 draws from a
  // split child over 6 bins, 5 degrees of freedom, 99.999% cutoff ≈ 25.7.
  Rng parent(1234);
  Rng child = parent.split(17);
  std::array<int, 6> bins{};
  for (int i = 0; i < 60000; ++i) bins[child.below(6)] += 1;
  double chi2 = 0.0;
  for (const int b : bins) {
    const double d = b - 10000.0;
    chi2 += d * d / 10000.0;
  }
  EXPECT_LT(chi2, 25.7);
}

TEST(SplitMix64, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

}  // namespace
}  // namespace ssle::util
