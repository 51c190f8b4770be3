#include "pp/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pair_digest.hpp"

namespace ssle::pp {
namespace {

TEST(Scheduler, NeverPairsAgentWithItself) {
  UniformScheduler sched(5, 1);
  for (int i = 0; i < 10000; ++i) {
    const Pair p = sched.next();
    EXPECT_NE(p.initiator, p.responder);
    EXPECT_LT(p.initiator, 5u);
    EXPECT_LT(p.responder, 5u);
  }
}

TEST(Scheduler, TwoAgentsAlwaysInteract) {
  UniformScheduler sched(2, 3);
  for (int i = 0; i < 100; ++i) {
    const Pair p = sched.next();
    EXPECT_NE(p.initiator, p.responder);
  }
}

TEST(Scheduler, OrderedPairsApproximatelyUniform) {
  constexpr std::uint32_t n = 6;
  UniformScheduler sched(n, 99);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> counts;
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) {
    const Pair p = sched.next();
    ++counts[{p.initiator, p.responder}];
  }
  EXPECT_EQ(counts.size(), n * (n - 1));  // all ordered pairs occur
  const double expected = static_cast<double>(kDraws) / (n * (n - 1));
  double chi2 = 0.0;
  for (const auto& [pair, c] : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  // 29 dof; 99.9% quantile ≈ 58.3.
  EXPECT_LT(chi2, 58.3);
}

TEST(Scheduler, PerAgentInteractionRateIsTwoOverN) {
  // Lemma A.1 premise: each agent appears with probability 2/n per step.
  constexpr std::uint32_t n = 50;
  UniformScheduler sched(n, 7);
  std::vector<int> hits(n, 0);
  constexpr int kDraws = 250000;
  for (int i = 0; i < kDraws; ++i) {
    const Pair p = sched.next();
    ++hits[p.initiator];
    ++hits[p.responder];
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_NEAR(static_cast<double>(hits[i]) / kDraws, 2.0 / n, 0.2 / n);
  }
}

TEST(Scheduler, DeterministicGivenSeed) {
  UniformScheduler a(10, 5), b(10, 5);
  for (int i = 0; i < 1000; ++i) {
    const Pair pa = a.next();
    const Pair pb = b.next();
    EXPECT_EQ(pa.initiator, pb.initiator);
    EXPECT_EQ(pa.responder, pb.responder);
  }
}

// Golden pins: FNV-1a digests of the first 10^6 pairs, recorded from the
// branchy skip-self draw (`if (b >= a) ++b`) before it became branch-free.
TEST(SchedulerGolden, UniformLargePopulationStreamIsPinned) {
  UniformScheduler sched(10000, 1);
  EXPECT_EQ(pair_stream_digest(sched, 1000000), 0xeabcccf1083741e3ull);
}

TEST(SchedulerGolden, UniformTwoAgentStreamIsPinned) {
  UniformScheduler sched(2, 1);
  EXPECT_EQ(pair_stream_digest(sched, 1000000), 0x2604eb43403c3833ull);
}

}  // namespace
}  // namespace ssle::pp
