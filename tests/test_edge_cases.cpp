// Edge-case coverage: minimal populations, degenerate trade-off settings,
// exhausted pools and boundary timer values.
#include <gtest/gtest.h>

#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/assign_ranks.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "core/stable_verify.hpp"
#include "pp/simulator.hpp"

namespace ssle::core {
namespace {

TEST(EdgeCases, SmallestPopulationStabilizes) {
  // n = 2 is the smallest meaningful population (r clamps to 1).
  const Params p = Params::make(2, 1);
  EXPECT_EQ(p.r, 1u);
  EXPECT_EQ(p.num_groups(), 2u);
  const auto res = analysis::stabilize(p, 1, analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(EdgeCases, OddTinyPopulations) {
  for (std::uint32_t n : {3u, 5u, 7u}) {
    const Params p = Params::make(n, 1);
    const auto res =
        analysis::stabilize(p, 2, analysis::default_budget(p));
    ASSERT_TRUE(res.converged) << "n=" << n;
    EXPECT_EQ(res.leaders, 1u) << "n=" << n;
  }
}

TEST(EdgeCases, SingleGroupCoversWholePopulation) {
  const Params p = Params::make(12, 6);
  EXPECT_EQ(p.num_groups(), 2u);
  const Params q = Params::make(12, 12);  // r clamps to 6 → 2 groups
  EXPECT_EQ(q.r, 6u);
}

TEST(EdgeCases, GroupOfSizeOneDetectsByDirectMeeting) {
  // r = 1 ⇒ every rank is its own group; the message machinery degenerates
  // and duplicates are only caught by same-rank meetings.
  const Params p = Params::make(6, 1);
  DcState a = dc_initial_state(p, 3);
  DcState b = dc_initial_state(p, 3);
  util::Rng rng(1);
  detect_collision(p, 3, a, 3, b, rng);
  EXPECT_TRUE(a.error);
}

TEST(EdgeCases, DeputyPoolExactlyCoversPopulation) {
  // label_pool = 2n/r: with all r deputies each can label 2n/r agents, so
  // the pool always covers n with slack factor 2 (App. D: c > 1).
  for (std::uint32_t n : {8u, 17u, 64u, 100u}) {
    for (std::uint32_t r : {1u, 2u, n / 2}) {
      const Params p = Params::make(n, r);
      EXPECT_GE(static_cast<std::uint64_t>(p.label_pool) * p.r, p.n)
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(EdgeCases, SleepTimerBoundaryWakesExactlyAtMax) {
  const Params p = Params::make(8, 2);
  ArState a;
  a.type = ArType::kSleeper;
  a.sleep_timer = p.sleep_max - 1;
  a.label = {1, 1};
  a.channel = {4, 4};
  ArState b = a;
  b.label = {2, 1};
  ar_sleep(p, a, b);  // not yet expired: both stay sleeping, timers tick
  EXPECT_EQ(a.type, ArType::kSleeper);
  EXPECT_EQ(a.sleep_timer, p.sleep_max);
  ar_sleep(p, a, b);  // now expired
  EXPECT_EQ(a.type, ArType::kRanked);
}

TEST(EdgeCases, VerifierPairInDifferentGroupsIsInert) {
  const Params p = Params::make(8, 2);
  Agent u, v;
  u.role = v.role = Role::kVerifying;
  u.rank = 1;
  v.rank = 8;
  ASSERT_NE(p.group_of(u.rank), p.group_of(v.rank));
  u.sv = sv_initial_state(p, u.rank);
  v.sv = sv_initial_state(p, v.rank);
  u.sv.probation_timer = v.sv.probation_timer = 0;
  const auto u_dc = u.sv.dc;
  util::Rng rng(3);
  stable_verify(p, u, v, rng);
  EXPECT_EQ(u.sv.dc, u_dc);  // DetectCollision was a cross-group no-op
  EXPECT_FALSE(u.sv.dc.error);
}

TEST(EdgeCases, CountdownZeroAgentsConvertOnAnyInteraction) {
  const Params p = Params::make(8, 2);
  ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  u.countdown = 0;
  Agent v;
  v.role = Role::kVerifying;
  v.rank = 5;
  v.sv = sv_initial_state(p, 5);
  util::Rng rng(4);
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kVerifying);
}

TEST(EdgeCases, ProbationTimerNeverUnderflows) {
  const Params p = Params::make(8, 4);
  Agent u, v;
  u.role = v.role = Role::kVerifying;
  u.rank = 1;
  v.rank = 2;
  u.sv = sv_initial_state(p, 1);
  v.sv = sv_initial_state(p, 2);
  u.sv.probation_timer = 0;
  v.sv.probation_timer = 0;
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    stable_verify(p, u, v, rng);
    ASSERT_EQ(u.sv.probation_timer, 0u);
    ASSERT_EQ(v.sv.probation_timer, 0u);
  }
}

TEST(EdgeCases, AdversaryOnTinyPopulationNeverCrashes) {
  const Params p = Params::make(4, 2);
  util::Rng rng(6);
  for (const auto c : all_corruptions()) {
    const auto config = make_adversarial_config(p, c, rng);
    EXPECT_EQ(config.size(), 4u) << corruption_name(c);
  }
}

TEST(EdgeCases, RecoveryOnTinyPopulation) {
  const Params p = Params::make(4, 2);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto res = analysis::stabilize(
        analysis::StartKind::kAdversarial, p,
        Corruption::kRandomStates, seed, 8 * analysis::default_budget(p));
    ASSERT_TRUE(res.converged) << "seed " << seed;
    EXPECT_EQ(res.leaders, 1u);
  }
}

TEST(EdgeCases, BalanceLoadHandlesManyContentClasses) {
  // Worst case for the class-splitting loop: every message has a distinct
  // content.  Conservation and ≤1-per-class splitting must still hold.
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  std::uint32_t content = 10;
  for (auto bucket : a.msgs) {
    for (auto& msg : bucket) msg.content = content++;
  }
  const std::uint32_t own = p.rank_in_group(1) - 1;
  for (const auto& msg : a.msgs[own]) {
    a.observations[msg.id - 1] = msg.content;
  }
  const auto before = dc_message_count(a) + dc_message_count(b);
  balance_load(p, 1, a, b);
  EXPECT_EQ(dc_message_count(a) + dc_message_count(b), before);
}

TEST(EdgeCases, UpdateMessagesWithEmptyBucketsIsSafe) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  a.msgs.clear(a.msgs.size());
  b.msgs.clear(b.msgs.size());
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) update_messages(p, 1, a, b, rng);
  EXPECT_EQ(dc_message_count(a), 0u);
}

}  // namespace
}  // namespace ssle::core
