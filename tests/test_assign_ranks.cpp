#include "core/assign_ranks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "pp/scheduler.hpp"

namespace ssle::core {
namespace {

struct ArRun {
  std::vector<ArState> agents;
  std::uint64_t interactions = 0;
  bool all_ranked = false;
};

/// Runs AssignRanks_r standalone from the clean (dormant-equivalent) start.
ArRun run_assign_ranks(const Params& params, std::uint64_t seed,
                       std::uint64_t budget) {
  ArRun run;
  run.agents.assign(params.n, ar_initial_state(params));
  pp::UniformScheduler sched(params.n, seed);
  util::Rng rng(util::substream(seed, 4));
  auto all_ranked = [&] {
    return std::all_of(run.agents.begin(), run.agents.end(),
                       [](const ArState& s) { return ar_ranked(s); });
  };
  while (run.interactions < budget) {
    const auto [a, b] = sched.next();
    assign_ranks(params, run.agents[a], run.agents[b], rng);
    ++run.interactions;
    if (run.interactions % params.n == 0 && all_ranked()) break;
  }
  run.all_ranked = all_ranked();
  return run;
}

bool ranks_are_permutation(const std::vector<ArState>& agents,
                           std::uint32_t n) {
  std::set<std::uint32_t> ranks;
  for (const auto& s : agents) {
    if (s.rank < 1 || s.rank > n) return false;
    ranks.insert(s.rank);
  }
  return ranks.size() == n;
}

TEST(AssignRanks, InitialStateIsLeaderElection) {
  const Params p = Params::make(16, 4);
  const ArState s = ar_initial_state(p);
  EXPECT_EQ(s.type, ArType::kLeaderElection);
  EXPECT_FALSE(s.le.drawn);
  EXPECT_EQ(s.rank, 1u);
}

TEST(RankFromLabel, LexicographicBijection) {
  ArState s;
  s.channel = {3, 2, 4};  // deputies handed out 3, 2, 4 labels
  s.label = {1, 1};
  EXPECT_EQ(rank_from_label(s), 1u);
  s.label = {1, 3};
  EXPECT_EQ(rank_from_label(s), 3u);
  s.label = {2, 1};
  EXPECT_EQ(rank_from_label(s), 4u);
  s.label = {3, 4};
  EXPECT_EQ(rank_from_label(s), 9u);
}

TEST(RankFromLabel, InvalidLabelMapsToOne) {
  ArState s;
  s.channel = {2, 2};
  s.label = {};
  EXPECT_EQ(rank_from_label(s), 1u);
  s.label = {5, 1};  // deputy id out of range
  EXPECT_EQ(rank_from_label(s), 1u);
}

TEST(Deputize, SplitsBadgeRangeExactly) {
  const Params p = Params::make(16, 4);
  ArState sheriff;
  sheriff.type = ArType::kSheriff;
  sheriff.low_badge = 1;
  sheriff.high_badge = 4;
  sheriff.channel.assign(4, 0);
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.channel.assign(4, 0);

  deputize(p, sheriff, recipient);
  // Badges {1..4} split into {1,2} and {3,4}.
  EXPECT_EQ(sheriff.type, ArType::kSheriff);
  EXPECT_EQ(sheriff.low_badge, 1u);
  EXPECT_EQ(sheriff.high_badge, 2u);
  EXPECT_EQ(recipient.type, ArType::kSheriff);
  EXPECT_EQ(recipient.low_badge, 3u);
  EXPECT_EQ(recipient.high_badge, 4u);
}

TEST(Deputize, SingleBadgeBecomesDeputy) {
  const Params p = Params::make(16, 2);
  ArState sheriff;
  sheriff.type = ArType::kSheriff;
  sheriff.low_badge = 1;
  sheriff.high_badge = 2;
  sheriff.channel.assign(2, 0);
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.channel.assign(2, 0);

  deputize(p, sheriff, recipient);
  EXPECT_EQ(sheriff.type, ArType::kDeputy);
  EXPECT_EQ(sheriff.deputy_id, 1u);
  EXPECT_EQ(sheriff.counter, 1u);
  EXPECT_EQ(sheriff.channel[0], 1u);
  EXPECT_EQ(recipient.type, ArType::kDeputy);
  EXPECT_EQ(recipient.deputy_id, 2u);
}

TEST(Labeling, BlockedUntilAllDeputiesKnown) {
  const Params p = Params::make(16, 4);
  ArState deputy;
  deputy.type = ArType::kDeputy;
  deputy.deputy_id = 1;
  deputy.counter = 1;
  deputy.channel = {1, 0, 0, 0};  // sum 1 < r = 4
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.channel.assign(4, 0);

  labeling(p, deputy, recipient);
  EXPECT_FALSE(recipient.label.valid());

  deputy.channel = {1, 1, 1, 1};  // all deputies known
  labeling(p, deputy, recipient);
  EXPECT_TRUE(recipient.label.valid());
  EXPECT_EQ(recipient.label.deputy, 1u);
  EXPECT_EQ(recipient.label.index, 2u);
  EXPECT_EQ(deputy.counter, 2u);
  EXPECT_EQ(deputy.channel[0], 2u);
}

TEST(Labeling, PoolExhaustionStopsLabeling) {
  const Params p = Params::make(8, 2);
  ArState deputy;
  deputy.type = ArType::kDeputy;
  deputy.deputy_id = 1;
  deputy.counter = p.label_pool;  // exhausted
  deputy.channel.assign(2, 1);
  deputy.channel.set(0, p.label_pool);
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.channel.assign(2, 0);
  labeling(p, deputy, recipient);
  EXPECT_FALSE(recipient.label.valid());
}

TEST(Sleep, RankedWakesSleeper) {
  const Params p = Params::make(8, 2);
  ArState sleeper;
  sleeper.type = ArType::kSleeper;
  sleeper.sleep_timer = 1;
  sleeper.label = {1, 2};
  sleeper.channel = {4, 4};
  ArState ranked;
  ranked.type = ArType::kRanked;
  ranked.rank = 5;

  ar_sleep(p, sleeper, ranked);
  EXPECT_EQ(sleeper.type, ArType::kRanked);
  EXPECT_EQ(sleeper.rank, 2u);
}

TEST(Sleep, TimerExpiryRanksBoth) {
  const Params p = Params::make(8, 2);
  ArState a;
  a.type = ArType::kSleeper;
  a.sleep_timer = p.sleep_max;
  a.label = {1, 1};
  a.channel = {4, 4};
  ArState b;
  b.type = ArType::kSleeper;
  b.sleep_timer = 2;
  b.label = {2, 1};
  b.channel = {4, 4};

  ar_sleep(p, a, b);
  EXPECT_EQ(a.type, ArType::kRanked);
  EXPECT_EQ(a.rank, 1u);
  EXPECT_EQ(b.type, ArType::kRanked);
  EXPECT_EQ(b.rank, 5u);
}

TEST(Sleep, SpreadsToNonSleeper) {
  const Params p = Params::make(8, 2);
  ArState sleeper;
  sleeper.type = ArType::kSleeper;
  sleeper.sleep_timer = 1;
  sleeper.label = {1, 1};
  sleeper.channel = {4, 4};
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.label = {2, 1};
  recipient.channel = {4, 4};

  ar_sleep(p, sleeper, recipient);
  EXPECT_EQ(recipient.type, ArType::kSleeper);
}

// Protocol 7 lines 10–11 read the channel sum after the max-merge: two
// channels that only fill up once merged send both agents to sleep.
TEST(Sleep, MergedChannelsThatSumToNSleepBoth) {
  const Params p = Params::make(8, 2);
  ArState a;
  a.type = ArType::kRecipient;
  a.label = {1, 1};
  a.channel = {4, 0};
  ArState b = a;
  b.label = {2, 1};
  b.channel = {0, 4};
  util::Rng rng(1);
  assign_ranks(p, a, b, rng);
  EXPECT_EQ(a.channel, (Channel{4, 4}));
  EXPECT_EQ(a.type, ArType::kSleeper);
  EXPECT_EQ(b.type, ArType::kSleeper);

  ArState c = a, d = b;
  c.type = d.type = ArType::kRecipient;
  c.channel = {3, 0};
  d.channel = {0, 4};
  assign_ranks(p, c, d, rng);
  EXPECT_EQ(c.type, ArType::kRecipient);
  EXPECT_EQ(d.type, ArType::kRecipient);
}

// Without a channel partner there is no merge, and the check reads the
// agent's own channel.
TEST(Sleep, FullChannelSleepsNextToARankedAgent) {
  const Params p = Params::make(8, 2);
  ArState recipient;
  recipient.type = ArType::kRecipient;
  recipient.label = {1, 1};
  recipient.channel = {4, 4};
  ArState ranked;
  ranked.type = ArType::kRanked;
  ranked.rank = 3;
  const ArState ranked_before = ranked;
  util::Rng rng(1);
  assign_ranks(p, recipient, ranked, rng);
  EXPECT_EQ(recipient.type, ArType::kSleeper);
  EXPECT_EQ(ranked, ranked_before);
}

// --- End-to-end AssignRanks sweeps (Lemma D.1) -----------------------------

class AssignRanksSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(AssignRanksSweep, ProducesUniqueRanking) {
  const auto [n, r] = GetParam();
  const Params p = Params::make(n, r);
  const std::uint64_t L = Params::log2ceil(n);
  const std::uint64_t budget = 2000ull * (n * n / p.r) * L + 500000;
  int successes = 0;
  constexpr int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const ArRun run = run_assign_ranks(p, 500 + trial * 17, budget);
    ASSERT_TRUE(run.all_ranked)
        << "n=" << n << " r=" << r << " trial=" << trial;
    successes += ranks_are_permutation(run.agents, n);
  }
  EXPECT_EQ(successes, kTrials) << "n=" << n << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AssignRanksSweep,
    ::testing::Values(std::tuple{8u, 1u}, std::tuple{8u, 4u},
                      std::tuple{16u, 2u}, std::tuple{16u, 8u},
                      std::tuple{32u, 4u}, std::tuple{32u, 16u},
                      std::tuple{64u, 8u}, std::tuple{64u, 32u},
                      std::tuple{100u, 13u}, std::tuple{128u, 64u}));

TEST(AssignRanks, SilentOnceRanked) {
  // Lemma D.1: the protocol is silent — once ranked, qAR never changes.
  const Params p = Params::make(32, 8);
  ArRun run = run_assign_ranks(p, 7, 10000000);
  ASSERT_TRUE(run.all_ranked);
  auto snapshot = run.agents;
  pp::UniformScheduler sched(p.n, 99);
  util::Rng rng(100);
  for (int t = 0; t < 20000; ++t) {
    const auto [a, b] = sched.next();
    assign_ranks(p, run.agents[a], run.agents[b], rng);
  }
  EXPECT_EQ(run.agents, snapshot);
}

}  // namespace
}  // namespace ssle::core
