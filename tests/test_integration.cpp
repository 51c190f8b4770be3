// End-to-end self-stabilization tests: ElectLeader_r must recover from
// every adversarial corruption class (the defining property, §1.1), with
// class-specific expectations:
//   * corrupt messages + correct ranking → recovery must PRESERVE the
//     ranking (soft reset only, §3.2);
//   * duplicate ranks / no leader → full reset path, new correct ranking.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "core/stable_verify.hpp"
#include "pp/simulator.hpp"

namespace ssle::core {
namespace {

class Recovery
    : public ::testing::TestWithParam<std::tuple<Corruption, std::uint32_t>> {};

TEST_P(Recovery, ReachesSafeConfiguration) {
  const auto [corruption, n] = GetParam();
  const Params p = Params::make(n, std::max(1u, n / 4));
  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, p,
      corruption, 123, 4 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged)
      << corruption_name(corruption) << " n=" << n
      << " interactions=" << res.interactions;
  EXPECT_EQ(res.leaders, 1u) << corruption_name(corruption);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, Recovery,
    ::testing::Combine(::testing::ValuesIn(all_corruptions()),
                       ::testing::Values(16u, 32u)),
    [](const ::testing::TestParamInfo<Recovery::ParamType>& info) {
      return corruption_name(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Recovery, CorruptMessagesPreservesRanking) {
  // §3.2: "if the ranking is correct after a successful soft reset no
  // further inconsistencies will be encountered ... and the correct ranking
  // will be maintained forever".  The agents' ranks before and after
  // recovery must be identical.
  const Params p = Params::make(32, 8);
  util::Rng gen(55);
  auto config = make_adversarial_config(p, Corruption::kCorruptMessages, gen);
  std::vector<std::uint32_t> ranks_before;
  for (const Agent& a : config) ranks_before.push_back(a.rank);

  ElectLeader protocol(p);
  pp::Population<ElectLeader> pop(std::move(config));
  pp::Simulator<ElectLeader> sim(protocol, std::move(pop), 56);
  const auto run = sim.run_until(
      [&](const pp::Population<ElectLeader>& c, std::uint64_t) {
        return is_safe_configuration(p, c.states());
      },
      4 * analysis::default_budget(p), p.n);
  ASSERT_TRUE(run.converged);
  for (std::uint32_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(sim.population()[i].rank, ranks_before[i]) << "agent " << i;
  }
}

TEST(Recovery, CorruptMessagesNeverHardResets) {
  // With probation timers at 0 (long-stable population), message corruption
  // must be repaired by soft resets only: no agent ever becomes a resetter.
  const Params p = Params::make(32, 8);
  util::Rng gen(77);
  auto config = make_adversarial_config(p, Corruption::kCorruptMessages, gen);
  ElectLeader protocol(p);
  pp::Population<ElectLeader> pop(std::move(config));
  pp::Simulator<ElectLeader> sim(protocol, std::move(pop), 78);
  bool saw_resetter = false;
  for (int round = 0; round < 4000; ++round) {
    sim.step(p.n);
    for (std::uint32_t i = 0; i < p.n; ++i) {
      saw_resetter |= sim.population()[i].role == Role::kResetting;
    }
    if (is_safe_configuration(p, sim.population().states())) break;
  }
  EXPECT_FALSE(saw_resetter);
  EXPECT_TRUE(is_safe_configuration(p, sim.population().states()));
}

TEST(Recovery, DuplicateRanksForcesNewRanking) {
  const Params p = Params::make(24, 6);
  util::Rng gen(91);
  auto config = make_adversarial_config(p, Corruption::kDuplicateRanks, gen);
  ASSERT_FALSE(ranking_correct(p, config));
  const auto res = analysis::stabilize_from(p, std::move(config), 92,
                                            4 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(Recovery, TwoLeadersResolvedToOne) {
  const Params p = Params::make(24, 6);
  auto config = make_safe_config(p);
  // Both agents claim rank 1 (two leaders) — the canonical SSLE failure.
  config[5].rank = 1;
  config[5].sv = sv_initial_state(p, 1);
  config[5].sv.probation_timer = 0;
  ASSERT_EQ(leader_count(config), 2u);
  const auto res = analysis::stabilize_from(p, std::move(config), 13,
                                            4 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(Recovery, RandomStatesManySeeds) {
  // Fuzz: unstructured random configurations, several seeds, must always
  // recover (probabilistic stabilization has probability 1).
  const Params p = Params::make(16, 8);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto res = analysis::stabilize(
        analysis::StartKind::kAdversarial, p,
        Corruption::kRandomStates, seed, 6 * analysis::default_budget(p));
    ASSERT_TRUE(res.converged) << "seed=" << seed;
    EXPECT_EQ(res.leaders, 1u) << "seed=" << seed;
  }
}

TEST(Recovery, MidRunCorruptionHealed) {
  // Stabilize cleanly, then corrupt HALF the population in place and let
  // the protocol re-stabilize — the "transient fault" scenario that
  // motivates self-stabilization.
  const Params p = Params::make(32, 16);
  ElectLeader protocol(p);
  pp::Simulator<ElectLeader> sim(protocol, 200);
  auto safe = [&](const pp::Population<ElectLeader>& c, std::uint64_t) {
    return is_safe_configuration(p, c.states());
  };
  ASSERT_TRUE(sim.run_until(safe, analysis::default_budget(p), p.n).converged);

  util::Rng corruptor(201);
  for (std::uint32_t i = 0; i < p.n / 2; ++i) {
    sim.population()[i] = random_agent(p, corruptor);
  }
  const auto rerun =
      sim.run_until(safe, 6 * analysis::default_budget(p), p.n);
  ASSERT_TRUE(rerun.converged);
  EXPECT_EQ(leader_count(sim.population().states()), 1u);
}

}  // namespace
}  // namespace ssle::core
