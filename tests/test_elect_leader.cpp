#include "core/elect_leader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/derandomized.hpp"
#include "core/propagate_reset.hpp"
#include "core/safety.hpp"
#include "core/stable_verify.hpp"
#include "pp/simulator.hpp"

namespace ssle::core {
namespace {

TEST(ElectLeader, InitialStateIsCleanRanker) {
  const Params p = Params::make(16, 4);
  ElectLeader protocol(p);
  const Agent a = protocol.initial_state(0);
  EXPECT_EQ(a.role, Role::kRanking);
  EXPECT_EQ(a.countdown, p.countdown_max);
  EXPECT_EQ(a.ar.type, ArType::kLeaderElection);
}

TEST(ElectLeader, CountdownForcesVerifier) {
  const Params p = Params::make(16, 4);
  ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  Agent v = protocol.initial_state(1);
  // Give the stragglers distinct computed ranks so the immediate
  // StableVerify interaction does not (correctly!) flag a collision.
  u.ar.type = ArType::kRanked;
  u.ar.rank = 2;
  v.ar.type = ArType::kRanked;
  v.ar.rank = 9;
  u.countdown = 1;
  v.countdown = 1;
  util::Rng rng(1);
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_EQ(v.role, Role::kVerifying);
  EXPECT_EQ(u.rank, 2u);
  EXPECT_EQ(v.rank, 9u);
}

TEST(ElectLeader, SharedDefaultRankStragglersCollideAndReset) {
  // Two stragglers forced out of Ranking both carry the default rank 1;
  // they are in the same group, DetectCollision raises ⊤ immediately, and
  // (being on fresh probation) they hard-reset — the paper's intended
  // recovery path for failed rankings.
  const Params p = Params::make(16, 4);
  ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  Agent v = protocol.initial_state(1);
  u.countdown = 1;
  v.countdown = 1;
  util::Rng rng(1);
  protocol.interact(u, v, rng);
  EXPECT_TRUE(u.role == Role::kResetting || v.role == Role::kResetting);
}

TEST(ElectLeader, VerifierConvertsRankerByEpidemic) {
  const Params p = Params::make(16, 4);
  ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  Agent v;
  v.role = Role::kVerifying;
  v.rank = 3;
  v.sv = sv_initial_state(p, 3);
  util::Rng rng(2);
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kVerifying);
}

TEST(ElectLeader, RankClampedIntoStateSpace) {
  const Params p = Params::make(16, 4);
  ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  u.ar.type = ArType::kRanked;
  u.ar.rank = 4000;  // out of [n] — only possible adversarially
  u.countdown = 0;
  Agent v = protocol.initial_state(1);
  util::Rng rng(3);
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_LE(u.rank, p.n);
  EXPECT_GE(u.rank, 1u);
}

TEST(ElectLeader, IsLeaderRequiresVerifyingRankOne) {
  Agent a;
  a.role = Role::kVerifying;
  a.rank = 1;
  EXPECT_TRUE(ElectLeader::is_leader(a));
  a.rank = 2;
  EXPECT_FALSE(ElectLeader::is_leader(a));
  a.rank = 1;
  a.role = Role::kRanking;
  EXPECT_FALSE(ElectLeader::is_leader(a));
}

// --- Clean-start stabilization across the parameter space (Thm 1.1) --------

class CleanStart
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(CleanStart, StabilizesWithUniqueLeader) {
  const auto [n, r] = GetParam();
  const Params p = Params::make(n, r);
  const auto res =
      analysis::stabilize(p, 42, analysis::default_budget(p));
  ASSERT_TRUE(res.converged) << "n=" << n << " r=" << r;
  EXPECT_EQ(res.leaders, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CleanStart,
    ::testing::Values(std::tuple{8u, 1u}, std::tuple{8u, 2u},
                      std::tuple{8u, 4u}, std::tuple{16u, 1u},
                      std::tuple{16u, 4u}, std::tuple{16u, 8u},
                      std::tuple{24u, 5u}, std::tuple{32u, 4u},
                      std::tuple{32u, 16u}, std::tuple{48u, 16u},
                      std::tuple{64u, 8u}, std::tuple{64u, 32u}));

TEST(ElectLeader, LightMultiplicityStabilizes) {
  const Params p = Params::make(64, 16, MessageMultiplicity::kLight);
  const auto res = analysis::stabilize(p, 7, analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

// --- Safety: once safe, stays safe (Lemma 6.1) ------------------------------

TEST(ElectLeader, SafeConfigurationIsClosedUnderInteractions) {
  const Params p = Params::make(24, 12);
  ElectLeader protocol(p);
  pp::Population<ElectLeader> pop(make_safe_config(p));
  pp::Simulator<ElectLeader> sim(protocol, std::move(pop), 11);
  for (int round = 0; round < 60; ++round) {
    sim.step(1000);
    ASSERT_TRUE(ranking_correct(p, sim.population().states()))
        << "round " << round;
    ASSERT_EQ(leader_count(sim.population().states()), 1u);
  }
  // The full safe predicate also keeps holding (messages stay consistent).
  EXPECT_TRUE(is_safe_configuration(p, sim.population().states()));
}

// --- The inline silent-ranker case equals the general δ --------------------

/// Agents of every (role, ArType, countdown) the inline case tells apart;
/// the role comes in four flavours (active and dormant resetters).
std::vector<Agent> guard_cases(const Params& p) {
  std::vector<Agent> cases;
  const ElectLeader protocol(p);
  for (int flavour = 0; flavour < 4; ++flavour) {
    for (const ArType type :
         {ArType::kLeaderElection, ArType::kSheriff, ArType::kDeputy,
          ArType::kRecipient, ArType::kSleeper, ArType::kRanked}) {
      for (const std::uint32_t countdown :
           {0u, 1u, 2u, p.countdown_max}) {
        Agent a = protocol.initial_state(0);
        a.countdown = countdown;
        a.ar.type = type;
        if (type == ArType::kRanked) {
          a.ar.rank = 3;
        } else if (type != ArType::kLeaderElection) {
          a.ar.channel.assign(p.r, 1);
          a.ar.low_badge = a.ar.deputy_id = 1;
          a.ar.high_badge = p.r;
          a.ar.counter = 1;
          a.ar.sleep_timer = 1;
        }
        if (flavour == 1) {
          a.role = Role::kVerifying;
          a.rank = 5;
          a.sv = sv_initial_state(p, 5);
        } else if (flavour >= 2) {
          a.role = Role::kResetting;
          a.reset.reset_count = flavour == 2 ? p.reset_count_max : 0;
          a.reset.delay_timer = p.delay_timer_max;
        }
        cases.push_back(a);
      }
    }
  }
  return cases;
}

/// interact() and interact_general() leave both agents and the Rng alike.
void expect_same_transition(const ElectLeader& protocol, const Agent& u,
                            const Agent& v, std::uint64_t seed) {
  Agent u_fast = u, v_fast = v, u_general = u, v_general = v;
  util::Rng rng_fast(seed), rng_general(seed);
  protocol.interact(u_fast, v_fast, rng_fast);
  protocol.interact_general(u_general, v_general, rng_general);
  ASSERT_EQ(u_fast, u_general);
  ASSERT_EQ(v_fast, v_general);
  for (int i = 0; i < 4; ++i) ASSERT_EQ(rng_fast.next(), rng_general.next());
}

TEST(ElectLeaderInlineCase, MatchesGeneralDeltaOnEveryStateClass) {
  const Params p = Params::make(32, 8, MessageMultiplicity::kLight);
  const ElectLeader protocol(p);
  const std::vector<Agent> cases = guard_cases(p);
  ASSERT_EQ(cases.size(), 4u * 6u * 4u);
  std::uint64_t seed = 1;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (std::size_t j = 0; j < cases.size(); ++j) {
      SCOPED_TRACE(testing::Message() << "pair " << i << ", " << j);
      expect_same_transition(protocol, cases[i], cases[j], seed++);
    }
  }
}

TEST(ElectLeaderInlineCase, TakesTheShortcutOnlyForSilentRankers) {
  const Params p = Params::make(32, 8);
  const ElectLeader protocol(p);
  Agent u = protocol.initial_state(0);
  u.ar = ArState{};
  u.ar.type = ArType::kRanked;
  u.ar.rank = 4;
  u.countdown = 2;
  Agent v = u;
  v.ar.rank = 7;
  util::Rng rng(9);
  // Both countdowns tick; at 1 the general path turns both into verifiers.
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kRanking);
  EXPECT_EQ(u.countdown, 1u);
  EXPECT_EQ(v.countdown, 1u);
  protocol.interact(u, v, rng);
  EXPECT_EQ(u.role, Role::kVerifying);
  EXPECT_EQ(v.role, Role::kVerifying);
  EXPECT_EQ(u.rank, 4u);
  EXPECT_EQ(v.rank, 7u);
}

TEST(ElectLeaderInlineCase, MatchesGeneralDeltaOnEveryCorruptionClass) {
  const Params p = Params::make(16, 4, MessageMultiplicity::kLight);
  const ElectLeader protocol(p);
  util::Rng draw(2024);
  std::uint64_t seed = 1;
  for (const Corruption c : all_corruptions()) {
    SCOPED_TRACE(corruption_name(c));
    std::vector<Agent> agents = make_adversarial_config(p, c, draw);
    for (int k = 0; k < 16; ++k) agents.push_back(random_agent(p, draw));
    for (std::size_t i = 0; i < agents.size(); ++i) {
      for (std::size_t j = 0; j < agents.size(); ++j) {
        if (i == j) continue;
        expect_same_transition(protocol, agents[i], agents[j], seed++);
      }
    }
  }
}

// --- Golden pins: whole clean naive runs, recorded before the inline case
// and the engine's lookahead existed ---------------------------------------

/// Order-sensitive FNV-1a over the agents' hashes.
template <typename State>
std::uint64_t fingerprint(const std::vector<State>& states) {
  std::uint64_t h = 1469598103934665603ull;
  for (const State& s : states) {
    h ^= std::hash<State>{}(s);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(ElectLeaderGolden, CleanNaiveRunIsPinned) {
  const Params p = Params::make(256, 8, MessageMultiplicity::kLight);
  const ElectLeader protocol(p);
  pp::Simulator<ElectLeader> sim(protocol, 1);
  const auto run = sim.run_until(
      [&](const pp::Population<ElectLeader>& pop, std::uint64_t) {
        return is_safe_configuration(p, pop.states());
      },
      analysis::default_budget(p), p.n);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.interactions, 853504u);
  EXPECT_EQ(fingerprint(sim.population().states()), 0x2c48f27f0ee7070eull);
}

TEST(ElectLeaderGolden, CleanNaiveDerandomizedRunIsPinned) {
  const Params p = Params::make(256, 8, MessageMultiplicity::kLight);
  const DerandomizedElectLeader protocol(p);
  pp::Simulator<DerandomizedElectLeader> sim(protocol, 1);
  const auto run = sim.run_until(
      [&](const pp::Population<DerandomizedElectLeader>& pop, std::uint64_t) {
        std::vector<Agent> agents;
        for (std::uint32_t i = 0; i < pop.size(); ++i) {
          if (pop[i].agent.role != Role::kVerifying) return false;
          agents.push_back(pop[i].agent);
        }
        return is_safe_configuration(p, agents);
      },
      analysis::default_budget(p), p.n);
  ASSERT_TRUE(run.converged);
  EXPECT_EQ(run.interactions, 853504u);
  EXPECT_EQ(fingerprint(sim.population().states()), 0xa3a8ed1694cc143eull);
}

TEST(ElectLeader, StabilizationIsDeterministicPerSeed) {
  const Params p = Params::make(16, 8);
  const auto a = analysis::stabilize(p, 5, analysis::default_budget(p));
  const auto b = analysis::stabilize(p, 5, analysis::default_budget(p));
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.converged, b.converged);
}

}  // namespace
}  // namespace ssle::core
