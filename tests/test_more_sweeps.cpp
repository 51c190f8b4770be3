// Additional parameterized sweeps: Light multiplicity soundness, r = 1
// degenerate recovery, odd population sizes end-to-end, and long-horizon
// safety soak tests.
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "pp/scheduler.hpp"
#include "pp/simulator.hpp"

namespace ssle::core {
namespace {

// --- Light-multiplicity soundness (mirror of DcSoundness for kLight) -------

class LightSoundness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(LightSoundness, NoFalsePositive) {
  const auto [n, r] = GetParam();
  const Params p = Params::make(n, r, MessageMultiplicity::kLight);
  std::vector<std::uint32_t> ranks(n);
  std::vector<DcState> states;
  for (std::uint32_t i = 0; i < n; ++i) {
    ranks[i] = i + 1;
    states.push_back(dc_initial_state(p, ranks[i]));
  }
  pp::UniformScheduler sched(n, 321);
  util::Rng rng(322);
  for (int t = 0; t < 150000; ++t) {
    const auto [a, b] = sched.next();
    detect_collision(p, ranks[a], states[a], ranks[b], states[b], rng);
  }
  for (const auto& s : states) EXPECT_FALSE(s.error);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LightSoundness,
                         ::testing::Values(std::tuple{16u, 8u},
                                           std::tuple{32u, 16u},
                                           std::tuple{64u, 32u},
                                           std::tuple{64u, 8u}));

// --- Odd population sizes end-to-end ---------------------------------------

class OddSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OddSizes, CleanStartStabilizes) {
  const std::uint32_t n = GetParam();
  const Params p = Params::make(n, std::max(1u, n / 3));
  const auto res = analysis::stabilize(p, 11, analysis::default_budget(p));
  ASSERT_TRUE(res.converged) << "n=" << n;
  EXPECT_EQ(res.leaders, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OddSizes,
                         ::testing::Values(9u, 13u, 21u, 27u, 35u, 49u));

// --- r = 1 (degenerate groups) recovery ------------------------------------

TEST(DegenerateR, RecoveryFromDuplicatesWithSingletonGroups) {
  // With r = 1 every group has one rank; detection falls back to direct
  // same-rank meetings (Θ(n²·log n) budget needed).
  const Params p = Params::make(12, 1);
  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, p,
      Corruption::kDuplicateRanks, 17, 20 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(DegenerateR, CleanStartAllRegimeBoundaries) {
  for (std::uint32_t n : {8u, 12u}) {
    for (std::uint32_t r : {1u, n / 2}) {
      const Params p = Params::make(n, r);
      const auto res =
          analysis::stabilize(p, 19, analysis::default_budget(p));
      ASSERT_TRUE(res.converged) << "n=" << n << " r=" << r;
    }
  }
}

// --- Long-horizon safety soak ----------------------------------------------

TEST(Soak, SafeConfigurationSurvivesMillionInteractions) {
  const Params p = Params::make(16, 8);
  ElectLeader protocol(p);
  pp::Population<ElectLeader> pop(make_safe_config(p));
  pp::Simulator<ElectLeader> sim(protocol, std::move(pop), 23);
  sim.step(1'000'000);
  EXPECT_TRUE(is_safe_configuration(p, sim.population().states()));
  EXPECT_EQ(leader_count(sim.population().states()), 1u);
}

TEST(Soak, StabilizedCleanRunStaysStable) {
  const Params p = Params::make(24, 12);
  ElectLeader protocol(p);
  pp::Simulator<ElectLeader> sim(protocol, 29);
  const auto res = sim.run_until(
      [&](const pp::Population<ElectLeader>& c, std::uint64_t) {
        return is_safe_configuration(p, c.states());
      },
      analysis::default_budget(p), p.n);
  ASSERT_TRUE(res.converged);
  const std::uint32_t leader_rank_holder = [&] {
    for (std::uint32_t i = 0; i < p.n; ++i) {
      if (ElectLeader::is_leader(sim.population()[i])) return i;
    }
    return ~0u;
  }();
  sim.step(500'000);
  EXPECT_TRUE(ElectLeader::is_leader(sim.population()[leader_rank_holder]));
  EXPECT_EQ(leader_count(sim.population().states()), 1u);
}

// --- Ablation knobs interact correctly with the test predicates -------------

TEST(AblationKnobs, HardOnlyStillSelfStabilizes) {
  Params p = Params::make(16, 8);
  p.soft_reset_enabled = false;
  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, p,
      Corruption::kCorruptMessages, 31, 20 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged);  // slower, but still correct
  EXPECT_EQ(res.leaders, 1u);
}

TEST(AblationKnobs, NoBalanceStillDetectsEventually) {
  Params p = Params::make(16, 8);
  p.load_balancing_enabled = false;
  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, p,
      Corruption::kDuplicateRanks, 37, 20 * analysis::default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

}  // namespace
}  // namespace ssle::core
