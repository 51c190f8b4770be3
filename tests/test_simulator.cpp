#include "pp/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pp/population.hpp"

namespace ssle::pp {
namespace {

/// Toy protocol: one-way epidemic.  State 1 infects state 0.
struct Epidemic {
  using State = int;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const { return agent == 0 ? 1 : 0; }
  void interact(State& u, State& v, util::Rng&) const {
    if (u == 1 || v == 1) u = v = 1;
  }
};

int infected(const Population<Epidemic>& pop) {
  int k = 0;
  for (std::uint32_t i = 0; i < pop.size(); ++i) k += pop[i];
  return k;
}

TEST(Simulator, InitialPopulationComesFromProtocol) {
  Epidemic proto{16};
  Simulator<Epidemic> sim(proto, 1);
  EXPECT_EQ(infected(sim.population()), 1);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(Simulator, StepCountsInteractions) {
  Epidemic proto{16};
  Simulator<Epidemic> sim(proto, 1);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
}

TEST(Simulator, EpidemicEventuallyInfectsAll) {
  Epidemic proto{64};
  Simulator<Epidemic> sim(proto, 2);
  const auto result = sim.run_until(
      [](const Population<Epidemic>& pop, std::uint64_t) {
        return infected(pop) == static_cast<int>(pop.size());
      },
      1u << 20);
  EXPECT_TRUE(result.converged);
  // Epidemics complete within c_epi·n·log n interactions w.h.p. (Lemma A.2,
  // c_epi < 7): 7·64·ln 64 ≈ 1863.
  EXPECT_LT(result.interactions, 4000u);
  EXPECT_GT(result.interactions, 64u);
}

TEST(Simulator, RunUntilChecksInitialConfiguration) {
  Epidemic proto{8};
  Simulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const Population<Epidemic>&, std::uint64_t) { return true; }, 1000);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 0u);
}

TEST(Simulator, RunUntilRespectsBudget) {
  Epidemic proto{8};
  Simulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const Population<Epidemic>&, std::uint64_t) { return false; }, 500,
      64);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.interactions, 500u);
}

TEST(Simulator, DeterministicGivenSeed) {
  Epidemic proto{32};
  Simulator<Epidemic> a(proto, 9);
  Simulator<Epidemic> b(proto, 9);
  a.step(500);
  b.step(500);
  EXPECT_EQ(a.population().states(), b.population().states());
}

TEST(Simulator, ParallelTimeIsInteractionsOverN) {
  RunResult r;
  r.interactions = 640;
  EXPECT_DOUBLE_EQ(r.parallel_time(64), 10.0);
  EXPECT_DOUBLE_EQ(r.parallel_time(0), 0.0);
}

TEST(Simulator, ExplicitPopulationConstructor) {
  Epidemic proto{4};
  Population<Epidemic> pop(std::vector<int>{1, 1, 1, 1});
  Simulator<Epidemic> sim(proto, std::move(pop), 5);
  EXPECT_EQ(infected(sim.population()), 4);
}

// The uniform scheduler draws two distinct agents: the constructor rejects
// smaller populations instead of leaving the first draw undefined.
TEST(SimulatorDeathTest, RejectsPopulationsBelowTwo) {
  EXPECT_EXIT({ Simulator<Epidemic> sim(Epidemic{1}, 1); },
              ::testing::ExitedWithCode(2), "naive engine.*n=1 \\(field: n\\)");
  EXPECT_EXIT(
      {
        Population<Epidemic> empty(std::vector<int>{});
        Simulator<Epidemic> sim(Epidemic{4}, std::move(empty), 1);
      },
      ::testing::ExitedWithCode(2), "n=0 \\(field: n\\)");
}

TEST(SimulatorDeathTest, RejectsPopulationsPastThirtyTwoBitIndices) {
  constexpr std::uint64_t kMax = Simulator<Epidemic>::kMaxAgents;
  EXPECT_EQ(kMax, 0xFFFFFFFFull);
  EXPECT_EXIT(require_population("naive", kMax + 1, kMax),
              ::testing::ExitedWithCode(2), "n=4294967296 \\(field: n\\)");
}

}  // namespace
}  // namespace ssle::pp
