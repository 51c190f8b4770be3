#include "pp/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "pp/graph.hpp"
#include "pp/population.hpp"
#include "util/rng.hpp"

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

// An "unbounded" budget of ~0 must not wrap once the engine has stepped.
TEST(Simulator, RunUntilUnboundedBudgetAfterStepping) {
  Epidemic proto{8};
  Simulator<Epidemic> sim(proto, 3);
  sim.step(10);
  const auto result = sim.run_until(
      [](const Population<Epidemic>&, std::uint64_t t) { return t >= 200; },
      ~std::uint64_t{0}, 50);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 210u);
}

TEST(BudgetLimit, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(budget_limit(10, 5), 15u);
  EXPECT_EQ(budget_limit(10, ~std::uint64_t{0}), ~std::uint64_t{0});
  EXPECT_EQ(budget_limit(~std::uint64_t{0} - 3, 3), ~std::uint64_t{0});
  EXPECT_EQ(budget_limit(~std::uint64_t{0} - 3, 4), ~std::uint64_t{0});
}

// --- Chunking: step() runs the same stream as a one-pair-at-a-time loop -----

/// The reference loop: draw one pair, run δ on it, repeat.  The engine's δ
/// stream is substream(seed, 2).
template <typename P, typename Sched>
std::vector<typename P::State> hand_rolled(const P& protocol,
                                           Population<P> population,
                                           Sched scheduler, std::uint64_t seed,
                                           std::uint64_t total) {
  util::Rng rng(util::substream(seed, 2));
  for (std::uint64_t i = 0; i < total; ++i) {
    const Pair pair = scheduler.next();
    protocol.interact(population[pair.initiator], population[pair.responder],
                      rng);
  }
  return population.states();
}

/// `total` interactions through Simulator::step, in chunks of `chunk`.
template <typename P, typename Sched>
std::vector<typename P::State> chunked(const P& protocol,
                                       Population<P> population,
                                       Sched scheduler, std::uint64_t seed,
                                       std::uint64_t total,
                                       std::uint64_t chunk) {
  Simulator<P, Sched> sim(protocol, std::move(population),
                          std::move(scheduler), seed);
  while (sim.interactions() < total) {
    sim.step(std::min(chunk, total - sim.interactions()));
  }
  return sim.population().states();
}

/// Checks chunk sizes from 1 up to n against the reference loop; returns
/// the reference configuration.
template <typename P, typename Sched>
std::vector<typename P::State> expect_stream_identity(
    const P& protocol, const Sched& scheduler, std::uint64_t seed,
    std::uint64_t total) {
  const auto expected =
      hand_rolled(protocol, Population<P>(protocol), scheduler, seed, total);
  for (const std::uint64_t chunk :
       {std::uint64_t{1}, std::uint64_t{15}, std::uint64_t{16},
        std::uint64_t{17}, std::uint64_t{1000},
        std::uint64_t{protocol.population_size()}}) {
    EXPECT_EQ(chunked(protocol, Population<P>(protocol), scheduler, seed,
                      total, chunk),
              expected)
        << "chunk " << chunk;
  }
  return expected;
}

/// True when the epidemic is still spreading, so the configuration
/// depends on the order the interactions ran in.
bool mid_spread(const std::vector<int>& states) {
  const auto ones = std::count(states.begin(), states.end(), 1);
  return ones > 1 && ones < static_cast<long>(states.size());
}

TEST(SimulatorChunking, ElectLeaderOnUniformSchedulerMatchesOnePairLoop) {
  const core::Params p =
      core::Params::make(64, 8, core::MessageMultiplicity::kLight);
  const core::ElectLeader protocol(p);
  const std::uint64_t seed = 17;
  // Far enough for the run to reach verifiers and their message traffic.
  expect_stream_identity(protocol,
                         UniformScheduler(p.n, util::substream(seed, 1)),
                         seed, 60007);
}

/// Toy protocol whose states depend on every interaction and its order:
/// each agent folds its partner's state into a running hash.  An epidemic
/// forgets most of its history (only the draws that infect matter), so
/// Trail is what catches a skipped or repeated pair.
struct Trail {
  using State = std::uint64_t;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const { return agent; }
  void interact(State& u, State& v, util::Rng&) const {
    const State a = u;
    u = a * 0x9e3779b97f4a7c15ull + v + 1;
    v = v * 0xc2b2ae3d27d4eb4full + a + 2;
  }
};

TEST(SimulatorChunking, EpidemicOnGraphSchedulerMatchesOnePairLoop) {
  const std::uint64_t seed = 5;
  const GraphScheduler scheduler(Graph::cycle(64), util::substream(seed, 1));
  EXPECT_TRUE(mid_spread(
      expect_stream_identity(Epidemic{64}, scheduler, seed, 1003)));
  expect_stream_identity(Trail{64}, scheduler, seed, 1003);
}

TEST(SimulatorChunking, EpidemicOnBlockedSchedulerMatchesOnePairLoop) {
  const std::uint64_t seed = 6;
  const BlockedScheduler scheduler(
      BlockedTopology::islands(64, 4, 1.0, 0.001), util::substream(seed, 1));
  EXPECT_TRUE(mid_spread(
      expect_stream_identity(Epidemic{64}, scheduler, seed, 1003)));
  expect_stream_identity(Trail{64}, scheduler, seed, 1003);
}

}  // namespace
}  // namespace ssle::pp
