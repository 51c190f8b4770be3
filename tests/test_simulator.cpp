#include "pp/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/derandomized.hpp"
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

// --- SilentLane: the packed countdown lane runs the one-pair loop ----------

static_assert(SilentLane<core::ElectLeader>);
static_assert(!SilentLane<core::DerandomizedElectLeader>);  // coins move
static_assert(!SilentLane<Epidemic>);

/// The one-pair loop on a plain agent array, with the engine's streams and
/// the engine's population edits.
struct PlainRun {
  core::ElectLeader protocol;
  std::vector<core::Agent> agents;
  UniformScheduler scheduler;
  util::Rng rng;

  PlainRun(const core::ElectLeader& p, std::vector<core::Agent> start,
           std::uint64_t seed)
      : protocol(p),
        agents(std::move(start)),
        scheduler(static_cast<std::uint32_t>(agents.size()),
                  util::substream(seed, 1)),
        rng(util::substream(seed, 2)) {}

  void step(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const Pair pair = scheduler.next();
      protocol.interact(agents[pair.initiator], agents[pair.responder], rng);
    }
  }
  void resized() {
    scheduler.set_population_size(static_cast<std::uint32_t>(agents.size()));
  }
};

using LaneSim = Simulator<core::ElectLeader>;

/// Applies edit k (of five kinds) to both runs: a countdown and a whole
/// state written through population(), add_agent, remove_agent and
/// set_agents.
void edit_both(int k, const core::Params& p, LaneSim& sim, PlainRun& ref,
               util::Rng& rng) {
  auto i = static_cast<std::uint32_t>(rng.below(ref.agents.size()));
  switch (k % 5) {
    case 0: {  // a lane key changed behind the engine's back
      auto& agents = sim.population().states();
      const auto keyed =
          std::find_if(agents.begin(), agents.end(), [](const auto& a) {
            return core::ElectLeader::lane_key(a) != 0;
          });
      if (keyed != agents.end()) {
        i = static_cast<std::uint32_t>(keyed - agents.begin());
      }
      core::Agent& a = agents[i];
      a.countdown = a.countdown / 2 + 1;
      ref.agents[i].countdown = ref.agents[i].countdown / 2 + 1;
      break;
    }
    case 1: {
      const core::Agent s = core::random_agent(p, rng);
      sim.population()[i] = s;
      ref.agents[i] = s;
      break;
    }
    case 2:
      sim.add_agent(ref.protocol.initial_state(0));
      ref.agents.push_back(ref.protocol.initial_state(0));
      ref.resized();
      break;
    case 3:
      sim.remove_agent(i);
      if (i + 1 != ref.agents.size()) ref.agents[i] = ref.agents.back();
      ref.agents.pop_back();
      ref.resized();
      break;
    case 4: {
      std::vector<core::Agent> agents = ref.agents;
      std::rotate(agents.begin(), agents.begin() + 1, agents.end());
      sim.set_agents(agents);
      ref.agents = std::move(agents);
      break;
    }
  }
}

/// Runs the engine and the plain loop side by side for about `total`
/// interactions.  Each round takes a step of n (which builds the lane),
/// about 2n interactions in steps of `chunk`, a const read (which flushes
/// the lane and must keep the run) and one more step of `chunk` (which
/// drops a flushed lane when chunk < n); five rounds also edit the
/// population.  Returns true when some round saw every agent silent.
bool expect_lane_matches_plain(const core::Params& p,
                               std::vector<core::Agent> start,
                               std::uint64_t seed, std::uint64_t chunk,
                               std::uint64_t total) {
  const core::ElectLeader protocol(p);
  LaneSim sim(protocol, Population<core::ElectLeader>(start), seed);
  PlainRun ref(protocol, std::move(start), seed);
  util::Rng edits(util::substream(seed, 50));
  int edit = 0;
  bool saw_silent = false;
  const auto both = [&](std::uint64_t count) {
    sim.step(count);
    ref.step(count);
  };
  while (sim.interactions() < total) {
    const std::uint64_t n = ref.agents.size();
    both(n);
    for (std::uint64_t k = 0; k < 2 * n; k += chunk) both(chunk);
    const auto& seen = std::as_const(sim).population().states();
    if (seen != ref.agents) {
      ADD_FAILURE() << "diverged by " << sim.interactions() << ", chunk "
                    << chunk;
      return saw_silent;
    }
    saw_silent |= std::all_of(seen.begin(), seen.end(), [](const auto& a) {
      return core::ElectLeader::lane_key(a) > 1;
    });
    both(chunk);
    if (edit < 5 && sim.interactions() >= (edit + 1) * total / 6) {
      edit_both(edit++, p, sim, ref, edits);
      both(chunk);
    }
  }
  EXPECT_EQ(edit, 5);
  EXPECT_EQ(sim.population().states(), ref.agents) << "chunk " << chunk;
  return saw_silent;
}

TEST(SilentLane, CleanStartMatchesThePlainLoop) {
  // At n = 64 every agent is silent from ≈ 8 000 to ≈ 40 000
  // interactions, so the first edits land in the silent phase.
  const core::Params p =
      core::Params::make(64, 8, core::MessageMultiplicity::kLight);
  const core::ElectLeader protocol(p);
  std::vector<core::Agent> start;
  for (std::uint32_t i = 0; i < p.n; ++i) {
    start.push_back(protocol.initial_state(i));
  }
  for (const std::uint64_t chunk : {std::uint64_t{1}, std::uint64_t{15},
                                    std::uint64_t{p.n}}) {
    // The run reaches the silent phase, where the lane does its work.
    EXPECT_TRUE(expect_lane_matches_plain(p, start, 21, chunk, 60000))
        << "chunk " << chunk;
  }
}

TEST(SilentLane, EveryCorruptionClassMatchesThePlainLoop) {
  const core::Params p =
      core::Params::make(32, 8, core::MessageMultiplicity::kLight);
  std::uint64_t stream = 0;
  for (const core::Corruption c : core::all_corruptions()) {
    util::Rng rng(util::substream(31, stream++));
    const auto start = core::make_adversarial_config(p, c, rng);
    for (const std::uint64_t chunk : {std::uint64_t{1}, std::uint64_t{15},
                                      std::uint64_t{p.n}}) {
      SCOPED_TRACE(core::corruption_name(c));
      expect_lane_matches_plain(p, start, 40 + stream, chunk, 60000);
    }
  }
}

}  // namespace
}  // namespace ssle::pp
