#include "pp/graph.hpp"

#include <gtest/gtest.h>

#include <map>

#include "pair_digest.hpp"
#include "pp/simulator.hpp"

namespace ssle::pp {
namespace {

TEST(Graph, CompleteHasAllEdges) {
  const Graph g = Graph::complete(6);
  EXPECT_EQ(g.edges(), 15u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.min_degree(), 5u);
  EXPECT_EQ(g.max_degree(), 5u);
}

TEST(Graph, CycleDegreesAndConnectivity) {
  const Graph g = Graph::cycle(10);
  EXPECT_EQ(g.edges(), 10u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, PathHasEndpoints) {
  const Graph g = Graph::path(10);
  EXPECT_EQ(g.edges(), 9u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.min_degree(), 1u);
}

TEST(Graph, StarCenterDegree) {
  const Graph g = Graph::star(10);
  EXPECT_EQ(g.edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  EXPECT_EQ(g.max_degree(), 9u);
  EXPECT_EQ(g.min_degree(), 1u);
}

TEST(Graph, NoSelfLoopsOrDuplicates) {
  Graph g(4);
  g.add_edge(1, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(9, 1);  // out of range
  EXPECT_EQ(g.edges(), 1u);
}

TEST(Graph, DisconnectedDetected) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
}

TEST(Graph, RandomRegularIsConnectedAndBoundedDegree) {
  util::Rng rng(1);
  for (std::uint32_t d : {2u, 4u, 8u}) {
    const Graph g = Graph::random_regular(64, d, rng);
    EXPECT_TRUE(g.is_connected()) << "d=" << d;
    EXPECT_LE(g.max_degree(), d) << "d=" << d;
    EXPECT_GE(g.min_degree(), 2u) << "d=" << d;
  }
}

TEST(Graph, ErdosRenyiConnectedAboveThreshold) {
  util::Rng rng(2);
  const Graph g = Graph::erdos_renyi(64, 0.2, rng);
  EXPECT_TRUE(g.is_connected());
  EXPECT_GT(g.edges(), 64u);
}

TEST(GraphScheduler, OnlyEdgesInteract) {
  util::Rng rng(3);
  const Graph g = Graph::cycle(8);
  GraphScheduler sched(g, 4);
  for (int i = 0; i < 5000; ++i) {
    const Pair p = sched.next();
    EXPECT_TRUE(sched.graph().has_edge(p.initiator, p.responder));
  }
}

TEST(GraphScheduler, BothOrientationsOccur) {
  GraphScheduler sched(Graph::path(2), 5);
  std::map<std::uint32_t, int> initiators;
  for (int i = 0; i < 1000; ++i) ++initiators[sched.next().initiator];
  EXPECT_GT(initiators[0], 300);
  EXPECT_GT(initiators[1], 300);
}

TEST(GraphScheduler, CompleteGraphMatchesUniformModel) {
  // On the complete graph every ordered pair is equally likely — the
  // classical population model.
  GraphScheduler sched(Graph::complete(5), 6);
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> counts;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const Pair p = sched.next();
    ++counts[{p.initiator, p.responder}];
  }
  EXPECT_EQ(counts.size(), 20u);
  const double expected = kDraws / 20.0;
  for (const auto& [pair, c] : counts) {
    EXPECT_NEAR(c, expected, 0.15 * expected);
  }
}

// --- Epidemic spreading across graph families ------------------------------

struct Epidemic {
  using State = int;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const { return agent == 0 ? 1 : 0; }
  void interact(State& u, State& v, util::Rng&) const {
    if (u == 1 || v == 1) u = v = 1;
  }
};

std::uint64_t epidemic_time_on(const Graph& g, std::uint64_t seed) {
  Epidemic proto{g.vertices()};
  Simulator<Epidemic, GraphScheduler> sim(
      proto, Population<Epidemic>(proto), GraphScheduler(g, seed), seed);
  const auto res = sim.run_until(
      [](const Population<Epidemic>& pop, std::uint64_t) {
        for (std::uint32_t i = 0; i < pop.size(); ++i) {
          if (pop[i] == 0) return false;
        }
        return true;
      },
      1u << 24, g.vertices());
  return res.converged ? res.interactions : ~0ull;
}

TEST(GraphEpidemic, CompleteFasterThanCycle) {
  // Conductance separation: complete graph Θ(n log n) vs cycle Θ(n²)-ish.
  const std::uint32_t n = 64;
  const auto complete = epidemic_time_on(pp::Graph::complete(n), 7);
  const auto cycle = epidemic_time_on(pp::Graph::cycle(n), 7);
  EXPECT_LT(complete * 4, cycle);
}

TEST(GraphEpidemic, ExpanderNearlyMatchesComplete) {
  const std::uint32_t n = 64;
  util::Rng rng(8);
  const auto expander =
      epidemic_time_on(Graph::random_regular(n, 8, rng), 9);
  const auto complete = epidemic_time_on(Graph::complete(n), 9);
  EXPECT_LT(expander, 8 * complete);
}

// --- Bounds the naive engine would otherwise trust ------------------------

TEST(GraphSchedulerDeathTest, EdgelessGraphExits) {
  EXPECT_EXIT({ GraphScheduler sched(Graph(10), 1); },
              ::testing::ExitedWithCode(2), "\\(field: graph\\.edges\\)");
}

TEST(SimulatorDeathTest, SchedulerOverOtherAgentsExits) {
  // A 20-vertex cycle over 10 agents would index past the agent array.
  using GraphSim = Simulator<Epidemic, GraphScheduler>;
  using BlockedSim = Simulator<Epidemic, BlockedScheduler>;
  const Epidemic proto{10};
  EXPECT_EXIT(
      {
        GraphSim sim(proto, Population<Epidemic>(proto),
                     GraphScheduler(Graph::cycle(20), 1), 1);
      },
      ::testing::ExitedWithCode(2),
      "draws from 20 agents.*has 10 \\(field: scheduler\\.agents\\)");
  EXPECT_EXIT(
      {
        BlockedSim sim(proto, Population<Epidemic>(proto),
                       BlockedScheduler(BlockedTopology::islands(12, 2), 1),
                       1);
      },
      ::testing::ExitedWithCode(2), "\\(field: scheduler\\.agents\\)");
}

// --- Golden pins: FNV-1a digests of the first 10^6 pairs, recorded from the
// branchy skip-self draws before they became branch-free -------------------

TEST(SchedulerGolden, BlockedIslandsStreamIsPinned) {
  // Unequal communities (1003 = 251 + 3·250) with intra != inter, so both
  // the same-community and the cross-community draws are exercised.
  BlockedScheduler sched(BlockedTopology::islands(1003, 4, 1.0, 0.05), 1);
  EXPECT_EQ(pair_stream_digest(sched, 1000000), 0x9dd71024f093c46bull);
}

TEST(SchedulerGolden, BlockedMultipartiteStreamIsPinned) {
  // intra = 0: only cross-community draws, so this pins the community
  // table and offsets apart from the skip-self step.
  BlockedScheduler sched(BlockedTopology::multipartite(1003, 3), 1);
  EXPECT_EQ(pair_stream_digest(sched, 1000000), 0xf8592c7d8d1106ebull);
}

TEST(SchedulerGolden, GraphCycleStreamIsPinned) {
  GraphScheduler sched(Graph::cycle(64), 1);
  EXPECT_EQ(pair_stream_digest(sched, 1000000), 0x6343515ca3e72b6dull);
}

}  // namespace
}  // namespace ssle::pp
