// Blocked topologies and the analysis layer's Engine × Topology dispatch.
//
// BlockedScheduler is the naive engine's exact scheduler for islands and
// complete-multipartite topologies; the counts engines simulate the uniform
// scheduler only, so every non-complete topology runs here.  Its pair law
// is checked two independent ways: per ordered agent pair against the
// closed-form edge weights, and by total-variation distance of empirical
// convergence-time laws at tiny n against GraphScheduler over the
// materialized Graph::complete_multipartite, for Epidemic and
// LooseLeaderElection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "analysis/measure.hpp"
#include "obs/journal.hpp"
#include "baselines/loose_leader.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace ssle::pp {
namespace {

using baselines::LooseLeaderElection;

// ---------------------------------------------------------------------------
// BlockedTopology: layout, weights, sampling.
// ---------------------------------------------------------------------------

TEST(BlockedTopology, NearEqualSplitAndOffsets) {
  const auto topo = BlockedTopology::islands(10, 3, 1.0, 0.5);
  ASSERT_EQ(topo.communities(), 3u);
  EXPECT_EQ(topo.size(0), 4u);  // first n % K communities are one larger
  EXPECT_EQ(topo.size(1), 3u);
  EXPECT_EQ(topo.size(2), 3u);
  EXPECT_EQ(topo.offset(0), 0u);
  EXPECT_EQ(topo.offset(1), 4u);
  EXPECT_EQ(topo.offset(2), 7u);
  EXPECT_EQ(topo.total_agents(), 10u);
  EXPECT_EQ(topo.community_of_agent(0), 0u);
  EXPECT_EQ(topo.community_of_agent(3), 0u);
  EXPECT_EQ(topo.community_of_agent(4), 1u);
  EXPECT_EQ(topo.community_of_agent(9), 2u);
  EXPECT_EQ(topo.name(), "islands:3");
}

TEST(BlockedTopology, OrderedPairWeightsAreClosedForm) {
  const auto topo = BlockedTopology::islands(10, 3, 1.0, 0.5);
  // W(a, a) = intra·m_a·(m_a−1); W(a, b) = inter·m_a·m_b.
  EXPECT_DOUBLE_EQ(topo.pair_weight(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(1, 2), 4.5);
}

TEST(BlockedTopology, MultipartiteHasNoIntraEdges) {
  const auto topo = BlockedTopology::multipartite(6, 2);
  EXPECT_DOUBLE_EQ(topo.pair_weight(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(topo.pair_weight(0, 1), 9.0);
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto [a, b] = topo.sample_pair(rng);
    EXPECT_NE(a, b) << "multipartite sampled an intra-community pair";
  }
}

TEST(BlockedTopology, SingleCommunityIsTheCompleteGraph) {
  const auto topo = BlockedTopology::complete(8);
  EXPECT_EQ(topo.communities(), 1u);
  EXPECT_EQ(topo.size(0), 8u);
  util::Rng rng(5);
  EXPECT_EQ(topo.sample_pair(rng), (std::pair<std::uint32_t, std::uint32_t>{0, 0}));
}

TEST(BlockedScheduler, RealizesTheUniformInterPairLawOnMultipartite) {
  // On multipartite(6, 2) the ordered-pair law is uniform over the 18
  // ordered inter-block pairs.  Check empirical frequencies, and that
  // intra-block pairs never occur.
  const auto topo = BlockedTopology::multipartite(6, 2);
  BlockedScheduler sched(topo, 42);
  const int draws = 36000;
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> freq;
  for (int i = 0; i < draws; ++i) {
    const Pair p = sched.next();
    ASSERT_NE(p.initiator, p.responder);
    ASSERT_NE(topo.community_of_agent(p.initiator),
              topo.community_of_agent(p.responder));
    ++freq[{p.initiator, p.responder}];
  }
  EXPECT_EQ(freq.size(), 18u);
  const double expected = draws / 18.0;  // 2000 per ordered pair
  for (const auto& [pair, count] : freq) {
    EXPECT_NEAR(count, expected, 6.0 * std::sqrt(expected))
        << "pair (" << pair.first << ", " << pair.second << ")";
  }
}

TEST(BlockedScheduler, RealizesTheWeightedPairLawOnIslands) {
  // islands(6, 2, 1.0, 0.25): blocks {0, 1, 2} and {3, 4, 5}.  The 12
  // ordered intra pairs weigh 1.0 and the 18 ordered inter pairs 0.25, so
  // of the total weight 16.5 an intra pair takes 1/16.5 of the draws and
  // an inter pair 0.25/16.5.
  const auto topo = BlockedTopology::islands(6, 2, 1.0, 0.25);
  BlockedScheduler sched(topo, 43);
  const int draws = 66000;
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> freq;
  for (int i = 0; i < draws; ++i) {
    const Pair p = sched.next();
    ASSERT_NE(p.initiator, p.responder);
    ++freq[{p.initiator, p.responder}];
  }
  EXPECT_EQ(freq.size(), 30u);
  for (const auto& [pair, count] : freq) {
    const bool intra = topo.community_of_agent(pair.first) ==
                       topo.community_of_agent(pair.second);
    const double expected = draws * (intra ? 1.0 : 0.25) / 16.5;
    EXPECT_NEAR(count, expected, 6.0 * std::sqrt(expected))
        << "pair (" << pair.first << ", " << pair.second << ")";
  }
}

TEST(Graph, CompleteMultipartiteMatchesTheBlockedLayout) {
  const auto g = Graph::complete_multipartite(7, 2);  // blocks {0..3}, {4..6}
  EXPECT_EQ(g.vertices(), 7u);
  EXPECT_EQ(g.edges(), 12u);  // 4·3 inter-block pairs
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(4, 6));
  EXPECT_TRUE(g.is_connected());
}

// ---------------------------------------------------------------------------
// Law equality: naive over BlockedScheduler vs naive over GraphScheduler on
// the materialized complete-multipartite graph.
// ---------------------------------------------------------------------------

bool population_all_infected(const Population<Epidemic>& pop) {
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (pop[i] == 0) return false;
  }
  return true;
}

std::uint64_t epidemic_time_blocked_naive(const BlockedTopology& topo,
                                          std::uint64_t seed) {
  const Epidemic proto{static_cast<std::uint32_t>(topo.total_agents())};
  Simulator<Epidemic, BlockedScheduler> sim(
      proto, Population<Epidemic>(proto),
      BlockedScheduler(topo, util::substream(seed, 1)), seed);
  const auto res = sim.run_until(
      [](const Population<Epidemic>& pop, std::uint64_t) {
        return population_all_infected(pop);
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(res.converged);
  return res.interactions;
}

std::uint64_t epidemic_time_graph_naive(const Graph& graph,
                                        std::uint64_t seed) {
  const Epidemic proto{graph.vertices()};
  Simulator<Epidemic, GraphScheduler> sim(
      proto, Population<Epidemic>(proto),
      GraphScheduler(graph, util::substream(seed, 1)), seed);
  const auto res = sim.run_until(
      [](const Population<Epidemic>& pop, std::uint64_t) {
        return population_all_infected(pop);
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(res.converged);
  return res.interactions;
}

double tv_distance(const std::map<std::uint64_t, int>& a,
                   const std::map<std::uint64_t, int>& b, int trials) {
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : a) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : b) diff[k] -= static_cast<double>(c) / trials;
  double tv = 0.0;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  return tv / 2.0;
}

TEST(CommunityLawEquality, EpidemicOnCompleteMultipartiteMatchesGraphNaive) {
  // The reference runs the *materialized* complete-multipartite graph via
  // the generic edge-list scheduler — an independent implementation of the
  // same law (uniform over inter-block ordered pairs).
  const auto graph = Graph::complete_multipartite(8, 2);
  const auto topo = BlockedTopology::multipartite(8, 2);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_graph, pmf_blocked;
  for (int t = 0; t < trials; ++t) {
    ++pmf_graph[epidemic_time_graph_naive(graph, 20000 + t)];
    ++pmf_blocked[epidemic_time_blocked_naive(topo, 70000 + t)];
  }
  const double tv = tv_distance(pmf_graph, pmf_blocked, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

// LooseLeaderElection: leader-count profile at two horizons.  The first
// promotion happens at the very first follower×follower timeout, so the
// hitting time of "one leader" is degenerate; the discriminating
// observable is how leader fights and heartbeat refills play out, which
// depends on the pair law through the community mixing rate.
std::uint64_t loose_profile_blocked_naive(const BlockedTopology& topo,
                                          std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(topo.total_agents());
  const LooseLeaderElection proto(n);
  Simulator<LooseLeaderElection, BlockedScheduler> sim(
      proto, Population<LooseLeaderElection>(proto),
      BlockedScheduler(topo, util::substream(seed, 1)), seed);
  std::uint64_t profile = 0;
  for (const std::uint64_t horizon : {40, 160}) {
    while (sim.interactions() < horizon) sim.step();
    std::uint32_t leaders = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      leaders += sim.population()[i].leader ? 1 : 0;
    }
    profile = profile * 100 + leaders;
  }
  return profile;
}

std::uint64_t loose_profile_graph_naive(const Graph& graph,
                                        std::uint64_t seed) {
  const auto n = graph.vertices();
  const LooseLeaderElection proto(n);
  Simulator<LooseLeaderElection, GraphScheduler> sim(
      proto, Population<LooseLeaderElection>(proto),
      GraphScheduler(graph, util::substream(seed, 1)), seed);
  std::uint64_t profile = 0;
  for (const std::uint64_t horizon : {40, 160}) {
    while (sim.interactions() < horizon) sim.step();
    std::uint32_t leaders = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      leaders += sim.population()[i].leader ? 1 : 0;
    }
    profile = profile * 100 + leaders;
  }
  return profile;
}

TEST(CommunityLawEquality, LooseLeaderOnCompleteMultipartiteMatchesGraphNaive) {
  const auto graph = Graph::complete_multipartite(8, 2);
  const auto topo = BlockedTopology::multipartite(8, 2);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_graph, pmf_blocked;
  for (int t = 0; t < trials; ++t) {
    ++pmf_graph[loose_profile_graph_naive(graph, 21000 + t)];
    ++pmf_blocked[loose_profile_blocked_naive(topo, 71000 + t)];
  }
  const double tv = tv_distance(pmf_graph, pmf_blocked, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

// ---------------------------------------------------------------------------
// epidemic_convergence's Engine × Topology dispatch; analysis::stabilize's
// topology schedulers.
// ---------------------------------------------------------------------------

TEST(TopologyDispatch, ParsesEverySpecForm) {
  const auto islands = analysis::topology_from_string("islands:4");
  EXPECT_EQ(islands.kind, analysis::Topology::Kind::kIslands);
  EXPECT_EQ(islands.communities, 4u);
  EXPECT_DOUBLE_EQ(islands.intra, 1.0);
  EXPECT_DOUBLE_EQ(islands.inter, 0.05);

  const auto weighted = analysis::topology_from_string("islands:3:2.0:0.5");
  EXPECT_EQ(weighted.communities, 3u);
  EXPECT_DOUBLE_EQ(weighted.intra, 2.0);
  EXPECT_DOUBLE_EQ(weighted.inter, 0.5);

  const auto multi = analysis::topology_from_string("multipartite:2");
  EXPECT_EQ(multi.kind, analysis::Topology::Kind::kMultipartite);

  const auto complete = analysis::topology_from_string("complete");
  EXPECT_EQ(complete.kind, analysis::Topology::Kind::kComplete);

  const auto ring = analysis::topology_from_string("ring");
  EXPECT_EQ(ring.kind, analysis::Topology::Kind::kRing);
}

TEST(TopologyDispatchDeathTest, RejectsInvalidSpecs) {
  EXPECT_EXIT(analysis::topology_from_string("torus"),
              ::testing::ExitedWithCode(2), "not a valid topology");
  EXPECT_EXIT(analysis::topology_from_string("islands:0"),
              ::testing::ExitedWithCode(2), "K must be >= 1");
  EXPECT_EXIT(analysis::topology_from_string("multipartite:1"),
              ::testing::ExitedWithCode(2), "K >= 2");
  EXPECT_EXIT(analysis::topology_from_string("islands:2:1.0:0"),
              ::testing::ExitedWithCode(2), "disconnected");
  EXPECT_EXIT(analysis::topology_from_string("islands:2xyz"),
              ::testing::ExitedWithCode(2), "not a valid topology");
}

TEST(TopologyDispatchDeathTest, UnsupportedCombinationNamesTheTopology) {
  // The ring at n beyond the naive engine's uint32 limit has NO exact
  // engine: the error is a hard exit that names the topology (S1).
  EXPECT_EXIT(
      analysis::epidemic_convergence(analysis::Engine::kNaive,
                                     0x100000000ull, 1, 0, 0,
                                     analysis::topology_from_string("ring")),
      ::testing::ExitedWithCode(2), "topology 'ring'");
  // Same for a blocked topology beyond that limit, on every engine: only
  // the naive engine runs non-complete topologies.
  EXPECT_EXIT(analysis::epidemic_convergence(
                  analysis::Engine::kNaive, 0x100000000ull, 1, 0, 0,
                  analysis::topology_from_string("islands:4")),
              ::testing::ExitedWithCode(2), "topology 'islands:4'");
  EXPECT_EXIT(analysis::epidemic_convergence(
                  analysis::Engine::kBatched, 0x100000000ull, 1, 0, 0,
                  analysis::topology_from_string("islands:4")),
              ::testing::ExitedWithCode(2), "topology 'islands:4'");
}

TEST(TopologyDispatch, RingReroutesCountsEnginesToNaive) {
  // --engine=batched on the ring routes (loudly) to the naive engine and
  // still produces the ring's Θ(n²) epidemic, far above the complete
  // graph's Θ(n log n).
  const auto ring = analysis::topology_from_string("ring");
  const auto res = analysis::epidemic_convergence(analysis::Engine::kBatched,
                                                  48, 7, 0, 1, ring);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.interactions, 400u);  // n·ln n ≈ 186; the ring crawls
}

TEST(TopologyDispatch, IslandsEpidemicConvergesOnEveryEngine) {
  const auto topo = analysis::topology_from_string("islands:4:1.0:0.1");
  const auto naive = analysis::epidemic_convergence(analysis::Engine::kNaive,
                                                    512, 3, 0, 0, topo);
  const auto batched = analysis::epidemic_convergence(
      analysis::Engine::kBatched, 512, 3, 0, 0, topo);
  const auto leaping = analysis::epidemic_convergence(
      analysis::Engine::kLeaping, 512, 4, 0, 0, topo);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(batched.converged);  // both reroute to the naive engine
  EXPECT_TRUE(leaping.converged);
  EXPECT_GE(naive.interactions, 512u);
  EXPECT_GE(batched.interactions, 512u);
}

TEST(TopologyDispatch, BlockedTopologyReroutesCountsEnginesToNaive) {
  // One routing rule: a batched or leaping request on a blocked topology
  // runs the naive BlockedScheduler engine, so it returns the naive run's
  // result for the same seed.
  for (const char* spec : {"islands:4", "multipartite:3"}) {
    SCOPED_TRACE(spec);
    const auto topo = analysis::topology_from_string(spec);
    const auto naive = analysis::epidemic_convergence(
        analysis::Engine::kNaive, 600, 5, 0, 0, topo);
    ASSERT_TRUE(naive.converged);
    for (const auto engine :
         {analysis::Engine::kBatched, analysis::Engine::kLeaping}) {
      const auto res =
          analysis::epidemic_convergence(engine, 600, 5, 0, 0, topo);
      EXPECT_EQ(res.interactions, naive.interactions);
      EXPECT_EQ(res.converged, naive.converged);
    }
  }
}

TEST(TopologyDispatch, ResolvedEngineIsTheOneTheHeartbeatsName) {
  // A report names resolved_engine(): the engine whose metrics the
  // journal's heartbeats carry.
  const std::string path = ::testing::TempDir() + "resolved_engine.jsonl";
  for (const char* spec : {"complete", "islands:4", "multipartite:3", "ring"}) {
    const auto topo = analysis::topology_from_string(spec);
    for (const auto engine : {analysis::Engine::kNaive,
                              analysis::Engine::kBatched,
                              analysis::Engine::kLeaping}) {
      SCOPED_TRACE(std::string(spec) + " " + analysis::engine_name(engine));
      const auto ran = analysis::resolved_engine(engine, topo);
      EXPECT_EQ(ran, std::string(spec) == "complete" ? engine
                                                    : analysis::Engine::kNaive);
      {
        obs::Journal::Options opts;
        opts.path = path;
        obs::Journal journal(opts);
        analysis::epidemic_convergence(engine, 300, 9, 0, 0, topo, &journal);
      }
      std::ifstream in(path);
      const std::string want =
          std::string("\"engine\":\"") + analysis::engine_name(ran) + "\"";
      int heartbeats = 0;
      for (std::string line; std::getline(in, line);) {
        if (line.find("\"engine\":") == std::string::npos) continue;
        ++heartbeats;
        EXPECT_NE(line.find(want), std::string::npos) << line;
      }
      EXPECT_GT(heartbeats, 0);
    }
  }
  std::remove(path.c_str());
}

TEST(TopologyDispatch, CompleteTopologyDelegatesToTheUniformPath) {
  // --topology=complete must be byte-for-byte the uniform overload: same
  // seeds, same engines, same results.
  const auto complete = analysis::topology_from_string("complete");
  const auto via_topo = analysis::epidemic_convergence(
      analysis::Engine::kBatched, 4096, 11, 0, 0, complete);
  const auto direct =
      analysis::epidemic_convergence(analysis::Engine::kBatched, 4096, 11);
  EXPECT_EQ(via_topo.interactions, direct.interactions);
  EXPECT_EQ(via_topo.converged, direct.converged);
}

TEST(TopologyDispatch, StabilizeElectsOneLeaderOnIslands) {
  const core::Params params = core::Params::make(16, 8);
  const auto topo = analysis::topology_from_string("islands:2:1.0:0.5");
  const auto res =
      analysis::stabilize(analysis::StartKind::kClean, params,
                          core::Corruption::kNone, 21,
                          analysis::default_budget(params), topo);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(TopologyDispatch, StabilizeRecoversFromAdversarialStartOnIslands) {
  const core::Params params = core::Params::make(16, 8);
  const auto topo = analysis::topology_from_string("islands:2:1.0:0.5");
  const auto budget = analysis::default_budget(params);
  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, params,
      core::Corruption::kCorruptMessages, 33, budget, topo);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

}  // namespace
}  // namespace ssle::pp
