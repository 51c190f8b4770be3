// Blocked topologies + the community-lifted counts engine.
//
// The load-bearing claim of the (community, state) lift is LAW EQUALITY:
// on a blocked topology, the naive agent-array engine driven by
// BlockedScheduler (or by GraphScheduler over the materialized graph) and
// the batched engine's lumped community path simulate the same Markov
// chain.  These tests pin that down the same way the uniform engines are
// pinned (tests/test_batched_simulator.cpp): total-variation distance of
// empirical convergence-time laws at tiny n, where a law bug cannot hide,
// for Epidemic and LooseLeaderElection, on 2-community islands and a
// complete-multipartite graph — plus the K = 1 degenerate case, where the
// community engine must reproduce the plain uniform law.
#include "pp/community_counts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

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
// CommunityCountsConfiguration bookkeeping.
// ---------------------------------------------------------------------------

TEST(CommunityCounts, BookkeepingAndMarginals) {
  const auto topo = BlockedTopology::islands(10, 2, 1.0, 0.5);
  CommunityCountsConfiguration<Epidemic> config(topo);
  const auto a0 = config.add_in(0, 0, 3);
  const auto a1 = config.add_in(0, 1, 2);
  const auto b0 = config.add_in(1, 0, 5);
  EXPECT_EQ(config.population_size(), 10u);
  EXPECT_EQ(config.community_size(0), 5u);
  EXPECT_EQ(config.community_size(1), 5u);
  // State marginals sum over communities; per-class counts do not.
  EXPECT_EQ(config.count_of(0), 8u);
  EXPECT_EQ(config.count_of(1), 2u);
  EXPECT_NE(a0, b0);
  EXPECT_EQ(config.state(a0), config.state(b0));
  EXPECT_EQ(config.community_of(a0), 0u);
  EXPECT_EQ(config.community_of(b0), 1u);
  // sample_class_in resolves positions within one community only.
  EXPECT_EQ(config.sample_class_in(0, 0), a0);
  EXPECT_EQ(config.sample_class_in(0, 2), a0);
  EXPECT_EQ(config.sample_class_in(0, 3), a1);
  EXPECT_EQ(config.sample_class_in(1, 4), b0);
  // index_near keeps the output in the input's community.
  const auto near = config.index_near(1, b0);
  EXPECT_EQ(config.community_of(near), 1u);
  EXPECT_NE(near, a1);
}

TEST(CommunityCounts, CompactKeepsLiveIdsAndCommunityListsInSync) {
  const auto topo = BlockedTopology::islands(10, 2, 1.0, 0.5);
  CommunityCountsConfiguration<Epidemic> config(topo);
  const auto a0 = config.add_in(0, 0, 5);
  const auto a1 = config.add_in(0, 1, 0);  // registered, never populated
  const auto b0 = config.add_in(1, 0, 5);
  const auto version = config.registry_version();
  config.compact();
  EXPECT_GT(config.registry_version(), version);
  EXPECT_EQ(config.count(a0), 5u);
  EXPECT_EQ(config.count(b0), 5u);
  EXPECT_EQ(config.community_of(a0), 0u);
  EXPECT_EQ(config.community_of(b0), 1u);
  // The member lists were rebuilt: sampling still resolves every position.
  EXPECT_EQ(config.sample_class_in(0, 4), a0);
  EXPECT_EQ(config.sample_class_in(1, 0), b0);
  EXPECT_NE(config.count(a0), config.count_of(1));
  (void)a1;
}

TEST(CommunityCounts, ProjectionPlacesAgentsByIndex) {
  // Agents 0..3 → community 0, agents 4..7 → community 1, matching
  // BlockedScheduler's contiguous layout (this is what makes the two
  // engines simulate the same chain from the same start).
  const auto topo = BlockedTopology::islands(8, 2, 1.0, 0.25);
  const std::vector<int> states{1, 1, 0, 0, 0, 0, 0, 1};
  CommunityCountsConfiguration<Epidemic> config(states, topo);
  EXPECT_EQ(config.population_size(), 8u);
  EXPECT_EQ(config.count_of(1), 3u);
  std::uint64_t infected_in_0 = 0, infected_in_1 = 0;
  for (std::uint32_t id = 0; id < config.num_states(); ++id) {
    if (config.count(id) == 0) continue;
    if (config.state(id) == 1) {
      (config.community_of(id) == 0 ? infected_in_0 : infected_in_1) +=
          config.count(id);
    }
  }
  EXPECT_EQ(infected_in_0, 2u);
  EXPECT_EQ(infected_in_1, 1u);
}

// ---------------------------------------------------------------------------
// Law equality: naive(graph / blocked scheduler) vs batched(lumped).
// ---------------------------------------------------------------------------

using CommunityBatched =
    BatchedSimulator<Epidemic, CommunityCountsConfiguration<Epidemic>>;

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

std::uint64_t epidemic_time_lumped(const BlockedTopology& topo,
                                   std::uint64_t seed) {
  const Epidemic proto{static_cast<std::uint32_t>(topo.total_agents())};
  CommunityBatched sim(proto, CommunityCountsConfiguration<Epidemic>(proto, topo),
                       seed);
  const auto res = sim.run_until(
      [](const CommunityCountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(0) == 0;
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(res.converged);
  return res.interactions;
}

std::uint64_t epidemic_time_uniform_batched(std::uint32_t n,
                                            std::uint64_t seed) {
  const Epidemic proto{n};
  BatchedSimulator<Epidemic> sim(proto, seed);
  const auto res = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(0) == 0;
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

TEST(CommunityLawEquality, EpidemicOnTwoIslandsMatchesBlockedNaive) {
  // n = 8 split 4/4, weak bridges: the inter-community crossing dominates
  // the law, so a pair-weight bug shows up as a TV gap immediately.
  const auto topo = BlockedTopology::islands(8, 2, 1.0, 0.25);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_lumped;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_blocked_naive(topo, 10000 + t)];
    ++pmf_lumped[epidemic_time_lumped(topo, 50000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_lumped, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(CommunityLawEquality, EpidemicOnCompleteMultipartiteMatchesGraphNaive) {
  // The naive side runs the *materialized* complete-multipartite graph via
  // the generic edge-list scheduler — an independent implementation of the
  // same law (uniform over inter-block ordered pairs).
  const auto graph = Graph::complete_multipartite(8, 2);
  const auto topo = BlockedTopology::multipartite(8, 2);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_lumped;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_graph_naive(graph, 20000 + t)];
    ++pmf_lumped[epidemic_time_lumped(topo, 70000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_lumped, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(CommunityLawEquality, SingleCommunityDegeneratesToTheUniformLaw) {
  // K = 1 islands ≡ the complete graph: the community engine must draw the
  // same convergence-time law as the plain uniform batched engine.
  const auto topo = BlockedTopology::islands(6, 1);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_uniform, pmf_lumped;
  for (int t = 0; t < trials; ++t) {
    ++pmf_uniform[epidemic_time_uniform_batched(6, 30000 + t)];
    ++pmf_lumped[epidemic_time_lumped(topo, 80000 + t)];
  }
  const double tv = tv_distance(pmf_uniform, pmf_lumped, trials);
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

std::uint64_t loose_profile_lumped(const BlockedTopology& topo,
                                   std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(topo.total_agents());
  const LooseLeaderElection proto(n);
  BatchedSimulator<LooseLeaderElection,
                   CommunityCountsConfiguration<LooseLeaderElection>>
      sim(proto,
          CommunityCountsConfiguration<LooseLeaderElection>(proto, topo),
          seed);
  std::uint64_t profile = 0;
  for (const std::uint64_t horizon : {40, 160}) {
    sim.step(horizon - sim.interactions());
    profile = profile * 100 + sim.config().count_if(LooseLeaderElection::is_leader);
  }
  return profile;
}

TEST(CommunityLawEquality, LooseLeaderOnTwoIslandsMatchesBlockedNaive) {
  const auto topo = BlockedTopology::islands(8, 2, 1.0, 0.25);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_lumped;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[loose_profile_blocked_naive(topo, 11000 + t)];
    ++pmf_lumped[loose_profile_lumped(topo, 51000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_lumped, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(CommunityLawEquality, LooseLeaderOnCompleteMultipartiteMatchesGraphNaive) {
  const auto graph = Graph::complete_multipartite(8, 2);
  const auto topo = BlockedTopology::multipartite(8, 2);
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_lumped;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[loose_profile_graph_naive(graph, 21000 + t)];
    ++pmf_lumped[loose_profile_lumped(topo, 71000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_lumped, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(CommunityEngine, DeterministicGivenSeed) {
  const auto topo = BlockedTopology::islands(64, 4, 1.0, 0.1);
  EXPECT_EQ(epidemic_time_lumped(topo, 9), epidemic_time_lumped(topo, 9));
  EXPECT_NE(epidemic_time_lumped(topo, 9), 0u);
}

TEST(CommunityEngine, CompactionMidRunStaysExact) {
  // LooseLeader moves the whole population through O(τ) timer states;
  // long community runs trigger maybe_compact() and must keep counts
  // conserved across the member-list rebuild.
  const auto topo = BlockedTopology::islands(32, 2, 1.0, 0.1);
  const LooseLeaderElection proto(32);
  BatchedSimulator<LooseLeaderElection,
                   CommunityCountsConfiguration<LooseLeaderElection>>
      sim(proto,
          CommunityCountsConfiguration<LooseLeaderElection>(proto, topo),
          3);
  sim.step(50000);
  EXPECT_EQ(sim.config().population_size(), 32u);
  EXPECT_EQ(sim.config().community_size(0), 16u);
  EXPECT_EQ(sim.config().community_size(1), 16u);
  EXPECT_GE(sim.config().count_if(LooseLeaderElection::is_leader), 1u);
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
  EXPECT_TRUE(analysis::topology_is_lumpable(islands));

  const auto weighted = analysis::topology_from_string("islands:3:2.0:0.5");
  EXPECT_EQ(weighted.communities, 3u);
  EXPECT_DOUBLE_EQ(weighted.intra, 2.0);
  EXPECT_DOUBLE_EQ(weighted.inter, 0.5);

  const auto multi = analysis::topology_from_string("multipartite:2");
  EXPECT_EQ(multi.kind, analysis::Topology::Kind::kMultipartite);
  EXPECT_TRUE(analysis::topology_is_lumpable(multi));

  const auto complete = analysis::topology_from_string("complete");
  EXPECT_EQ(complete.kind, analysis::Topology::Kind::kComplete);

  const auto ring = analysis::topology_from_string("ring");
  EXPECT_EQ(ring.kind, analysis::Topology::Kind::kRing);
  EXPECT_FALSE(analysis::topology_is_lumpable(ring));
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
  // Same for a blocked topology requested on the naive engine beyond its
  // population limit (the lumped engine is the supported path there).
  EXPECT_EXIT(analysis::epidemic_convergence(
                  analysis::Engine::kNaive, 0x100000000ull, 1, 0, 0,
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
  const auto lumped = analysis::epidemic_convergence(
      analysis::Engine::kBatched, 512, 3, 0, 0, topo);
  const auto leaping = analysis::epidemic_convergence(
      analysis::Engine::kLeaping, 512, 4, 0, 0, topo);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(lumped.converged);
  EXPECT_TRUE(leaping.converged);  // routes to the community batched engine
  EXPECT_GE(naive.interactions, 512u);
  EXPECT_GE(lumped.interactions, 512u);
}

TEST(TopologyDispatch, FourIslandsEpidemicLawMatchesAcrossEngines) {
  // The Topology → lumped routing at K = 4 and moderate n, through the same
  // dispatch the benches use: the naive BlockedScheduler engine and the
  // lumped community engine estimate one hitting-time law (exact probes),
  // so their means agree within 3× the combined 95% CI band.
  const auto topo = analysis::topology_from_string("islands:4:1.0:0.1");
  const auto law = [&](analysis::Engine engine, std::uint64_t base_seed) {
    return analysis::sweep(base_seed, 2000, [&](std::uint64_t seed) {
      const auto r = analysis::epidemic_convergence(engine, 300, seed, 0,
                                                    /*probe_every=*/1, topo);
      return r.converged ? static_cast<double>(r.interactions) : -1.0;
    });
  };
  const auto naive = law(analysis::Engine::kNaive, 1000000);
  const auto lumped = law(analysis::Engine::kBatched, 2000000);
  EXPECT_EQ(naive.failures, 0u);
  EXPECT_EQ(lumped.failures, 0u);
  const double ci_n = util::ci95_halfwidth(naive.summary);
  const double ci_b = util::ci95_halfwidth(lumped.summary);
  const double gap = std::abs(naive.summary.mean - lumped.summary.mean);
  EXPECT_LE(gap, 3.0 * std::sqrt(ci_n * ci_n + ci_b * ci_b))
      << "naive mean " << naive.summary.mean << ", lumped mean "
      << lumped.summary.mean;
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
