// ShardedSimulator: exactness, determinism and accounting of the sharded
// single-run engine (pp/sharded_simulator.hpp).
//
// The engine claims to sample the SAME counts Markov chain as every other
// engine for any shard count T, with per-seed determinism on any hardware,
// and to be bit-identical to BatchedSimulator at T = 1.  Those claims are
// pinned here the same way the batched engine's were: tiny-n empirical laws
// against the naive engine (total-variation distance), exact-equality runs
// for determinism, and counter reconciliation for the metrics contract
//   intra + cross + collisions == interactions,
//   intra == Σ_j shard_metrics(j).interactions.
#include "pp/sharded_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "pp/simulator.hpp"

namespace ssle::pp {
namespace {

/// Exact multiset equality of two counts configurations (both directions,
/// so a class present in only one side is caught either way).
template <typename C>
void expect_same_configuration(const C& a, const C& b) {
  ASSERT_EQ(a.population_size(), b.population_size());
  EXPECT_EQ(a.num_live_states(), b.num_live_states());
  a.for_each([&](const auto& s, std::uint64_t c) {
    EXPECT_EQ(b.count_of(s), c);
  });
  b.for_each([&](const auto& s, std::uint64_t c) {
    EXPECT_EQ(a.count_of(s), c);
  });
}

TEST(ShardedSimulator, PartitionMergesBackToTheInitialConfiguration) {
  Epidemic proto{17};  // odd n: the per-class remainder rotation is exercised
  ShardedSimulator<Epidemic> sim(proto, 1, /*shard_count=*/3);
  EXPECT_EQ(sim.shard_count(), 3u);
  const auto& merged = sim.config();
  EXPECT_EQ(merged.population_size(), 17u);
  EXPECT_EQ(merged.count_of(1), 1u);
  EXPECT_EQ(merged.count_of(0), 16u);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(ShardedSimulator, StepCountsInteractionsExactlyAndConservesAgents) {
  Epidemic proto{64};
  ShardedSimulator<Epidemic> sim(proto, 1, /*shard_count=*/4);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
  sim.step();
  EXPECT_EQ(sim.interactions(), 101u);
  EXPECT_EQ(sim.config().population_size(), 64u);
}

// An "unbounded" budget of ~0 must not wrap once the engine has stepped
// (T = 4, so the sharded loop runs, not the batched one it wraps at T = 1).
TEST(ShardedSimulator, RunUntilUnboundedBudgetAfterStepping) {
  Epidemic proto{64};
  ShardedSimulator<Epidemic> sim(proto, 3, /*shard_count=*/4);
  sim.step(10);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t t) {
        return t >= 200;
      },
      ~std::uint64_t{0}, 50);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 210u);
}

TEST(ShardedSimulator, EpidemicEventuallyInfectsAll) {
  Epidemic proto{64};
  ShardedSimulator<Epidemic> sim(proto, 2, /*shard_count=*/4);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1u << 20);
  EXPECT_TRUE(result.converged);
  // Same w.h.p. bound as the naive/batched engine tests (Lemma A.2).
  EXPECT_LT(result.interactions, 4000u);
  EXPECT_GE(result.interactions, 64u);
}

// ---------------------------------------------------------------------------
// T = 1 is the batched engine, bit for bit.
// ---------------------------------------------------------------------------

TEST(ShardedSimulator, OneShardIsBitIdenticalToBatchedOnEpidemic) {
  Epidemic proto{256};
  ShardedSimulator<Epidemic> sharded(proto, 9, /*shard_count=*/1);
  BatchedSimulator<Epidemic> batched(proto, 9);
  sharded.step(5000);
  batched.step(5000);
  EXPECT_EQ(sharded.config().count_of(1), batched.config().count_of(1));
  EXPECT_EQ(sharded.config().count_of(0), batched.config().count_of(0));
  // The whole counter surface agrees too — same blocks, same collisions,
  // same Fenwick traffic — which only holds if the streams are identical.
  const auto ms = sharded.metrics();
  const auto mb = batched.metrics();
  EXPECT_STREQ(ms.engine, "sharded");
  EXPECT_EQ(ms.shards, 1u);
  EXPECT_EQ(ms.blocks_dense, mb.blocks_dense);
  EXPECT_EQ(ms.blocks_fenwick, mb.blocks_fenwick);
  EXPECT_EQ(ms.blocks_flat, mb.blocks_flat);
  EXPECT_EQ(ms.collision_resolutions, mb.collision_resolutions);
  EXPECT_EQ(ms.fenwick_samples, mb.fenwick_samples);
}

TEST(ShardedSimulator, OneShardIsBitIdenticalToBatchedOnElectLeader) {
  const core::Params params = core::Params::make(16, 4);
  core::ElectLeader protocol(params);
  ShardedSimulator<core::ElectLeader> sharded(protocol, 5, /*shard_count=*/1);
  BatchedSimulator<core::ElectLeader> batched(protocol, 5);
  sharded.step(2000);
  batched.step(2000);
  const auto& a = sharded.config();
  const auto& b = batched.config();
  expect_same_configuration(a, b);
}

// ---------------------------------------------------------------------------
// Per-seed determinism for every T: same seed → same trajectory, and the
// metrics snapshot (which exposes per-shard scheduling) agrees too.
// ---------------------------------------------------------------------------

TEST(ShardedSimulator, DeterministicGivenSeedForEveryShardCount) {
  Epidemic proto{257};  // prime n: shards of unequal size
  for (const std::size_t T : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    ShardedSimulator<Epidemic> a(proto, 9, T);
    ShardedSimulator<Epidemic> b(proto, 9, T);
    a.step(4000);
    b.step(4000);
    EXPECT_EQ(a.config().count_of(1), b.config().count_of(1)) << "T=" << T;
    EXPECT_EQ(a.config().count_of(0), b.config().count_of(0)) << "T=" << T;
    const auto ma = a.metrics();
    const auto mb = b.metrics();
    EXPECT_EQ(ma.collision_resolutions, mb.collision_resolutions) << "T=" << T;
    EXPECT_EQ(ma.cross_shard_interactions, mb.cross_shard_interactions)
        << "T=" << T;
    EXPECT_EQ(ma.intra_shard_interactions, mb.intra_shard_interactions)
        << "T=" << T;
  }
}

TEST(ShardedSimulator, DeterministicGivenSeedOnARandomizedProtocol) {
  const core::Params params = core::Params::make(32, 4);
  core::ElectLeader protocol(params);
  ShardedSimulator<core::ElectLeader> a(protocol, 13, /*shard_count=*/4);
  ShardedSimulator<core::ElectLeader> b(protocol, 13, /*shard_count=*/4);
  a.step(3000);
  b.step(3000);
  const auto& ca = a.config();
  const auto& cb = b.config();
  expect_same_configuration(ca, cb);
}

// ---------------------------------------------------------------------------
// Metrics reconciliation (the engine-level invariants of obs/metrics.hpp).
// ---------------------------------------------------------------------------

TEST(ShardedSimulator, MetricsReconcileAcrossShards) {
  const core::Params params = core::Params::make(32, 4);
  core::ElectLeader protocol(params);
  ShardedSimulator<core::ElectLeader> sim(protocol, 7, /*shard_count=*/4);
  sim.step(20000);
  const auto m = sim.metrics();
  EXPECT_STREQ(m.engine, "sharded");
  EXPECT_EQ(m.shards, 4u);
  EXPECT_EQ(m.interactions, 20000u);
  EXPECT_EQ(m.intra_shard_interactions + m.cross_shard_interactions +
                m.collision_resolutions,
            m.interactions);
  std::uint64_t intra = 0;
  for (std::size_t j = 0; j < sim.shard_count(); ++j) {
    intra += sim.shard_metrics(j).interactions;
  }
  EXPECT_EQ(intra, m.intra_shard_interactions);
  // Under uniform pairing a fraction 1 - 1/T of interactions cross shards:
  // the majority at T = 4 (this is why phases B/C are parallel).
  EXPECT_GT(m.cross_shard_interactions, m.intra_shard_interactions);
  EXPECT_GT(m.blocks_fenwick + m.blocks_flat, 0u);
}

// ---------------------------------------------------------------------------
// Flat vs Fenwick shard sampling: stream-identical by construction.
// ---------------------------------------------------------------------------

TEST(ShardedSimulator, ForcedFlatAndForcedFenwickAreBitIdentical) {
  const core::Params params = core::Params::make(24, 4);
  core::ElectLeader protocol(params);
  ShardedSimulator<core::ElectLeader> flat(protocol, 11, /*shard_count=*/3,
                                           BlockSampling::kFlat);
  ShardedSimulator<core::ElectLeader> fenwick(protocol, 11, /*shard_count=*/3,
                                              BlockSampling::kFenwick);
  flat.step(3000);
  fenwick.step(3000);
  const auto& cf = flat.config();
  const auto& cw = fenwick.config();
  expect_same_configuration(cf, cw);
  EXPECT_GT(flat.metrics().blocks_flat, 0u);
  EXPECT_EQ(flat.metrics().blocks_fenwick, 0u);
  EXPECT_GT(fenwick.metrics().blocks_fenwick, 0u);
  EXPECT_EQ(fenwick.metrics().blocks_flat, 0u);
}

// ---------------------------------------------------------------------------
// Statistical equivalence with the naive engine at tiny n, where the
// collision path and the cross-shard machinery are both hammered.
// ---------------------------------------------------------------------------

std::uint64_t epidemic_time_naive(std::uint32_t n, std::uint64_t seed) {
  Epidemic proto{n};
  Simulator<Epidemic> sim(proto, seed);
  const auto r = sim.run_until(
      [](const Population<Epidemic>& pop, std::uint64_t) {
        for (std::uint32_t i = 0; i < pop.size(); ++i) {
          if (pop[i] == 0) return false;
        }
        return true;
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(r.converged);
  return r.interactions;
}

std::uint64_t epidemic_time_sharded(std::uint32_t n, std::uint64_t seed,
                                    std::size_t shards) {
  Epidemic proto{n};
  ShardedSimulator<Epidemic> sim(proto, seed, shards);
  const auto r = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(r.converged);
  return r.interactions;
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

TEST(ShardedEquivalence, TinyEpidemicLawMatchesNaive) {
  // n = 4, T = 2: every block is a handful of slots, collisions are the
  // common case, and half of all pairs cross the shard boundary — the
  // whole phase machinery in miniature, 3000 times.
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_sharded;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_sharded[epidemic_time_sharded(n, 70000 + t, 2)];
  }
  const double tv = tv_distance(pmf_naive, pmf_sharded, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(ShardedEquivalence, TinyEpidemicLawMatchesNaiveAtThreeShards) {
  // T = 3 with n = 5: shards of unequal size (2/2/1), so the label walk's
  // without-replacement arithmetic is exercised off the balanced case.
  const std::uint32_t n = 5;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_sharded;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 30000 + t)];
    ++pmf_sharded[epidemic_time_sharded(n, 80000 + t, 3)];
  }
  const double tv = tv_distance(pmf_naive, pmf_sharded, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

std::uint32_t loose_leaders_naive(std::uint32_t n, std::uint64_t seed,
                                  std::uint64_t horizon) {
  baselines::LooseLeaderElection proto(n);
  Simulator<baselines::LooseLeaderElection> sim(proto, seed);
  sim.step(horizon);
  std::uint32_t leaders = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    leaders += sim.population()[i].leader ? 1 : 0;
  }
  return leaders;
}

std::uint32_t loose_leaders_sharded(std::uint32_t n, std::uint64_t seed,
                                    std::uint64_t horizon,
                                    std::size_t shards) {
  baselines::LooseLeaderElection proto(n);
  ShardedSimulator<baselines::LooseLeaderElection> sim(proto, seed, shards);
  sim.step(horizon);
  return static_cast<std::uint32_t>(
      sim.config().count_if(baselines::LooseLeaderElection::is_leader));
}

TEST(ShardedEquivalence, LooseLeaderCountLawMatchesNaive) {
  // LooseLeaderElection from the all-zero start: timers hit 0, agents
  // promote, duplicate leaders fight.  The leader count at a fixed horizon
  // is a non-trivial discrete law (1, 2, 3... leaders) that a biased block
  // or collision path would shift.  Deterministic δ, so this also covers
  // the per-shard δ-cache against the naive engine.
  const std::uint32_t n = 4;
  const std::uint64_t horizon = 64;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_sharded;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[loose_leaders_naive(n, 40000 + t, horizon)];
    ++pmf_sharded[loose_leaders_sharded(n, 90000 + t, horizon, 2)];
  }
  const double tv = tv_distance(pmf_naive, pmf_sharded, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

// ---------------------------------------------------------------------------
// Edge cases.
// ---------------------------------------------------------------------------

TEST(ShardedEdge, MoreShardsThanAgentsStillRunsExactly) {
  Epidemic proto{4};
  ShardedSimulator<Epidemic> sim(proto, 3, /*shard_count=*/8);
  sim.step(500);
  EXPECT_EQ(sim.interactions(), 500u);
  EXPECT_EQ(sim.config().population_size(), 4u);
  EXPECT_EQ(sim.config().count_of(1) + sim.config().count_of(0), 4u);
}

TEST(ShardedEdge, SingleAgentNeverInteractsButCounts) {
  Epidemic proto{1};
  ShardedSimulator<Epidemic> sim(proto, 3, /*shard_count=*/4);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
  EXPECT_EQ(sim.config().count_of(1), 1u);
}

TEST(ShardedEdge, ZeroShardCountPicksTheDefault) {
  Epidemic proto{64};
  ShardedSimulator<Epidemic> sim(proto, 3, /*shard_count=*/0);
  EXPECT_GE(sim.shard_count(), 1u);
  EXPECT_LE(sim.shard_count(), 8u);
  EXPECT_EQ(sim.shard_count(), default_shard_count());
  sim.step(200);
  EXPECT_EQ(sim.config().population_size(), 64u);
}

// ---------------------------------------------------------------------------
// analysis dispatch: --engine=sharded[:T] end to end.
// ---------------------------------------------------------------------------

TEST(ShardedDispatch, EngineSpecParsesShardCounts) {
  const auto plain = analysis::engine_from_string("sharded");
  EXPECT_EQ(plain.kind, analysis::Engine::kSharded);
  EXPECT_EQ(plain.shards, 0u);
  const auto four = analysis::engine_from_string("sharded:4");
  EXPECT_EQ(four.kind, analysis::Engine::kSharded);
  EXPECT_EQ(four.shards, 4u);
  EXPECT_STREQ(analysis::engine_name(analysis::Engine::kSharded), "sharded");
}

TEST(ShardedDispatch, StabilizeElectsOneLeader) {
  const core::Params params = core::Params::make(16, 4);
  const auto res = analysis::stabilize(
      analysis::EngineSpec(analysis::Engine::kSharded, 2), params, 21,
      analysis::default_budget(params));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
  EXPECT_STREQ(res.metrics.engine, "sharded");
  EXPECT_EQ(res.metrics.shards, 2u);
}

TEST(ShardedDispatch, AdversarialStartRecovers) {
  const core::Params params = core::Params::make(16, 4);
  const auto res = analysis::stabilize(
      analysis::EngineSpec(analysis::Engine::kSharded, 2),
      analysis::StartKind::kAdversarial, params,
      core::Corruption::kRandomStates, 23, analysis::default_budget(params));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(ShardedDispatch, EpidemicConvergenceRuns) {
  const auto r = analysis::epidemic_convergence(
      analysis::EngineSpec(analysis::Engine::kSharded, 2), 64, 31);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.interactions, 4000u);
}

TEST(ShardedDispatch, DerandomizedStabilizes) {
  const core::Params params = core::Params::make(8, 4);
  const auto res = analysis::stabilize_derandomized(
      analysis::EngineSpec(analysis::Engine::kSharded, 2), params, 3,
      analysis::default_budget(params));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
}

}  // namespace
}  // namespace ssle::pp
