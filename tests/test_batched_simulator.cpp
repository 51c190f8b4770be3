// BatchedSimulator semantics + statistical equivalence with Simulator.
//
// The batched engine is an exact sampler of the same counts Markov chain
// the naive engine induces (see pp/batched_simulator.hpp), so convergence
// times must agree in distribution — not just roughly: means, spreads and
// (for a tiny population, where the collision path dominates) the whole
// empirical law are compared between engines.
#include "pp/batched_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/measure.hpp"
#include "batched_elect.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "pp/epidemic.hpp"
#include "pp/simulator.hpp"

namespace ssle::pp {
namespace {

TEST(BatchedSimulator, InitialConfigurationComesFromProtocol) {
  Epidemic proto{16};
  BatchedSimulator<Epidemic> sim(proto, 1);
  EXPECT_EQ(sim.config().count_of(1), 1u);
  EXPECT_EQ(sim.config().count_of(0), 15u);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(BatchedSimulator, StepCountsInteractionsExactly) {
  Epidemic proto{16};
  BatchedSimulator<Epidemic> sim(proto, 1);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
  sim.step();
  EXPECT_EQ(sim.interactions(), 101u);
  EXPECT_EQ(sim.config().population_size(), 16u);  // agents are conserved
}

TEST(BatchedSimulator, PopulationMayChangeBetweenBlocks) {
  // Churn support (ISSUE 10): n is re-read per block, so registry edits
  // between step() calls — joins, leaves — must be picked up by the block
  // envelope, the scheduler weights and the metrics.
  Epidemic proto{64};
  BatchedSimulator<Epidemic> sim(proto, 5);
  sim.step(500);  // ≫ n·ln n: the original 64 agents are fully infected
  for (int i = 0; i < 64; ++i) sim.config().insert_agent(0);
  EXPECT_EQ(sim.config().population_size(), 128u);
  sim.step(500);
  EXPECT_EQ(sim.interactions(), 1000u);
  EXPECT_EQ(sim.metrics().population, 128u);

  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    auto& cfg = sim.config();
    cfg.remove_agent(cfg.sample_class(rng.below(cfg.population_size())));
  }
  EXPECT_EQ(sim.config().population_size(), 28u);
  EXPECT_EQ(sim.config().count_of(0) + sim.config().count_of(1), 28u);

  // The epidemic's absorbing laws still hold over the surviving agents.
  const bool any_infected = sim.config().count_of(1) > 0;
  sim.step(4000);
  EXPECT_EQ(sim.config().population_size(), 28u);
  EXPECT_EQ(sim.config().count_of(1), any_infected ? 28u : 0u);
  EXPECT_EQ(sim.metrics().population, 28u);
}

TEST(BatchedSimulator, DeterministicGivenSeed) {
  Epidemic proto{256};
  BatchedSimulator<Epidemic> a(proto, 9);
  BatchedSimulator<Epidemic> b(proto, 9);
  a.step(5000);
  b.step(5000);
  EXPECT_EQ(a.config().count_of(1), b.config().count_of(1));
  EXPECT_EQ(a.config().count_of(0), b.config().count_of(0));
}

TEST(BatchedSimulator, RunUntilChecksInitialConfiguration) {
  Epidemic proto{8};
  BatchedSimulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t) { return true; },
      1000);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 0u);
}

TEST(BatchedSimulator, RunUntilRespectsBudget) {
  Epidemic proto{8};
  BatchedSimulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t) { return false; },
      500, 64);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.interactions, 500u);
}

// An "unbounded" budget of ~0 must not wrap once the engine has stepped.
TEST(BatchedSimulator, RunUntilUnboundedBudgetAfterStepping) {
  Epidemic proto{8};
  BatchedSimulator<Epidemic> sim(proto, 3);
  sim.step(10);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t t) {
        return t >= 200;
      },
      ~std::uint64_t{0}, 50);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 210u);
}

TEST(BatchedSimulator, EpidemicEventuallyInfectsAll) {
  Epidemic proto{64};
  BatchedSimulator<Epidemic> sim(proto, 2);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1u << 20);
  EXPECT_TRUE(result.converged);
  // Same w.h.p. bound as the naive engine's test (Lemma A.2): 7·64·ln 64.
  EXPECT_LT(result.interactions, 4000u);
  EXPECT_GE(result.interactions, 64u);
}

TEST(BatchedSimulator, ElectLeaderRunsOnTheHashIndexedPath) {
  // core::Agent carries a std::hash specialization, so the registry takes
  // the O(1) hash-indexed path for the full protocol.
  static_assert(HashableState<core::Agent>);
  const core::Params params = core::Params::make(8, 4);
  core::ElectLeader protocol(params);
  BatchedSimulator<core::ElectLeader> sim(protocol, 5);
  sim.step(2000);
  EXPECT_EQ(sim.interactions(), 2000u);
  EXPECT_EQ(sim.config().population_size(), 8u);
}

namespace {

/// Epidemic over a deliberately non-hashable state: keeps the registry's
/// linear-scan fallback covered now that every shipped state type hashes.
struct OpaqueState {
  int infected = 0;
  friend bool operator==(const OpaqueState&, const OpaqueState&) = default;
};

struct OpaqueEpidemic {
  using State = OpaqueState;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const {
    return State{agent == 0 ? 1 : 0};
  }
  void interact(State& u, State& v, util::Rng&) const {
    if (u.infected == 1 || v.infected == 1) u.infected = v.infected = 1;
  }
};

}  // namespace

TEST(BatchedSimulator, LinearScanFallbackStillWorks) {
  static_assert(!HashableState<OpaqueState>);
  OpaqueEpidemic proto{64};
  BatchedSimulator<OpaqueEpidemic> sim(proto, 2);
  const auto result = sim.run_until(
      [](const CountsConfiguration<OpaqueEpidemic>& c, std::uint64_t) {
        return c.count_of(OpaqueState{1}) == c.population_size();
      },
      1u << 20);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.interactions, 4000u);
}

// ---------------------------------------------------------------------------
// Statistical equivalence: epidemic convergence time.
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

std::uint64_t epidemic_time_batched(
    std::uint32_t n, std::uint64_t seed,
    BlockSampling sampling = BlockSampling::kAuto) {
  Epidemic proto{n};
  BatchedSimulator<Epidemic> sim(proto, seed, sampling);
  const auto r = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1u << 22, /*probe_every=*/1);
  EXPECT_TRUE(r.converged);
  return r.interactions;
}

struct SampleStats {
  double mean = 0.0;
  double sd = 0.0;
};

SampleStats stats_of(const std::vector<std::uint64_t>& xs) {
  double sum = 0.0, sumsq = 0.0;
  for (const auto x : xs) {
    sum += static_cast<double>(x);
    sumsq += static_cast<double>(x) * static_cast<double>(x);
  }
  const double mean = sum / static_cast<double>(xs.size());
  const double var = sumsq / static_cast<double>(xs.size()) - mean * mean;
  return {mean, std::sqrt(std::max(0.0, var))};
}

TEST(BatchedEquivalence, EpidemicConvergenceTimesMatch) {
  const std::uint32_t n = 48;
  const int trials = 300;
  std::vector<std::uint64_t> naive, batched;
  naive.reserve(trials);
  batched.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    naive.push_back(epidemic_time_naive(n, 1000 + t));
    batched.push_back(epidemic_time_batched(n, 5000 + t));
  }
  const auto sn = stats_of(naive);
  const auto sb = stats_of(batched);
  // E[T] = (n-1)·H_{n-1} ≈ 208 with sd ≈ 40; the standard error of each
  // mean over 300 trials is ≈ 2.3, so 12 is a ≈3.7σ band for the gap.
  EXPECT_NEAR(sn.mean, sb.mean, 12.0)
      << "naive mean=" << sn.mean << " batched mean=" << sb.mean;
  EXPECT_GT(sb.sd, 0.6 * sn.sd);
  EXPECT_LT(sb.sd, 1.6 * sn.sd);
}

// ---------------------------------------------------------------------------
// Fenwick block sampler: forced-path statistical equivalence.  The Fenwick
// path draws the 2L block agents sequentially through the registry index
// and defers outputs until the block ends — a different (and differently
// random) realization of the same block law, so it must match the naive
// engine in distribution just like the dense path does.
// ---------------------------------------------------------------------------

TEST(FenwickPath, EpidemicConvergenceTimesMatchNaive) {
  const std::uint32_t n = 48;
  const int trials = 300;
  std::vector<std::uint64_t> naive, fenwick;
  naive.reserve(trials);
  fenwick.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    naive.push_back(epidemic_time_naive(n, 1000 + t));
    fenwick.push_back(
        epidemic_time_batched(n, 40000 + t, BlockSampling::kFenwick));
  }
  const auto sn = stats_of(naive);
  const auto sb = stats_of(fenwick);
  // Same band as the dense-path test: ≈3.7σ for the mean gap at 300 trials.
  EXPECT_NEAR(sn.mean, sb.mean, 12.0)
      << "naive mean=" << sn.mean << " fenwick mean=" << sb.mean;
  EXPECT_GT(sb.sd, 0.6 * sn.sd);
  EXPECT_LT(sb.sd, 1.6 * sn.sd);
}

TEST(FenwickPath, TinyPopulationLawMatches) {
  // n = 4 makes within-block collisions the common case, stressing the
  // Fenwick path's deferred-output used/unused collision sampling.
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_fenwick;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_fenwick[
        epidemic_time_batched(n, 90000 + t, BlockSampling::kFenwick)];
  }
  double tv = 0.0;
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : pmf_naive) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : pmf_fenwick) diff[k] -= static_cast<double>(c) / trials;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  tv /= 2.0;
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(FenwickPath, DeterministicGivenSeed) {
  Epidemic proto{256};
  BatchedSimulator<Epidemic> a(proto, 9, BlockSampling::kFenwick);
  BatchedSimulator<Epidemic> b(proto, 9, BlockSampling::kFenwick);
  a.step(5000);
  b.step(5000);
  EXPECT_EQ(a.config().count_of(1), b.config().count_of(1));
  EXPECT_EQ(a.config().count_of(0), b.config().count_of(0));
  EXPECT_GT(a.fenwick_blocks(), 0u);
  EXPECT_EQ(a.dense_blocks(), 0u);
}

namespace {

/// Identity protocol over n distinct states: q stays ≈ n forever, the
/// regime the Fenwick sampler exists for.
struct DistinctIdentity {
  using State = int;
  static constexpr bool kDeterministicInteract = true;
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const {
    return static_cast<int>(agent);
  }
  void interact(State&, State&, util::Rng&) const {}
};

}  // namespace

TEST(FenwickPath, AutoHeuristicPicksFenwickWhenRegistryIsWide) {
  // q = n = 4096 distinct states vs blocks of L ≈ √(πn)/2 ≈ 57: the scan
  // cost q dwarfs 2L·log2 q, so kAuto must route (almost) every block
  // through the Fenwick sampler.
  DistinctIdentity proto{4096};
  BatchedSimulator<DistinctIdentity> sim(proto, 21);
  sim.step(20000);
  EXPECT_EQ(sim.config().population_size(), 4096u);
  EXPECT_EQ(sim.config().num_live_states(), 4096u);
  EXPECT_GT(sim.fenwick_blocks(), 0u);
  EXPECT_GT(sim.fenwick_blocks(), 10 * sim.dense_blocks());
}

TEST(FenwickPath, AutoHeuristicKeepsDenseForNarrowRegistries) {
  // Two live states (epidemic): the dense hypergeometric path with its
  // bulk same-pair fast path is strictly better; kAuto must keep it.
  Epidemic proto{4096};
  BatchedSimulator<Epidemic> sim(proto, 22);
  sim.step(20000);
  EXPECT_GT(sim.dense_blocks(), 0u);
  EXPECT_EQ(sim.fenwick_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// Flat block sampler: by construction it consumes the same rng_.below(n−t)
// draws as the Fenwick descent and resolves them to the same class (both
// walk registry cumulative-count order), so forced kFlat and forced
// kFenwick runs are BIT-IDENTICAL — not merely equal in law.  That identity
// is the whole correctness argument for the flat path, so it is pinned
// exactly, at several checkpoints, on a narrow and on a wide registry.
// ---------------------------------------------------------------------------

TEST(FlatPath, BitIdenticalToFenwickOnEpidemic) {
  Epidemic proto{256};
  BatchedSimulator<Epidemic> flat(proto, 9, BlockSampling::kFlat);
  BatchedSimulator<Epidemic> fenwick(proto, 9, BlockSampling::kFenwick);
  for (int checkpoint = 0; checkpoint < 10; ++checkpoint) {
    flat.step(500);
    fenwick.step(500);
    ASSERT_EQ(flat.config().count_of(1), fenwick.config().count_of(1))
        << "checkpoint " << checkpoint;
    ASSERT_EQ(flat.config().count_of(0), fenwick.config().count_of(0))
        << "checkpoint " << checkpoint;
  }
  EXPECT_GT(flat.flat_blocks(), 0u);
  EXPECT_EQ(flat.fenwick_blocks(), 0u);
  EXPECT_EQ(fenwick.flat_blocks(), 0u);
  EXPECT_GT(fenwick.fenwick_blocks(), 0u);
  EXPECT_GT(flat.flat_scan_draws(), 0u);
}

TEST(FlatPath, BitIdenticalToFenwickOnARandomizedWideRegistry) {
  // ElectLeader_r: randomized δ, interned Agent states, registry growth and
  // collisions — the flat path must track the Fenwick path through all of
  // it, including class ids created mid-block (count 0 in both views, so
  // never drawable).
  const core::Params params = core::Params::make(16, 4);
  core::ElectLeader protocol(params);
  BatchedSimulator<core::ElectLeader> flat(protocol, 5, BlockSampling::kFlat);
  BatchedSimulator<core::ElectLeader> fenwick(protocol, 5,
                                              BlockSampling::kFenwick);
  for (int checkpoint = 0; checkpoint < 8; ++checkpoint) {
    flat.step(250);
    fenwick.step(250);
    ASSERT_EQ(flat.config().num_live_states(),
              fenwick.config().num_live_states())
        << "checkpoint " << checkpoint;
    flat.config().for_each([&](const core::Agent& s, std::uint64_t c) {
      ASSERT_EQ(fenwick.config().count_of(s), c)
          << "checkpoint " << checkpoint;
    });
  }
  EXPECT_GT(flat.flat_blocks(), 0u);
  EXPECT_GT(fenwick.fenwick_blocks(), 0u);
}

TEST(FlatPath, TinyPopulationLawMatchesNaive) {
  // Same tiny-n TV pinning as the dense and Fenwick paths: the collision
  // branch of the flat sampler (used/unused bookkeeping over the snapshot)
  // must realize the same law the naive engine induces.
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_flat;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_flat[epidemic_time_batched(n, 120000 + t, BlockSampling::kFlat)];
  }
  double tv = 0.0;
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : pmf_naive) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : pmf_flat) diff[k] -= static_cast<double>(c) / trials;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  tv /= 2.0;
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(FlatPath, AutoSubstitutesFlatExactlyWhereFenwickWouldRun) {
  // kAuto picks flat exactly where it would have picked Fenwick AND the
  // registry is narrow (q ≤ kFlatMaxStates).  DistinctIdentity at n = 48
  // straddles the per-block boundary q > 2L·⌈log2 q⌉: short blocks take
  // the per-draw (now flat) path, long blocks stay dense — and Fenwick
  // never fires at q ≤ 64, because flat replaces it everywhere it would
  // have run.
  DistinctIdentity proto{48};
  BatchedSimulator<DistinctIdentity> sim(proto, 23);
  sim.step(20000);
  EXPECT_GT(sim.flat_blocks(), 0u);
  EXPECT_GT(sim.dense_blocks(), 0u);
  EXPECT_EQ(sim.fenwick_blocks(), 0u);
}

TEST(FlatPath, AutoKeepsDenseForBulkEligibleNarrowRegistries) {
  // The epidemic's two live states make the dense bulk path unbeatable;
  // kAuto must not reroute it through the flat scanner.
  Epidemic proto{4096};
  BatchedSimulator<Epidemic> sim(proto, 22);
  sim.step(20000);
  EXPECT_GT(sim.dense_blocks(), 0u);
  EXPECT_EQ(sim.flat_blocks(), 0u);
  EXPECT_EQ(sim.fenwick_blocks(), 0u);
}

TEST(BatchedEquivalence, TinyPopulationLawMatches) {
  // n = 4 makes within-block collisions the common case, stressing the
  // used/unused collision sampling; compare the whole empirical law of the
  // convergence time via total-variation distance.
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_batched;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_batched[epidemic_time_batched(n, 60000 + t)];
  }
  double tv = 0.0;
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : pmf_naive) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : pmf_batched) diff[k] -= static_cast<double>(c) / trials;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  tv /= 2.0;
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

// ---------------------------------------------------------------------------
// Statistical equivalence: ElectLeader_r stabilization at small n.
// ---------------------------------------------------------------------------

double elect_leader_time_naive(const core::Params& params, std::uint64_t seed,
                               std::uint64_t budget) {
  const auto res = analysis::stabilize(params, seed, budget);
  EXPECT_TRUE(res.converged);
  return res.parallel_time;
}

double elect_leader_time_batched(const core::Params& params,
                                 std::uint64_t seed, std::uint64_t budget) {
  const auto res = analysis::stabilize_batched(params, seed, budget);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.leaders, 1u);
  return res.parallel_time;
}

TEST(BatchedEquivalence, ElectLeaderStabilizationTimesMatch) {
  const core::Params params = core::Params::make(16, 4);
  const std::uint64_t budget = analysis::default_budget(params);
  const int trials = 25;
  std::vector<std::uint64_t> naive, batched;
  for (int t = 0; t < trials; ++t) {
    naive.push_back(static_cast<std::uint64_t>(
        elect_leader_time_naive(params, 300 + t, budget)));
    batched.push_back(static_cast<std::uint64_t>(
        elect_leader_time_batched(params, 900 + t, budget)));
  }
  const auto sn = stats_of(naive);
  const auto sb = stats_of(batched);
  // Stabilization time is heavy-tailed and 25 trials is modest, so allow a
  // wide band; a biased engine (e.g. broken collision handling) lands far
  // outside it.
  EXPECT_GT(sb.mean, 0.4 * sn.mean)
      << "naive mean=" << sn.mean << " batched mean=" << sb.mean;
  EXPECT_LT(sb.mean, 2.5 * sn.mean)
      << "naive mean=" << sn.mean << " batched mean=" << sb.mean;
}

// Engines start from n >= 2 agents (the scheduler's pair draw); churn may
// later shrink the population, which step() then treats as no-ops.
TEST(BatchedDeathTest, RejectsPopulationsBelowTwo) {
  EXPECT_EXIT({ BatchedSimulator<Epidemic> sim(Epidemic{1}, 1); },
              ::testing::ExitedWithCode(2),
              "batched engine.*n=1 \\(field: n\\)");
  EXPECT_EXIT({ BatchedSimulator<Epidemic> sim(Epidemic{0}, 1); },
              ::testing::ExitedWithCode(2), "n=0 \\(field: n\\)");
}

}  // namespace
}  // namespace ssle::pp
