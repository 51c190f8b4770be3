// LeapingSimulator semantics + statistical equivalence with the naive and
// batched engines.
//
// The leap engine is an exact sampler of the same counts Markov chain the
// other engines induce (see pp/leaping_simulator.hpp): null interactions
// are leapt in closed form, active ones are classified by thinned
// pair-type draws.  Exactness is checked the same way the batched engine
// earned trust — whole-law total-variation comparisons against the naive
// engine at tiny n (for Epidemic AND the LooseLeader baseline, whose
// timer cascades make almost every pair type active), mean/spread bands
// at moderate n, determinism given a seed, plus leap-specific paths: the
// frozen-configuration fast path, the envelope-breach window split
// (forced via a tiny event cap), and the exact binomial sampler the
// windows are built on.
#include "pp/leaping_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "core/derandomized.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "pp/epidemic.hpp"
#include "pp/log_combinatorics.hpp"
#include "pp/simulator.hpp"

namespace ssle::pp {
namespace {

// ---------------------------------------------------------------------------
// Eligibility: the compile-time contract.
// ---------------------------------------------------------------------------

static_assert(LeapEligible<Epidemic>,
              "Epidemic (two states, deterministic δ) must be leap-eligible");
static_assert(LeapEligible<baselines::LooseLeaderElection>,
              "LooseLeader (O(τ) states, deterministic δ) must be eligible");
static_assert(!LeapEligible<core::ElectLeader>,
              "ElectLeader_r draws randomness in δ: never leap-eligible");
static_assert(!kNarrowRegistry<core::DerandomizedElectLeader>,
              "DerandomizedElectLeader keeps q ≈ n states: must not claim "
              "a narrow registry");

TEST(LeapingRouting, EngineParsingRoundTrips) {
  EXPECT_EQ(analysis::engine_from_string("leaping"),
            analysis::Engine::kLeaping);
  EXPECT_STREQ(analysis::engine_name(analysis::Engine::kLeaping), "leaping");
}

TEST(LeapingRoutingDeath, RemovedShardedEngineNameExits) {
  // The multi-shard engine is gone; its CLI spellings must be rejected
  // (exit 2, listing the engines that exist), never mapped to another one.
  EXPECT_EXIT(analysis::engine_from_string("sharded"),
              ::testing::ExitedWithCode(2), "naive\\|batched\\|leaping");
  EXPECT_EXIT(analysis::engine_from_string("sharded:4"),
              ::testing::ExitedWithCode(2), "naive\\|batched\\|leaping");
}

// ---------------------------------------------------------------------------
// Engine semantics.
// ---------------------------------------------------------------------------

TEST(LeapingSimulator, InitialConfigurationComesFromProtocol) {
  Epidemic proto{16};
  LeapingSimulator<Epidemic> sim(proto, 1);
  EXPECT_EQ(sim.config().count_of(1), 1u);
  EXPECT_EQ(sim.config().count_of(0), 15u);
  EXPECT_EQ(sim.interactions(), 0u);
}

TEST(LeapingSimulator, StepCountsInteractionsExactly) {
  Epidemic proto{16};
  LeapingSimulator<Epidemic> sim(proto, 1);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
  sim.step();
  EXPECT_EQ(sim.interactions(), 101u);
  EXPECT_EQ(sim.config().population_size(), 16u);  // agents are conserved
}

TEST(LeapingSimulator, DeterministicGivenSeed) {
  Epidemic proto{256};
  LeapingSimulator<Epidemic> a(proto, 9);
  LeapingSimulator<Epidemic> b(proto, 9);
  a.step(5000);
  b.step(5000);
  EXPECT_EQ(a.config().count_of(1), b.config().count_of(1));
  EXPECT_EQ(a.config().count_of(0), b.config().count_of(0));
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.candidates(), b.candidates());
}

TEST(LeapingSimulator, RunUntilChecksInitialConfiguration) {
  Epidemic proto{8};
  LeapingSimulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t) { return true; },
      1000);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 0u);
}

TEST(LeapingSimulator, RunUntilRespectsBudget) {
  Epidemic proto{8};
  LeapingSimulator<Epidemic> sim(proto, 3);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t) { return false; },
      500, 64);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.interactions, 500u);
}

// An "unbounded" budget of ~0 must not wrap once the engine has stepped.
TEST(LeapingSimulator, RunUntilUnboundedBudgetAfterStepping) {
  Epidemic proto{8};
  LeapingSimulator<Epidemic> sim(proto, 3);
  sim.step(10);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t t) {
        return t >= 200;
      },
      ~std::uint64_t{0}, 50);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.interactions, 210u);
}

TEST(LeapingSimulator, EpidemicTableIsTwoByTwo) {
  Epidemic proto{64};
  LeapingSimulator<Epidemic> sim(proto, 2);
  sim.step(1);
  EXPECT_EQ(sim.table_classes(), 2u);
  // Ordered active types (1,0) and (0,1); (0,0) and (1,1) are null.
  EXPECT_EQ(sim.active_pair_types(), 2u);
}

TEST(LeapingSimulator, EpidemicEventsAreExactlyInfections) {
  // Every active epidemic event infects exactly one agent, so a run to
  // full infection executes exactly n−1 events — everything else must
  // have been leapt as nulls.
  const std::uint64_t n = 4096;
  Epidemic proto{static_cast<std::uint32_t>(n)};
  LeapingSimulator<Epidemic> sim(proto, 11);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1ull << 30);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(sim.events(), n - 1);
  EXPECT_EQ(sim.leapt_nulls(), sim.interactions() - (n - 1));
  // Lemma A.2: completes within 7·n·ln n w.h.p.
  EXPECT_LT(result.interactions,
            static_cast<std::uint64_t>(7.0 * static_cast<double>(n) *
                                       std::log(static_cast<double>(n))));
}

TEST(LeapingSimulator, FrozenConfigurationConsumesBudgetInConstantTime) {
  // All-infected epidemic: every pair type is null, W_act = 0, and the
  // engine must consume any remaining budget without iterating — 10^12
  // interactions in microseconds, zero events.
  Epidemic proto{64};
  CountsConfiguration<Epidemic> all_infected(std::vector<int>(64, 1));
  LeapingSimulator<Epidemic> sim(proto, 5, /*event_cap=*/16384);
  LeapingSimulator<Epidemic> frozen(proto, std::move(all_infected), 5);
  frozen.step(1'000'000'000'000ull);
  EXPECT_EQ(frozen.interactions(), 1'000'000'000'000ull);
  EXPECT_EQ(frozen.events(), 0u);
  EXPECT_EQ(frozen.config().count_of(1), 64u);
}

TEST(LeapingSimulator, SimulatorBuiltFromATemporaryProtocolOwnsIt) {
  // The engine keeps its own copy of the protocol: one built from a
  // temporary must step (ensure_table evaluates δ on the first step) and
  // follow the same trajectory as one built from a named protocol.
  const Epidemic named{4096};
  LeapingSimulator<Epidemic> a(named, 21);
  LeapingSimulator<Epidemic> b(Epidemic{4096}, 21);
  a.step(40000);
  b.step(40000);
  EXPECT_EQ(b.protocol().n, 4096u);
  EXPECT_EQ(a.config().count_of(1), b.config().count_of(1));
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.candidates(), b.candidates());
  EXPECT_EQ(a.windows(), b.windows());

  // LooseLeader's δ reads the protocol's timeout while the table closes.
  using Loose = baselines::LooseLeaderElection;
  const Loose loose(32, /*timeout_scale=*/2);
  LeapingSimulator<Loose> c(loose, 23);
  LeapingSimulator<Loose> d(Loose(32, /*timeout_scale=*/2), 23);
  c.step(2000);
  d.step(2000);
  EXPECT_EQ(c.table_classes(), d.table_classes());
  EXPECT_EQ(c.config().count_if(Loose::is_leader),
            d.config().count_if(Loose::is_leader));
  EXPECT_EQ(c.events(), d.events());
}

TEST(LeapingSimulatorDeathTest, RegistryCompactionBetweenStepsAbortsLoudly) {
  // The pair-type table is keyed on class ids, which the header requires
  // to stay stable after closure.  compact() between steps reclaims dead
  // ids (bumping the interner's version counter) — the engine must detect
  // that and abort with a message, not index stale classes.
  Epidemic proto{16};
  LeapingSimulator<Epidemic> sim(proto, 7);
  const auto r = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(1) == c.population_size();
      },
      1u << 20);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(sim.config().count_of(0), 0u);  // susceptible class is dead
  sim.config().compact();                   // reclaims its id
  EXPECT_DEATH(sim.step(1), "pair-type table");
}

// ---------------------------------------------------------------------------
// Statistical equivalence: epidemic convergence time (vs naive engine).
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

std::uint64_t epidemic_time_leaping(
    std::uint32_t n, std::uint64_t seed,
    std::uint32_t event_cap = LeapingSimulator<Epidemic>::kDefaultEventCap) {
  Epidemic proto{n};
  LeapingSimulator<Epidemic> sim(proto, seed, event_cap);
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

double tv_distance(const std::map<std::uint64_t, int>& a,
                   const std::map<std::uint64_t, int>& b, int trials) {
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : a) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : b) diff[k] -= static_cast<double>(c) / trials;
  double tv = 0.0;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  return tv / 2.0;
}

TEST(LeapingEquivalence, EpidemicConvergenceTimesMatchNaive) {
  const std::uint32_t n = 48;
  const int trials = 300;
  std::vector<std::uint64_t> naive, leaping;
  naive.reserve(trials);
  leaping.reserve(trials);
  for (int t = 0; t < trials; ++t) {
    naive.push_back(epidemic_time_naive(n, 1000 + t));
    leaping.push_back(epidemic_time_leaping(n, 7000 + t));
  }
  const auto sn = stats_of(naive);
  const auto sl = stats_of(leaping);
  // Same band as the batched-equivalence test: E[T] ≈ 208, sd ≈ 40, so 12
  // is a ≈3.7σ band for the mean gap at 300 trials.
  EXPECT_NEAR(sn.mean, sl.mean, 12.0)
      << "naive mean=" << sn.mean << " leaping mean=" << sl.mean;
  EXPECT_GT(sl.sd, 0.6 * sn.sd);
  EXPECT_LT(sl.sd, 1.6 * sn.sd);
}

TEST(LeapingEquivalence, TinyPopulationLawMatchesNaive) {
  // n = 4: the whole empirical law of the convergence time, compared via
  // total-variation distance — window sizing degenerates to m ≈ 1 here,
  // so this exercises the candidate/acceptance logic per interaction.
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_leaping;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_leaping[epidemic_time_leaping(n, 80000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_leaping, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(LeapingEquivalence, TinyEventCapStillMatchesNaive) {
  // event_cap = 2 forces tiny envelopes and tiny windows; the law must
  // not move (exactness is unconditional on the tuning knob).
  const std::uint32_t n = 4;
  const int trials = 3000;
  std::map<std::uint64_t, int> pmf_naive, pmf_leaping;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[epidemic_time_naive(n, 20000 + t)];
    ++pmf_leaping[epidemic_time_leaping(n, 130000 + t, /*event_cap=*/2)];
  }
  const double tv = tv_distance(pmf_naive, pmf_leaping, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(LeapingEquivalence, BandedBatchPathIsExercisedAndMatchesNaiveLaw) {
  // A small event cap (slack 2·cap = 16) against mid-run counts of ~2048
  // keeps the band [W_low, W̄) a few percent of the envelope — narrow
  // enough for the width guard (p ≤ 1/8) — so windows resolve through
  // the banded batch path (geometric sure-accept runs, marginals
  // individually).  The observable is the infected count at a fixed
  // mid-transient horizon — the whole horizon runs as internal leap
  // windows, unlike the probe_every=1 time-law tests which degenerate to
  // one-slot windows and never band.
  const std::uint32_t n = 4096;
  const std::uint64_t horizon = 2 * n;
  const std::uint32_t cap = 8;
  const int trials = 2000;
  std::map<std::uint64_t, int> pmf_naive, pmf_banded;
  std::uint64_t banded_pieces = 0;
  for (int t = 0; t < trials; ++t) {
    Epidemic proto{n};
    Simulator<Epidemic> nav(proto, 130000 + t);
    nav.step(horizon);
    std::uint64_t infected = 0;
    for (std::uint32_t i = 0; i < n; ++i) infected += nav.population()[i] == 1;
    // Bucket by 128: the raw ~1000-point support would give two
    // *identical* laws an empirical TV well above the bar at this trial
    // count; ~10 buckets bring the same-law baseline near 0.05.
    ++pmf_naive[infected / 128];
    LeapingSimulator<Epidemic> leap(proto, 170000 + t, cap);
    leap.step(horizon);
    ++pmf_banded[leap.config().count_of(1) / 128];
    banded_pieces += leap.banded_pieces();
    EXPECT_TRUE(leap.uniform_net_delta());
  }
  EXPECT_GT(banded_pieces, 0u) << "banded batch path never taken";
  const double tv = tv_distance(pmf_naive, pmf_banded, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(LeapingEquivalence, EnvelopeBreachSplitPathIsExercisedAndExact) {
  // At n = 1024 with event_cap = 2 the early-epidemic windows have
  // m ≫ cap and E[C] = cap/4, so C > cap happens at a few-percent rate
  // per window: the hypergeometric split path must actually run, and the
  // trajectories must still satisfy the Lemma A.2 bound.  (This is a
  // path-coverage smoke; the split path's *law* is pinned by
  // SplitPathLawMatchesNaive below.)
  const std::uint32_t n = 1024;
  std::uint64_t total_splits = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Epidemic proto{n};
    LeapingSimulator<Epidemic> sim(proto, 300 + seed, /*event_cap=*/2);
    const auto r = sim.run_until(
        [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
          return c.count_of(1) == c.population_size();
        },
        1u << 26);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(sim.events(), n - 1);
    total_splits += sim.splits();
  }
  EXPECT_GT(total_splits, 0u);
}

TEST(LeapingEquivalence, SplitPathLawMatchesNaive) {
  // Distributional coverage for the window-split path — the gap the other
  // TV tests cannot reach: TinyEventCapStillMatchesNaive runs probe_every=1
  // (every window one slot, c ≤ 1, never splits) and the n = 1024 split
  // smoke above only checks convergence and the loose 7·n·ln n bound,
  // which a percent-level rate bias would pass.  Here the whole horizon
  // runs as internal multi-slot windows at event_cap = 2 (E[C] = 4/3, so
  // C > 2 at ~15% of windows: ~9 splits per run) and the observable, the
  // infected count at a mid-transient horizon, amplifies any per-slot
  // rate bias exponentially through the early growth phase.  Two teeth:
  //   * the TV bar catches gross split-path errors — discarding the
  //     second half's candidates and redrawing them fresh (dropping the
  //     candidate-rich branch conditioning) measures TV ≈ 0.25 here;
  //   * the mean gap catches percent-level rate bias — the stale-envelope
  //     bug (second-half candidates thinned under W̄ but accepted against
  //     the recomputed W̄₂, an under-rate of W̄/W̄₂ per slot) shifted the
  //     mean by −5.2% = 5.9 SEs at this trial count, while the exact
  //     band-promoting split measures −0.2% = 0.22 SEs (the band is
  //     ±2.3 SEs, deterministic under these fixed seeds).
  const std::uint32_t n = 1024;
  const std::uint64_t horizon = 2 * n;
  const int trials = 20000;
  std::map<std::uint64_t, int> pmf_naive, pmf_split;
  double sum_naive = 0.0, sum_split = 0.0;
  std::uint64_t total_splits = 0;
  for (int t = 0; t < trials; ++t) {
    Epidemic proto{n};
    Simulator<Epidemic> nav(proto, 210000 + t);
    nav.step(horizon);
    std::uint64_t infected = 0;
    for (std::uint32_t i = 0; i < n; ++i) infected += nav.population()[i] == 1;
    // Bucket by 32: the spread-out early-growth law (median ~50 infected,
    // long right tail) lands on ~a dozen buckets, keeping the same-law
    // empirical TV baseline well under the bar at this trial count.
    ++pmf_naive[infected / 32];
    sum_naive += static_cast<double>(infected);
    LeapingSimulator<Epidemic> leap(proto, 250000 + t, /*event_cap=*/2);
    leap.step(horizon);
    ++pmf_split[leap.config().count_of(1) / 32];
    sum_split += static_cast<double>(leap.config().count_of(1));
    total_splits += leap.splits();
  }
  EXPECT_GT(total_splits, static_cast<std::uint64_t>(trials))
      << "split path barely taken";
  const double tv = tv_distance(pmf_naive, pmf_split, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
  // Mean infected ≈ 49.6, sd ≈ 44.9: one SE of the mean gap is
  // sd·sqrt(2/trials) ≈ 0.45, so 1.0 is a ±2.3 SE band.
  EXPECT_NEAR(sum_naive / trials, sum_split / trials, 1.0);
}

// ---------------------------------------------------------------------------
// Windows sized from the counts (caps ≫ kMinWindowCap at n = 10^10).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kHugeN = 10'000'000'000ull;

/// Epidemic counts at n = kHugeN with n/4 agents infected; the protocol's
/// own n is unused (the counts carry it), as in perfbench.
LeapingSimulator<Epidemic> quarter_infected(std::uint64_t seed,
                                            std::uint32_t event_cap) {
  CountsConfiguration<Epidemic> counts(std::vector<int>{1});
  counts.add(1, kHugeN / 4 - 1);
  counts.add(0, kHugeN - kHugeN / 4);
  return LeapingSimulator<Epidemic>(Epidemic{0xffffffffu}, std::move(counts),
                                    seed, event_cap);
}

TEST(LeapingWindows, FixedCapAtTheOldDefaultReproducesItsGolden) {
  // event_cap = kMinWindowCap pins every window's cap at 6144, the fixed
  // cap the engine used before windows were sized from the counts.  The
  // figures were recorded from that engine (default cap, same seed).
  auto sim = quarter_infected(2026, LeapingSimulator<Epidemic>::kMinWindowCap);
  struct Row {
    std::uint64_t infected, candidates, windows;
  };
  const Row golden[] = {{2504689876ull, 4689908ull, 1146ull},
                        {2509383843ull, 9383905ull, 2293ull},
                        {2514088087ull, 14088169ull, 3442ull},
                        {2518794656ull, 18794766ull, 4592ull}};
  for (const Row& row : golden) {
    sim.step(kHugeN / 800);
    EXPECT_EQ(sim.config().count_of(1), row.infected);
    EXPECT_EQ(sim.events(), row.infected - kHugeN / 4);
    EXPECT_EQ(sim.candidates(), row.candidates);
    EXPECT_EQ(sim.windows(), row.windows);
    EXPECT_EQ(sim.banded_pieces(), row.windows);
    EXPECT_EQ(sim.splits(), 0u);
    EXPECT_EQ(sim.metrics().leap_cap_max,
              LeapingSimulator<Epidemic>::kMinWindowCap);
  }
}

TEST(LeapingWindows, LargeWindowLawMatchesTheFixedCapEngine) {
  // Two-sample check of the infected count after n/200 slots from
  // I₀ = n/4 at n = 10^10: the default engine, whose windows here carry
  // caps ≈ 1.5·√(n/4) = 75 000, against event_cap = 6144 (fixed windows).
  // Both are exact samplers of the same chain, so the mean gap must sit
  // inside a few standard errors and the bucketed laws must agree.
  const std::uint64_t horizon = kHugeN / 200;
  const int trials = 2000;
  std::vector<std::uint64_t> fixed, sized;
  fixed.reserve(trials);
  sized.reserve(trials);
  std::uint64_t cap_max = 0;
  for (int t = 0; t < trials; ++t) {
    auto a = quarter_infected(400000 + t,
                              LeapingSimulator<Epidemic>::kMinWindowCap);
    a.step(horizon);
    fixed.push_back(a.config().count_of(1));
    auto b = quarter_infected(600000 + t,
                              LeapingSimulator<Epidemic>::kDefaultEventCap);
    b.step(horizon);
    sized.push_back(b.config().count_of(1));
    cap_max = std::max(cap_max, b.metrics().leap_cap_max);
  }
  EXPECT_GT(cap_max, 70000u) << "windows were not sized from the counts";
  const auto sf = stats_of(fixed);
  const auto ss = stats_of(sized);
  const double se = std::sqrt((sf.sd * sf.sd + ss.sd * ss.sd) / trials);
  EXPECT_LT(std::abs(sf.mean - ss.mean), 3.0 * se)
      << "fixed mean=" << sf.mean << " sized mean=" << ss.mean
      << " se=" << se;
  EXPECT_GT(ss.sd, 0.9 * sf.sd);
  EXPECT_LT(ss.sd, 1.1 * sf.sd);
  // Half-sd buckets around the fixed-cap mean, tails folded at ±3 sd.
  const auto bucket = [&](std::uint64_t x) {
    const double z = (static_cast<double>(x) - sf.mean) / (0.5 * sf.sd);
    return static_cast<std::uint64_t>(std::clamp(std::floor(z), -6.0, 6.0) +
                                      6.0);
  };
  std::map<std::uint64_t, int> pmf_fixed, pmf_sized;
  for (const auto x : fixed) ++pmf_fixed[bucket(x)];
  for (const auto x : sized) ++pmf_sized[bucket(x)];
  const double tv = tv_distance(pmf_fixed, pmf_sized, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

std::uint64_t windows_to_full_infection(std::uint64_t n, std::uint64_t seed) {
  CountsConfiguration<Epidemic> counts(std::vector<int>{1});
  counts.add(0, n - 1);
  LeapingSimulator<Epidemic> sim(Epidemic{0xffffffffu}, std::move(counts),
                                 seed);
  const auto r = sim.run_until(
      [](const CountsConfiguration<Epidemic>& c, std::uint64_t) {
        return c.count_of(0) == 0;
      },
      ~std::uint64_t{0}, n);
  EXPECT_TRUE(r.converged) << "n=" << n;
  EXPECT_EQ(sim.events(), n - 1);
  return sim.windows();
}

TEST(LeapingWindows, WindowCountGrowsLikeTheRootOfN) {
  // Counts windows, not time: a cap fixed at any constant takes Θ(n)
  // windows per epidemic (≈ 100× from 10^8 to 10^10, 2.4·10^6 at 10^10),
  // a cap ∝ √c_min takes Θ(√n) (≈ 10×).
  const std::uint64_t small = windows_to_full_infection(100'000'000ull, 7);
  const std::uint64_t large = windows_to_full_infection(kHugeN, 7);
  EXPECT_LE(large, 20 * small) << "small=" << small << " large=" << large;
  EXPECT_LT(large, 400000u);
}

// ---------------------------------------------------------------------------
// Statistical equivalence: LooseLeader (timer cascades — almost every pair
// type is active, the regime where leaping degrades to per-interaction
// thinning and must stay exact while doing so).
// ---------------------------------------------------------------------------

std::uint32_t leaders_after_naive(std::uint32_t n, std::uint64_t horizon,
                                  std::uint64_t seed) {
  baselines::LooseLeaderElection proto(n, /*timeout_scale=*/2);
  Simulator<baselines::LooseLeaderElection> sim(proto, seed);
  sim.step(horizon);
  return proto.leader_count(sim.population().states());
}

std::uint32_t leaders_after_leaping(std::uint32_t n, std::uint64_t horizon,
                                    std::uint64_t seed) {
  baselines::LooseLeaderElection proto(n, /*timeout_scale=*/2);
  LeapingSimulator<baselines::LooseLeaderElection> sim(proto, seed);
  sim.step(horizon);
  // Heterogeneous deltas (fights, demotions, timer decrements): the
  // banded batch path must stay off — every candidate walks the table.
  EXPECT_FALSE(sim.uniform_net_delta());
  return static_cast<std::uint32_t>(
      sim.config().count_if(baselines::LooseLeaderElection::is_leader));
}

TEST(LeapingEquivalence, LooseLeaderCountLawMatchesNaive) {
  // Mid-transient (2n interactions from the all-timers-zero start) the
  // leader count is a genuinely spread-out law: promotions are racing
  // leader fights.  Compare it whole via TV distance.
  const std::uint32_t n = 32;
  const std::uint64_t horizon = 2 * n;
  const int trials = 1500;
  std::map<std::uint64_t, int> pmf_naive, pmf_leaping;
  for (int t = 0; t < trials; ++t) {
    ++pmf_naive[leaders_after_naive(n, horizon, 40000 + t)];
    ++pmf_leaping[leaders_after_leaping(n, horizon, 90000 + t)];
  }
  const double tv = tv_distance(pmf_naive, pmf_leaping, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(LeapingEquivalence, LooseLeaderSettlesToOneLeaderOnBothEngines) {
  // Long horizon (32n interactions at this τ): the loose protocol is
  // *usually* down to a unique leader, but timeouts keep re-promoting,
  // so the rate hovers around ~70% — the law, not certainty.  The real
  // assertion is that both engines report the same rate.
  const std::uint32_t n = 32;
  const std::uint64_t horizon = 32 * n;
  int naive_single = 0, leaping_single = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    naive_single += leaders_after_naive(n, horizon, 500 + t) == 1;
    leaping_single += leaders_after_leaping(n, horizon, 700 + t) == 1;
  }
  EXPECT_GT(naive_single, trials / 2);
  EXPECT_GT(leaping_single, trials / 2);
  EXPECT_NEAR(naive_single, leaping_single, trials / 10);
}

// ---------------------------------------------------------------------------
// analysis::epidemic_convergence — the engine-generic Lemma A.2 entry.
// ---------------------------------------------------------------------------

TEST(EpidemicConvergence, AllEnginesConvergeWithinTheLemmaBound) {
  const std::uint64_t n = 100000;
  const double bound = 7.0 * static_cast<double>(n) *
                       std::log(static_cast<double>(n));
  for (const auto engine :
       {analysis::Engine::kNaive, analysis::Engine::kBatched,
        analysis::Engine::kLeaping}) {
    const auto r = analysis::epidemic_convergence(engine, n, 42);
    EXPECT_TRUE(r.converged) << analysis::engine_name(engine);
    EXPECT_LT(static_cast<double>(r.interactions), bound)
        << analysis::engine_name(engine);
    EXPECT_GE(r.interactions, n - 1) << analysis::engine_name(engine);
  }
}

TEST(EpidemicConvergence, TrivialPopulationsAreAlreadyConverged) {
  const auto r =
      analysis::epidemic_convergence(analysis::Engine::kLeaping, 1, 3);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.interactions, 0u);
}

// ---------------------------------------------------------------------------
// sample_binomial: the exact draw the windows are built on.
// ---------------------------------------------------------------------------

TEST(Binomial, DegenerateCasesAreExact) {
  util::Rng rng(7);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, -1.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.0), 100u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.5), 100u);
}

TEST(Binomial, SmallCaseChiSquareMatchesExactPmf) {
  util::Rng rng(12345);
  const std::uint64_t trials = 5;
  const double p = 0.3;
  const int draws = 20000;
  std::array<int, 6> observed{};
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = sample_binomial(rng, trials, p);
    ASSERT_LE(k, trials);
    ++observed[k];
  }
  // Exact pmf C(5,k)·0.3^k·0.7^(5−k).
  double chi2 = 0.0;
  for (std::uint64_t k = 0; k <= trials; ++k) {
    double pmf = 1.0;
    for (std::uint64_t j = 0; j < k; ++j) {
      pmf *= static_cast<double>(trials - j) / static_cast<double>(j + 1);
    }
    pmf *= std::pow(p, static_cast<double>(k)) *
           std::pow(1.0 - p, static_cast<double>(trials - k));
    const double expect = pmf * draws;
    chi2 += (observed[k] - expect) * (observed[k] - expect) / expect;
  }
  // 5 d.o.f.: P(χ² > 20.5) ≈ 0.001; the seed is fixed, so this is a
  // deterministic regression gate, not a flaky stochastic one.
  EXPECT_LT(chi2, 20.5);
}

TEST(Binomial, HugeTrialsTinyPStaysOnTheoryMean) {
  // The leap regime: trials ~ 10^10 slots, candidate probability ~ 10^-7.
  // Mean n·p = 1000, sd ≈ 31.6; 400 draws pin the sample mean to ±5 SE.
  util::Rng rng(99);
  const std::uint64_t trials = 10'000'000'000ull;
  const double p = 1e-7;
  const int draws = 400;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(sample_binomial(rng, trials, p));
  }
  const double mean = sum / draws;
  const double se = 31.6 / std::sqrt(static_cast<double>(draws));
  EXPECT_NEAR(mean, 1000.0, 5.0 * se);
}

/// Fixed-seed χ² of 10^6 samples of B(trials, p) against the exact pmf,
/// built by the recurrence p(k+1)/p(k) = (trials−k)/(k+1)·p/(1−p) outward
/// from the mode and normalised over mean ± 9σ (the mass beyond is below
/// 1e-10 for every case here).  Bins are consecutive support points merged
/// until each expects ≥ 20 draws; the end bins take the tails.  Returns
/// how far χ² sits above the P ≈ 0.001 critical value (Wilson–Hilferty),
/// so a passing case returns a negative number.
double binomial_chi2_excess(std::uint64_t seed, std::uint64_t trials,
                            double p) {
  constexpr int draws = 1'000'000;
  const double nd = static_cast<double>(trials);
  const double mean = nd * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const auto lo = static_cast<std::uint64_t>(std::max(0.0, mean - 9.0 * sd));
  const auto hi = static_cast<std::uint64_t>(std::min(nd, mean + 9.0 * sd));
  const auto mode = std::clamp(
      static_cast<std::uint64_t>((nd + 1.0) * p), lo, hi);
  std::vector<double> pmf(hi - lo + 1, 0.0);
  const double odds = p / (1.0 - p);
  pmf[mode - lo] = 1.0;
  for (std::uint64_t k = mode; k < hi; ++k) {
    const double kd = static_cast<double>(k);
    pmf[k + 1 - lo] = pmf[k - lo] * (nd - kd) / (kd + 1.0) * odds;
  }
  for (std::uint64_t k = mode; k > lo; --k) {
    const double kd = static_cast<double>(k);
    pmf[k - 1 - lo] = pmf[k - lo] * kd / ((nd - kd + 1.0) * odds);
  }
  double total = 0.0;
  for (const double w : pmf) total += w;

  // bin_of[k − lo] = bin index; a bin closes once it expects ≥ 20 draws,
  // and a short last bin folds into its predecessor.
  std::vector<std::size_t> bin_of(pmf.size());
  std::vector<double> expect{0.0};
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    if (expect.back() >= 20.0) expect.push_back(0.0);
    bin_of[i] = expect.size() - 1;
    expect.back() += pmf[i] / total * draws;
  }
  if (expect.size() > 1 && expect.back() < 20.0) {
    for (auto& b : bin_of) b = std::min(b, expect.size() - 2);
    expect[expect.size() - 2] += expect.back();
    expect.pop_back();
  }

  util::Rng rng(seed);
  std::vector<double> observed(expect.size(), 0.0);
  int out_of_support = 0;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = sample_binomial(rng, trials, p);
    if (k > trials) ++out_of_support;
    observed[bin_of[std::clamp(k, lo, hi) - lo]] += 1.0;
  }
  EXPECT_EQ(out_of_support, 0) << "trials=" << trials << " p=" << p;
  EXPECT_GE(expect.size(), 3u) << "trials=" << trials << " p=" << p;

  double chi2 = 0.0;
  for (std::size_t b = 0; b < expect.size(); ++b) {
    chi2 += (observed[b] - expect[b]) * (observed[b] - expect[b]) / expect[b];
  }
  const double dof = static_cast<double>(expect.size() - 1);
  const double h = 2.0 / (9.0 * dof);
  const double crit = dof * std::pow(1.0 - h + 3.09 * std::sqrt(h), 3.0);
  return chi2 - crit;
}

TEST(Binomial, BtrsMatchesExactPmfAtEngineWindowShapes) {
  // The leap window's own shapes: E[C] = 4096 at trials = ⌊4096/p⌋, from
  // the n = 10^10 epidemic's p ≈ 10^-6 to p = ½, and the reflected side
  // (p > ½ draws trials − B(trials, 1 − p)).
  std::uint64_t seed = 2000;
  for (const double p : {1e-6, 0.01, 0.5, 0.9, 0.99}) {
    const auto trials = static_cast<std::uint64_t>(4096.0 / p);
    EXPECT_LT(binomial_chi2_excess(++seed, trials, p), 0.0)
        << "trials=" << trials << " p=" << p;
  }
}

TEST(Binomial, BtrsMatchesExactPmfAtHugeTrials) {
  // trials = 10^10, where every log-factorial is ≈ 2·10^11: the acceptance
  // bound must be built from terms of size O(σ), not their differences.
  EXPECT_LT(binomial_chi2_excess(3001, 10'000'000'000ull, 1e-7), 0.0);
}

TEST(Binomial, SwitchBoundaryMatchesExactPmf) {
  // trials·min(p, 1 − p) = 9.5 runs the inversion walk; 10 and 12 run
  // BTRS at the smallest means it is valid for.  Both sides at trials =
  // 10^3 and at trials = 10^10, where the walk's pmf at the mode must not
  // come from a difference of log-factorials.
  std::uint64_t seed = 4000;
  for (const std::uint64_t trials : {1000ull, 10'000'000'000ull}) {
    for (const double mean : {9.5, 10.0, 12.0}) {
      const double p = mean / static_cast<double>(trials);
      EXPECT_LT(binomial_chi2_excess(++seed, trials, p), 0.0)
          << "trials=" << trials << " p=" << p;
    }
  }
}

TEST(Binomial, LogChooseStirlingMatchesLogSum) {
  // Reference: log C(n, r) = Σ_{j<r} ln((n − j)/(j + 1)), ≈ 1e-13 exact for
  // r ≤ 20.  log_choose is off by up to ≈ 3·10^-5 at n = 10^10.
  for (const std::uint64_t n : {30ull, 1000ull, 4'000'000'000ull,
                                10'000'000'000ull}) {
    for (const std::uint64_t r : {0ull, 1ull, 5ull, 20ull}) {
      double sum = 0.0;
      for (std::uint64_t j = 0; j < r; ++j) {
        sum += std::log(static_cast<double>(n - j) /
                        static_cast<double>(j + 1));
      }
      EXPECT_NEAR(log_choose_stirling(n, r), sum, 1e-12)
          << "n=" << n << " r=" << r;
      EXPECT_NEAR(log_choose_stirling(n, n - r), sum, 1e-12)
          << "n=" << n << " r=n-" << r;
    }
  }
}

TEST(Binomial, StirlingTailMatchesItsDefinition) {
  // fc(k) = ln k! − (k + ½)·ln(k + 1) + (k + 1) − ln√(2π): the table
  // (k ≤ 9) and the series (beyond) against log_factorial's summed table.
  // The direct form cancels terms of size ln k!, so the tolerance scales
  // with it (≈ 1e-13 at the table, ≈ 6e-11 at k = 1023).
  for (std::uint64_t k = 0; k < 1024; ++k) {
    const double x = static_cast<double>(k);
    const double direct = log_factorial(k) - (x + 0.5) * std::log(x + 1.0) +
                          (x + 1.0) - kLnSqrt2Pi;
    EXPECT_NEAR(stirling_tail(k), direct, 1e-14 * (1.0 + log_factorial(k)))
        << "k=" << k;
  }
}

TEST(BinomialDeathTest, NonFiniteProbabilityAborts) {
  util::Rng rng(5);
  EXPECT_DEATH(sample_binomial(rng, 1000, std::nan("")),
               "sample_binomial: probability -?nan is not finite");
  EXPECT_DEATH(sample_binomial(rng, 1000, HUGE_VAL), "sample_binomial");
  EXPECT_DEATH(sample_binomial(rng, 0, -HUGE_VAL), "sample_binomial");
}

TEST(LeapingDeathTest, RejectsPopulationsBelowTwo) {
  EXPECT_EXIT({ LeapingSimulator<Epidemic> sim(Epidemic{1}, 1); },
              ::testing::ExitedWithCode(2),
              "leaping engine.*n=1 \\(field: n\\)");
  EXPECT_EXIT({ LeapingSimulator<Epidemic> sim(Epidemic{0}, 1); },
              ::testing::ExitedWithCode(2), "n=0 \\(field: n\\)");
}

}  // namespace
}  // namespace ssle::pp
