#include "pp/counts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"

namespace ssle::pp {
namespace {

TEST(Counts, CleanInitialConfigurationFromProtocol) {
  Epidemic proto{16};
  CountsConfiguration<Epidemic> config(proto);
  EXPECT_EQ(config.population_size(), 16u);
  EXPECT_EQ(config.count_of(1), 1u);
  EXPECT_EQ(config.count_of(0), 15u);
  EXPECT_EQ(config.count_of(7), 0u);  // never registered
}

TEST(Counts, ExplicitConfigurationProjectsToCounts) {
  CountsConfiguration<Epidemic> config(std::vector<int>{1, 0, 1, 1, 0});
  EXPECT_EQ(config.population_size(), 5u);
  EXPECT_EQ(config.count_of(1), 3u);
  EXPECT_EQ(config.count_of(0), 2u);
}

TEST(Counts, AddRemoveAndTotals) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  EXPECT_EQ(config.population_size(), 0u);
  const auto idx = config.add(3, 10);
  config.add(4, 2);
  EXPECT_EQ(config.population_size(), 12u);
  config.remove_at(idx, 4);
  EXPECT_EQ(config.count_of(3), 6u);
  EXPECT_EQ(config.population_size(), 8u);
}

TEST(Counts, ToStatesExpandsTheMultiset) {
  CountsConfiguration<Epidemic> config(std::vector<int>{1, 0, 1, 0, 0});
  auto states = config.to_states();
  std::sort(states.begin(), states.end());
  EXPECT_EQ(states, (std::vector<int>{0, 0, 0, 1, 1}));
}

TEST(Counts, CompactReleasesDeadIdsAndKeepsLiveIdsStable) {
  CountsConfiguration<Epidemic> config(std::vector<int>{1, 2, 3});
  const auto id1 = config.index_of(1);
  const auto id2 = config.index_of(2);
  const auto id3 = config.index_of(3);
  config.remove_at(id2, 1);
  EXPECT_EQ(config.num_allocated_states(), 3u);
  const auto version = config.registry_version();
  config.compact();
  // The dead interior id is released (allocation count drops); live ids
  // are NOT re-indexed — that stability is what lets Fenwick sums, scratch
  // arrays and memoized transitions survive compaction.
  EXPECT_EQ(config.num_allocated_states(), 2u);
  EXPECT_GT(config.registry_version(), version);
  EXPECT_EQ(config.population_size(), 2u);
  EXPECT_EQ(config.count_of(2), 0u);
  EXPECT_EQ(config.count_of(1), 1u);
  EXPECT_EQ(config.count_of(3), 1u);
  EXPECT_EQ(config.index_of(1), id1);
  EXPECT_EQ(config.index_of(3), id3);
  // A newly registered state reuses the reclaimed slot instead of growing
  // the arena.
  const auto id4 = config.index_of(4);
  EXPECT_EQ(id4, id2);
  EXPECT_EQ(config.num_states(), 3u);
}

TEST(Counts, CompactTrimsTrailingDeadIds) {
  CountsConfiguration<Epidemic> config(std::vector<int>{1, 2, 3});
  const auto id3 = config.index_of(3);
  config.remove_at(id3, 1);
  config.compact();
  // A dead id at the arena's tail is trimmed outright: the registry (and
  // the Fenwick tree) shrink.
  EXPECT_EQ(config.num_states(), 2u);
  EXPECT_EQ(config.num_allocated_states(), 2u);
  EXPECT_EQ(config.count_of(3), 0u);
  EXPECT_EQ(config.count_of(1), 1u);
  EXPECT_EQ(config.count_of(2), 1u);
}

TEST(Counts, ChurnWithCompactKeepsTheRegistryBounded) {
  // Regression for long adversarial/churn runs: repeatedly move the whole
  // population through fresh states.  Without dead-id reclamation the
  // registry would end holding every state ever seen (~50·64 entries);
  // with compact() releasing dead ids for reuse it stays O(live).
  CountsConfiguration<Epidemic> config(std::vector<int>(64, 0));
  int next_state = 1;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      config.remove_at(config.sample_class(0), 1);
      config.add(next_state++, 1);
    }
    config.compact();
    EXPECT_EQ(config.population_size(), 64u);
    EXPECT_EQ(config.num_live_states(), 64u);
    ASSERT_LE(config.num_states(), 256u) << "cycle " << cycle;
  }
}

TEST(Counts, ShouldCompactNeverFiresOnTinyRegistries) {
  // < 32 allocations: compact()'s O(capacity) rebuild isn't worth asking
  // about, no matter how dead the registry is.
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  for (int s = 0; s < 20; ++s) config.add(s, 1);
  for (int s = 1; s < 20; ++s) config.remove_at(config.index_of(s), 1);
  EXPECT_EQ(config.num_live_states(), 1u);
  EXPECT_FALSE(config.should_compact());
}

TEST(Counts, ShouldCompactFiresOnTheDeadFractionRule) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  for (int s = 0; s < 64; ++s) config.add(s, 1);
  EXPECT_FALSE(config.should_compact());  // fully live
  // Kill classes until dead ids are at least half the allocation.
  for (int s = 0; s < 31; ++s) config.remove_at(config.index_of(s), 1);
  EXPECT_FALSE(config.should_compact());  // 33 live of 64: not yet
  config.remove_at(config.index_of(31), 1);
  EXPECT_TRUE(config.should_compact());  // 32 live of 64: 2·live ≤ allocated
  config.compact();
  EXPECT_FALSE(config.should_compact());  // all dead ids reclaimed
  EXPECT_EQ(config.num_live_states(), 32u);
}

TEST(Counts, ShouldCompactFiresOnTheAbsoluteDeadRule) {
  // q ≈ n regime: with far more live than dead states the fraction rule
  // would wait for dead ≥ live, stranding a huge dead tail.  The policy's
  // absolute clause must fire at kCompactDeadAbsolute dead ids regardless.
  const std::uint32_t dead_bound =
      CountsConfiguration<Epidemic>::kCompactDeadAbsolute;
  const std::uint32_t live = 3 * dead_bound;
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  for (std::uint32_t s = 0; s < live + dead_bound; ++s) {
    config.add(static_cast<int>(s), 1);
  }
  for (std::uint32_t s = 0; s < dead_bound - 1; ++s) {
    config.remove_at(config.index_of(static_cast<int>(s)), 1);
  }
  // dead = bound - 1 and 2·live > allocated: neither clause fires.
  EXPECT_FALSE(config.should_compact());
  config.remove_at(config.index_of(static_cast<int>(dead_bound - 1)), 1);
  EXPECT_TRUE(config.should_compact());  // dead == bound
  config.compact();
  EXPECT_FALSE(config.should_compact());
  EXPECT_EQ(config.population_size(), static_cast<std::uint64_t>(live));
}

TEST(Counts, PolicyDrivenChurnKeepsTheRegistryBoundedAndExact) {
  // The engine-side loop: churn the whole population through fresh states
  // and compact only when should_compact() says so — the policy must both
  // trigger often enough to bound the registry and never corrupt counts.
  CountsConfiguration<Epidemic> config(std::vector<int>(64, 0));
  int next_state = 1;
  std::uint64_t compactions = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      config.remove_at(config.sample_class(0), 1);
      config.add(next_state++, 1);
    }
    if (config.should_compact()) {
      config.compact();
      ++compactions;
    }
    ASSERT_EQ(config.population_size(), 64u);
    ASSERT_EQ(config.num_live_states(), 64u);
    ASSERT_LE(config.num_states(), 256u) << "cycle " << cycle;
  }
  EXPECT_GT(compactions, 10u);  // the fraction rule fires every few cycles
}

TEST(Counts, CountIfAndForEach) {
  CountsConfiguration<Epidemic> config(std::vector<int>{1, 0, 1, 1, 0});
  EXPECT_EQ(config.count_if([](int s) { return s == 1; }), 3u);
  std::uint64_t seen = 0;
  config.for_each([&](int, std::uint64_t c) { seen += c; });
  EXPECT_EQ(seen, 5u);
}

// ---------------------------------------------------------------------------
// Fenwick index: point update / prefix query / sampled-class agreement.
// ---------------------------------------------------------------------------

/// Reference for sample_class: linear scan over the counts.
template <typename Config>
std::uint32_t sample_class_dense(const Config& config, std::uint64_t pos) {
  for (std::uint32_t i = 0; i < config.num_states(); ++i) {
    if (pos < config.count(i)) return i;
    pos -= config.count(i);
  }
  ADD_FAILURE() << "pos beyond population";
  return 0;
}

/// Checks prefix_count and sample_class against dense scans, everywhere.
template <typename Config>
void expect_index_consistent(const Config& config) {
  std::uint64_t cumulative = 0;
  for (std::uint32_t i = 0; i < config.num_states(); ++i) {
    EXPECT_EQ(config.prefix_count(i), cumulative) << "prefix at " << i;
    cumulative += config.count(i);
  }
  EXPECT_EQ(config.prefix_count(config.num_states()), cumulative);
  EXPECT_EQ(cumulative, config.population_size());
  for (std::uint64_t pos = 0; pos < config.population_size(); ++pos) {
    EXPECT_EQ(config.sample_class(pos), sample_class_dense(config, pos))
        << "pos " << pos;
  }
}

TEST(Fenwick, PrefixAndSampleAgreeWithDenseScan) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  config.add(10, 3);
  config.add(20, 0);  // registered, zero count
  config.add(30, 5);
  config.add(40, 1);
  expect_index_consistent(config);
}

TEST(Fenwick, PointUpdatesKeepTheIndexExact) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  util::Rng rng(99);
  std::vector<std::uint32_t> idx;
  for (int s = 0; s < 37; ++s) {
    idx.push_back(config.add(s, rng.below(9)));
  }
  expect_index_consistent(config);
  // Interleave adds and removes, re-checking the whole index each round.
  for (int round = 0; round < 50; ++round) {
    const auto i = idx[static_cast<std::size_t>(rng.below(idx.size()))];
    if (rng.coin() && config.count(i) > 0) {
      config.remove_at(i, 1 + rng.below(config.count(i)));
    } else {
      config.add_at(i, 1 + rng.below(4));
    }
  }
  expect_index_consistent(config);
}

TEST(Fenwick, GrowthAppendsKeepTheIndexExact) {
  // Appending entries exercises tree_append for every lowbit shape
  // (including power-of-two boundaries, whose node spans the whole tree).
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  for (int s = 0; s < 70; ++s) {
    config.add(s, static_cast<std::uint64_t>(s % 4));  // some zero counts
    expect_index_consistent(config);
  }
}

TEST(Fenwick, CompactRebuildsTheIndex) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  for (int s = 0; s < 20; ++s) config.add(s, s % 3 == 0 ? 0 : 2);
  config.compact();
  expect_index_consistent(config);
  config.add(100, 7);
  expect_index_consistent(config);
}

TEST(Fenwick, LiveStateCountTracksNonzeroEntries) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  EXPECT_EQ(config.num_live_states(), 0u);
  const auto a = config.add(1, 4);
  const auto b = config.add(2, 1);
  config.index_of(3);  // registered with count 0: not live
  EXPECT_EQ(config.num_states(), 3u);
  EXPECT_EQ(config.num_live_states(), 2u);
  config.remove_at(b, 1);
  EXPECT_EQ(config.num_live_states(), 1u);
  config.add_at(b, 2);
  EXPECT_EQ(config.num_live_states(), 2u);
  config.remove_at(a, 4);
  config.compact();
  // id2 (trailing, dead) is trimmed; id0 (interior, dead) is released to
  // the free list but keeps its slot, so the arena extent is 2.
  EXPECT_EQ(config.num_states(), 2u);
  EXPECT_EQ(config.num_allocated_states(), 1u);
  EXPECT_EQ(config.num_live_states(), 1u);
  EXPECT_EQ(config.count_of(2), 2u);  // the live state's id survived
}

TEST(Fenwick, SampleClassNeverReturnsZeroCountEntries) {
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  config.add(0, 2);
  config.add(1, 0);
  config.add(2, 3);
  config.add(3, 0);
  for (std::uint64_t pos = 0; pos < config.population_size(); ++pos) {
    const auto idx = config.sample_class(pos);
    EXPECT_GT(config.count(idx), 0u) << "pos " << pos;
  }
}

// ---------------------------------------------------------------------------
// Engine edge cases on degenerate populations.
// ---------------------------------------------------------------------------

// Engines start from n >= 2 agents (BatchedDeathTest); churn can still
// leave fewer, which these tests reach by removing agents.
void remove_agents(BatchedSimulator<Epidemic>& sim, int state,
                   std::uint64_t c) {
  auto& config = sim.config();
  config.remove_at(config.index_of(state), c);
}

TEST(CountsEdge, EmptyPopulationStepsAreCountedNoOps) {
  Epidemic proto{2};
  BatchedSimulator<Epidemic> sim(proto, 1);
  remove_agents(sim, 1, 1);
  remove_agents(sim, 0, 1);
  sim.step(100);
  EXPECT_EQ(sim.interactions(), 100u);
  EXPECT_EQ(sim.config().population_size(), 0u);
}

TEST(CountsEdge, EmptyPopulationRunUntilTerminates) {
  Epidemic proto{2};
  BatchedSimulator<Epidemic> sim(proto, 1);
  remove_agents(sim, 1, 1);
  remove_agents(sim, 0, 1);
  const auto result = sim.run_until(
      [](const CountsConfiguration<Epidemic>&, std::uint64_t) {
        return false;
      },
      1000);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.interactions, 1000u);
}

TEST(CountsEdge, SingleAgentNeverInteractsButCounts) {
  Epidemic proto{2};
  BatchedSimulator<Epidemic> sim(proto, 1);
  remove_agents(sim, 0, 1);
  sim.step(50);
  EXPECT_EQ(sim.interactions(), 50u);
  EXPECT_EQ(sim.config().count_of(1), 1u);  // the lone infected agent
  EXPECT_EQ(sim.config().population_size(), 1u);
}

TEST(CountsEdge, SingleStatePopulationIsAFixedPoint) {
  // All agents already infected: every interaction is (1,1) → (1,1).
  CountsConfiguration<Epidemic> config(std::vector<int>(32, 1));
  Epidemic proto{32};
  BatchedSimulator<Epidemic> sim(proto, config, 7);
  sim.step(5000);
  EXPECT_EQ(sim.interactions(), 5000u);
  EXPECT_EQ(sim.config().count_of(1), 32u);
  EXPECT_EQ(sim.config().count_of(0), 0u);
}

TEST(CountsEdge, ProbeEveryLargerThanBudgetStillProbesAtTheEnd) {
  Epidemic proto{8};
  BatchedSimulator<Epidemic> sim(proto, 3);
  // probe_every = 10^6 > max_interactions = 40: the chunk is clamped to the
  // budget, so exactly 40 interactions run and the predicate is evaluated
  // once more at the end.
  std::uint64_t probes = 0;
  const auto result = sim.run_until(
      [&](const CountsConfiguration<Epidemic>&, std::uint64_t) {
        ++probes;
        return false;
      },
      40, 1000000);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.interactions, 40u);
  EXPECT_EQ(probes, 2u);  // initial probe + the clamped terminal probe
}

// ---------------------------------------------------------------------------
// Hypergeometric samplers (the machinery behind the batched engine).
// ---------------------------------------------------------------------------

TEST(Hypergeometric, DegenerateCasesAreExact) {
  util::Rng rng(11);
  EXPECT_EQ(sample_hypergeometric(rng, 100, 40, 0), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 100, 0, 30), 0u);
  EXPECT_EQ(sample_hypergeometric(rng, 100, 100, 30), 30u);
  EXPECT_EQ(sample_hypergeometric(rng, 100, 40, 100), 40u);
}

TEST(Hypergeometric, StaysOnSupport) {
  util::Rng rng(13);
  const std::uint64_t total = 50, successes = 30, draws = 35;
  const std::uint64_t lo = draws + successes - total;  // 15
  const std::uint64_t hi = std::min(draws, successes);  // 30
  for (int i = 0; i < 3000; ++i) {
    const auto k = sample_hypergeometric(rng, total, successes, draws);
    EXPECT_GE(k, lo);
    EXPECT_LE(k, hi);
  }
}

TEST(Hypergeometric, MeanAndVarianceMatchTheory) {
  util::Rng rng(17);
  const std::uint64_t total = 1000, successes = 300, draws = 100;
  const double expected_mean =
      static_cast<double>(draws) * successes / total;  // 30
  // Var = m · (K/N) · (1-K/N) · (N-m)/(N-1) ≈ 18.92
  const double expected_var = draws * 0.3 * 0.7 * (900.0 / 999.0);
  const int trials = 20000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < trials; ++i) {
    const auto k =
        static_cast<double>(sample_hypergeometric(rng, total, successes, draws));
    sum += k;
    sumsq += k * k;
  }
  const double mean = sum / trials;
  const double var = sumsq / trials - mean * mean;
  EXPECT_NEAR(mean, expected_mean, 0.15);       // ±~5 sigma of the mean est.
  EXPECT_NEAR(var, expected_var, expected_var * 0.1);
}

TEST(Hypergeometric, TailRegimeChiSquareMatchesExactPmf) {
  // Regression for the floating-point-residue fallback: huge `total`, tiny
  // `successes` — the regime the leap engine's window splits stress.  The
  // old fallback attributed leftover pmf mass to the *mode*; the fix sends
  // it to the outermost visited support point on the heavier side.  The
  // whole law over the 4-point support must match the exact pmf, computed
  // via falling factorials: p(k) = C(3,k)·d^(k)·(N−d)^((3−k))/N^((3)).
  util::Rng rng(29);
  const std::uint64_t total = 10'000'000'000ull;
  const std::uint64_t successes = 3;
  const std::uint64_t draws = total / 2;
  const int trials = 20000;
  std::array<int, 4> observed{};
  for (int i = 0; i < trials; ++i) {
    const auto k = sample_hypergeometric(rng, total, successes, draws);
    ASSERT_LE(k, successes);
    ++observed[k];
  }
  const double N = static_cast<double>(total);
  const double d = static_cast<double>(draws);
  double chi2 = 0.0;
  for (std::uint64_t k = 0; k <= successes; ++k) {
    double pmf = 1.0;
    for (std::uint64_t j = 0; j < k; ++j) {
      pmf *= (d - static_cast<double>(j)) * static_cast<double>(successes - j) /
             static_cast<double>(j + 1);
    }
    for (std::uint64_t j = 0; j < successes - k; ++j) {
      pmf *= (N - d - static_cast<double>(j));
    }
    for (std::uint64_t j = 0; j < successes; ++j) {
      pmf /= (N - static_cast<double>(j));
    }
    const double expect = pmf * trials;
    chi2 += (observed[k] - expect) * (observed[k] - expect) / expect;
  }
  // 3 d.o.f.: P(χ² > 16.3) ≈ 0.001; fixed seed, so deterministic.
  EXPECT_LT(chi2, 16.3);
}

TEST(Hypergeometric, TailRegimeStaysOnSupport) {
  util::Rng rng(31);
  const std::uint64_t total = 10'000'000'000ull;
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LE(sample_hypergeometric(rng, total, 3, total / 3), 3u);
  }
}

TEST(Hypergeometric, MultivariateDrawsPartitionTheSample) {
  util::Rng rng(19);
  const std::vector<std::uint64_t> counts{500, 0, 300, 200};
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 500; ++i) {
    sample_multivariate_hypergeometric(rng, counts, 250, out);
    ASSERT_EQ(out.size(), counts.size());
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      EXPECT_LE(out[j], counts[j]);
      sum += out[j];
    }
    EXPECT_EQ(sum, 250u);
    EXPECT_EQ(out[1], 0u);
  }
}

TEST(Hypergeometric, MultivariateMeansAreProportional) {
  util::Rng rng(23);
  const std::vector<std::uint64_t> counts{600, 300, 100};
  std::vector<std::uint64_t> out;
  const int trials = 10000;
  std::vector<double> sums(3, 0.0);
  for (int i = 0; i < trials; ++i) {
    sample_multivariate_hypergeometric(rng, counts, 100, out);
    for (int j = 0; j < 3; ++j) sums[j] += static_cast<double>(out[j]);
  }
  EXPECT_NEAR(sums[0] / trials, 60.0, 0.5);
  EXPECT_NEAR(sums[1] / trials, 30.0, 0.5);
  EXPECT_NEAR(sums[2] / trials, 10.0, 0.5);
}

TEST(CountsKernel, InsertRemoveAgentAreExactUnderChurn) {
  // The churn primitives: one-agent edits must keep counts, totals and the
  // Fenwick index exact through sustained join/leave/corrupt traffic.
  CountsConfiguration<Epidemic> config(std::vector<int>{});
  util::Rng rng(23);
  for (int i = 0; i < 64; ++i) config.insert_agent(static_cast<int>(i % 7));
  EXPECT_EQ(config.population_size(), 64u);
  for (int round = 0; round < 2000; ++round) {
    // leave: uniform victim via Fenwick descent, like the fault runner.
    const auto victim =
        config.sample_class(rng.below(config.population_size()));
    config.remove_agent(victim);
    // join: sometimes a brand-new state (id churn), sometimes an old one.
    config.insert_agent(round % 3 == 0 ? 1000 + round
                                       : static_cast<int>(rng.below(7)));
    if (config.should_compact()) config.compact();
  }
  EXPECT_EQ(config.population_size(), 64u);
  std::uint64_t total = 0;
  config.for_each([&](int, std::uint64_t c) { total += c; });
  EXPECT_EQ(total, 64u);
  expect_index_consistent(config);
  // Bounded allocation: 2000 one-shot novel states passed through, but the
  // compaction policy reclaims them — the registry must not grow linearly
  // with churn history.
  EXPECT_LT(config.num_allocated_states(), 128u);
  EXPECT_GT(config.compactions(), 0u);
}

}  // namespace
}  // namespace ssle::pp
