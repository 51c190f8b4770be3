// Batched adversarial starts: the counts projection of every corruption
// class must recover like the naive engine does.
//
// stabilize_batched (batched_elect.hpp) projects
// core::make_adversarial_config through CountsConfiguration and advances
// it with the batched engine, the q ≈ n kernel path the fault runner's soak
// takes; analysis::stabilize draws the *same* start from the same substream
// on the naive engine, so for every core::Corruption kind the recovery-time
// distributions must agree (statistically — the engines consume scheduler
// randomness differently).  This is the adversarial counterpart of the
// clean-start equivalence suite in test_batched_simulator.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/measure.hpp"
#include "batched_elect.hpp"
#include "core/adversary.hpp"
#include "core/params.hpp"
#include "pp/counts.hpp"

namespace ssle::analysis {
namespace {

using core::Corruption;
using core::Params;

struct SampleStats {
  double mean = 0.0;
  double sd = 0.0;
};

SampleStats stats_of(const std::vector<double>& xs) {
  double sum = 0.0, sumsq = 0.0;
  for (const double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  const double var = sumsq / static_cast<double>(xs.size()) - mean * mean;
  return {mean, std::sqrt(std::max(0.0, var))};
}

class AdversarialEquivalence : public ::testing::TestWithParam<Corruption> {};

TEST_P(AdversarialEquivalence, RecoveryTimesMatchNaive) {
  const Corruption corruption = GetParam();
  const Params p = Params::make(16, 4);
  const std::uint64_t budget = 20 * default_budget(p);
  const int trials = 16;

  std::vector<double> naive, batched;
  for (int t = 0; t < trials; ++t) {
    const auto rn =
        stabilize(StartKind::kAdversarial, p, corruption, 500 + t, budget);
    ASSERT_TRUE(rn.converged)
        << corruption_name(corruption) << " naive seed " << 500 + t;
    EXPECT_EQ(rn.leaders, 1u);
    naive.push_back(static_cast<double>(rn.interactions));

    const auto rb = stabilize_batched(p, corruption, 7500 + t, budget);
    ASSERT_TRUE(rb.converged)
        << corruption_name(corruption) << " batched seed " << 7500 + t;
    EXPECT_EQ(rb.leaders, 1u);
    batched.push_back(static_cast<double>(rb.interactions));
  }

  const auto sn0 = stats_of(naive);
  const auto sb0 = stats_of(batched);
  if (sn0.mean == 0.0 && sb0.mean == 0.0) {
    // Both engines found every start already safe (kNone always; mild
    // classes like lost_messages can stay within C_safe at small n):
    // trivially equivalent, and kNone must land here by construction.
    return;
  }
  ASSERT_NE(corruption, Corruption::kNone);

  // Recovery time is heavy-tailed and 16 trials is modest, so the band is
  // wide; a biased projection or broken collision handling lands far
  // outside it (cf. the clean-start band in test_batched_simulator.cpp).
  const auto sn = stats_of(naive);
  const auto sb = stats_of(batched);
  EXPECT_GT(sb.mean, 0.3 * sn.mean)
      << corruption_name(corruption) << ": naive mean=" << sn.mean
      << " batched mean=" << sb.mean;
  EXPECT_LT(sb.mean, 3.0 * sn.mean)
      << corruption_name(corruption) << ": naive mean=" << sn.mean
      << " batched mean=" << sb.mean;
}

INSTANTIATE_TEST_SUITE_P(
    AllCorruptions, AdversarialEquivalence,
    ::testing::ValuesIn(core::all_corruptions()),
    [](const ::testing::TestParamInfo<Corruption>& info) {
      return core::corruption_name(info.param);
    });

TEST(AdversarialBatched, DeterministicPerSeed) {
  const Params p = Params::make(16, 8);
  const std::uint64_t budget = 8 * default_budget(p);
  const auto a = stabilize_batched(p, Corruption::kRandomStates, 3, budget);
  const auto b = stabilize_batched(p, Corruption::kRandomStates, 3, budget);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.leaders, b.leaders);
}

TEST(AdversarialBatched, ProjectionCountsEveryAgent) {
  // The counts projection of an adversarial configuration is a faithful
  // multiset: totals match n and every distinct state's multiplicity is
  // the number of agents carrying it.
  const Params p = Params::make(24, 6);
  util::Rng rng(util::substream(9, 77));
  const auto config =
      core::make_adversarial_config(p, Corruption::kRandomStates, rng);
  pp::CountsConfiguration<core::ElectLeader> counts(config);
  EXPECT_EQ(counts.population_size(), p.n);
  for (const auto& agent : config) {
    std::uint64_t expected = 0;
    for (const auto& other : config) expected += other == agent;
    EXPECT_EQ(counts.count_of(agent), expected);
  }
}

}  // namespace
}  // namespace ssle::analysis
