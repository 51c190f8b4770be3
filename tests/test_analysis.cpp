#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/census.hpp"
#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"

namespace ssle::analysis {
namespace {

using core::Corruption;
using core::Params;

TEST(Sweep, AggregatesAndCountsFailures) {
  const SweepResult res = sweep(0, 10, [](std::uint64_t seed) {
    return seed % 3 == 0 ? -1.0 : static_cast<double>(seed);
  });
  EXPECT_EQ(res.failures, 4u);  // seeds 0, 3, 6, 9
  EXPECT_EQ(res.samples.size(), 6u);
  EXPECT_GT(res.summary.mean, 0.0);
}

TEST(Sweep, AllConvergedNoFailures) {
  const SweepResult res =
      sweep(100, 5, [](std::uint64_t) { return 1.0; });
  EXPECT_EQ(res.failures, 0u);
  EXPECT_DOUBLE_EQ(res.summary.mean, 1.0);
}

TEST(Sweep, NanIsAFailureNotASample) {
  // Regression: `value < 0.0` is false for NaN, so a NaN measurement used
  // to land in the samples and poison mean/stddev/percentiles.
  const SweepResult res = sweep(0, 4, [](std::uint64_t seed) {
    return seed == 1 ? std::numeric_limits<double>::quiet_NaN() : 2.5;
  });
  EXPECT_EQ(res.failures, 1u);
  EXPECT_EQ(res.samples.size(), 3u);
  EXPECT_DOUBLE_EQ(res.summary.mean, 2.5);
  EXPECT_TRUE(std::isfinite(res.summary.stddev));
}

TEST(Sweep, InfinityIsAFailureNotASample) {
  const SweepResult res = sweep(0, 3, [](std::uint64_t seed) {
    return seed == 0 ? std::numeric_limits<double>::infinity() : 4.0;
  });
  EXPECT_EQ(res.failures, 1u);
  EXPECT_EQ(res.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(res.summary.mean, 4.0);
}

TEST(Measure, DefaultBudgetScalesInverselyWithR) {
  const auto slow = default_budget(Params::make(128, 2));
  const auto fast = default_budget(Params::make(128, 64));
  EXPECT_GT(slow, fast);
}

TEST(Measure, CleanStabilizationReportsParallelTime) {
  const Params p = Params::make(16, 8);
  const auto res = stabilize(p, 3, default_budget(p));
  ASSERT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(res.parallel_time,
                   static_cast<double>(res.interactions) / p.n);
  EXPECT_EQ(res.leaders, 1u);
}

TEST(Measure, NonConvergenceReported) {
  const Params p = Params::make(16, 8);
  // Ridiculously small budget: cannot converge.
  const auto res = stabilize(p, 3, 10);
  EXPECT_FALSE(res.converged);
}

TEST(Measure, AdversarialUsesDistinctGeneratorStream) {
  const Params p = Params::make(16, 8);
  const auto a =
      stabilize(StartKind::kAdversarial, p, Corruption::kNone,
                3, default_budget(p));
  // kNone is already safe: zero interactions needed.
  EXPECT_TRUE(a.converged);
  EXPECT_EQ(a.interactions, 0u);
}

TEST(Census, CountsRolesAndMessages) {
  const Params p = Params::make(16, 8);
  const auto config = core::make_safe_config(p);
  const Census c = take_census(p, config);
  EXPECT_EQ(c.verifiers, 16u);
  EXPECT_EQ(c.rankers, 0u);
  EXPECT_EQ(c.resetters, 0u);
  EXPECT_EQ(c.leaders, 1u);
  EXPECT_EQ(c.errors, 0u);
  EXPECT_EQ(c.distinct_generations, 1u);
  EXPECT_EQ(c.max_rank_multiplicity, 1u);
  // Total circulating messages = Σ_groups m · ids_per_rank.
  std::uint64_t expected = 0;
  for (std::uint32_t g = 0; g < p.num_groups(); ++g) {
    expected += static_cast<std::uint64_t>(p.group_size(g)) *
                p.ids_per_rank(g);
  }
  EXPECT_EQ(c.total_messages, expected);
  EXPECT_GT(c.approx_bytes, 0u);
}

TEST(Census, DetectsDuplicatesAndErrors) {
  const Params p = Params::make(16, 8);
  auto config = core::make_safe_config(p);
  config[3].rank = config[4].rank;
  config[5].sv.dc.error = true;
  const Census c = take_census(p, config);
  EXPECT_EQ(c.max_rank_multiplicity, 2u);
  EXPECT_EQ(c.errors, 1u);
}

TEST(Banner, PrintsAllFields) {
  std::ostringstream captured;
  auto* old = std::cout.rdbuf(captured.rdbuf());
  print_banner("F1", "claim text", "prediction text");
  std::cout.rdbuf(old);
  const std::string out = captured.str();
  EXPECT_NE(out.find("F1"), std::string::npos);
  EXPECT_NE(out.find("claim text"), std::string::npos);
  EXPECT_NE(out.find("prediction text"), std::string::npos);
}

}  // namespace
}  // namespace ssle::analysis
