// The thread-pool experiment runner: parallel_sweep must be bit-identical
// to serial sweep for every jobs count (on a synthetic measure and on real
// ElectLeader_r stabilization runs), and both must classify negative and
// non-finite measurements as failures.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/params.hpp"

namespace ssle::analysis {
namespace {

/// A deterministic measure with some spread and some failures.
double spiky_measure(std::uint64_t seed) {
  if (seed % 7 == 3) return -1.0;  // non-converged
  return static_cast<double>((seed * 2654435761u) % 1000) + 0.25;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.failures, b.failures);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.summary.count, b.summary.count);
  EXPECT_EQ(a.summary.mean, b.summary.mean);
  EXPECT_EQ(a.summary.stddev, b.summary.stddev);
  EXPECT_EQ(a.summary.min, b.summary.min);
  EXPECT_EQ(a.summary.max, b.summary.max);
  EXPECT_EQ(a.summary.median, b.summary.median);
  EXPECT_EQ(a.summary.p10, b.summary.p10);
  EXPECT_EQ(a.summary.p90, b.summary.p90);
}

TEST(ParallelSweep, BitIdenticalToSerialForAnyJobs) {
  const auto serial = sweep(42, 33, spiky_measure);
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    const auto par = parallel_sweep(42, 33, spiky_measure, jobs);
    expect_identical(serial, par);
  }
}

TEST(ParallelSweep, ElectLeaderStabilizationIsBitIdenticalToSerial) {
  // Real protocol code on the pool: every trial builds its own engine and
  // RNG streams from its seed, so the parallel result is the serial one.
  const core::Params params = core::Params::make(32, 16);
  const auto measure = [&](std::uint64_t seed) {
    const auto run = stabilize(params, seed, default_budget(params));
    return run.converged ? static_cast<double>(run.interactions) : -1.0;
  };
  const auto serial = sweep(7, 8, measure);
  EXPECT_EQ(serial.failures, 0u);
  for (const std::size_t jobs : {1u, 2u, 8u}) {
    expect_identical(serial, parallel_sweep(7, 8, measure, jobs));
  }
}

TEST(ParallelSweep, AutoJobsMatchesSerial) {
  const auto serial = sweep(7, 17, spiky_measure);
  const auto par = parallel_sweep(7, 17, spiky_measure, /*jobs=*/0);
  expect_identical(serial, par);
}

TEST(ParallelSweep, MoreJobsThanTrials) {
  const auto serial = sweep(5, 3, spiky_measure);
  const auto par = parallel_sweep(5, 3, spiky_measure, 64);
  expect_identical(serial, par);
}

TEST(ParallelSweep, ZeroTrials) {
  const auto res = parallel_sweep(0, 0, spiky_measure, 4);
  EXPECT_EQ(res.failures, 0u);
  EXPECT_TRUE(res.samples.empty());
  EXPECT_EQ(res.summary.count, 0u);
}

TEST(ParallelSweep, SamplesArriveInSeedOrder) {
  const auto res = parallel_sweep(
      0, 20, [](std::uint64_t seed) { return static_cast<double>(seed); }, 8);
  ASSERT_EQ(res.samples.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(res.samples[i], static_cast<double>(i));
  }
}

TEST(ParallelSweep, ActuallyRunsConcurrently) {
  // With 4 jobs and 4 trials that each wait for all four to have started,
  // the sweep can only finish if the trials really run on distinct threads.
  std::atomic<int> started{0};
  const auto res = parallel_sweep(
      0, 4,
      [&](std::uint64_t) {
        started.fetch_add(1);
        while (started.load() < 4) std::this_thread::yield();
        return 1.0;
      },
      4);
  EXPECT_EQ(res.samples.size(), 4u);
}

// --- NaN / non-finite regression (a NaN trial used to poison the mean) ---

TEST(ParallelSweep, NanCountsAsFailureNotSample) {
  const auto measure = [](std::uint64_t seed) {
    if (seed == 2) return std::numeric_limits<double>::quiet_NaN();
    return 10.0;
  };
  for (const std::size_t jobs : {1u, 4u}) {
    const auto res = parallel_sweep(0, 5, measure, jobs);
    EXPECT_EQ(res.failures, 1u);
    EXPECT_EQ(res.samples.size(), 4u);
    EXPECT_DOUBLE_EQ(res.summary.mean, 10.0);
    EXPECT_TRUE(std::isfinite(res.summary.mean));
  }
}

TEST(ParallelSweep, InfinityCountsAsFailureNotSample) {
  const auto measure = [](std::uint64_t seed) {
    if (seed == 0) return std::numeric_limits<double>::infinity();
    if (seed == 1) return -std::numeric_limits<double>::infinity();
    return 3.0;
  };
  const auto res = parallel_sweep(0, 4, measure, 2);
  EXPECT_EQ(res.failures, 2u);
  EXPECT_EQ(res.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(res.summary.mean, 3.0);
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(3), 3u);
}

TEST(ResolveJobs, EffectiveJobsClampsToTrials) {
  EXPECT_EQ(effective_jobs(8, 3), 3u);
  EXPECT_EQ(effective_jobs(2, 100), 2u);
  EXPECT_EQ(effective_jobs(4, 0), 1u);  // never reports 0 workers
  EXPECT_GE(effective_jobs(0, 1000), 1u);
}

TEST(ParallelSweep, WorkerExceptionPropagatesLikeSerial) {
  const auto thrower = [](std::uint64_t seed) -> double {
    if (seed == 3) throw std::runtime_error("trial blew up");
    return 1.0;
  };
  EXPECT_THROW(parallel_sweep(0, 8, thrower, 1), std::runtime_error);
  EXPECT_THROW(parallel_sweep(0, 8, thrower, 4), std::runtime_error);
}

}  // namespace
}  // namespace ssle::analysis
