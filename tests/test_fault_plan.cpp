// FaultPlan subsystem tests: schedule grammar + hard validation (S1),
// runner accounting and recovery-cycle semantics, tiny-n TV law parity
// between the counts adapter and the naive adapter (Epidemic and
// LooseLeaderElection, and the two battery models), and checkpoint/resume
// determinism of full ElectLeader_r fault runs on both engines, including
// the resume-time checks on the fault cursor.
#include "analysis/churn.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "core/adversary.hpp"
#include "core/safety.hpp"
#include "pp/epidemic.hpp"

namespace ssle::analysis {
namespace {

using core::Params;

// --- grammar --------------------------------------------------------------

TEST(FaultPlanParse, FullGrammarRoundTrips) {
  const FaultPlan plan = parse_fault_plan(
      "corrupt:periodic:1000:4,leave:poisson:500:2,join:recovery:3,"
      "battery:8:2000:0.25",
      /*horizon=*/100000, /*probe_every=*/100);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].action, FaultAction::kCorrupt);
  EXPECT_EQ(plan.rules[0].timing, FaultTiming::kPeriodic);
  EXPECT_EQ(plan.rules[0].period, 1000u);
  EXPECT_EQ(plan.rules[0].count, 4u);
  EXPECT_EQ(plan.rules[1].action, FaultAction::kLeave);
  EXPECT_EQ(plan.rules[1].timing, FaultTiming::kPoisson);
  EXPECT_EQ(plan.rules[1].period, 500u);
  EXPECT_EQ(plan.rules[2].action, FaultAction::kJoin);
  EXPECT_EQ(plan.rules[2].timing, FaultTiming::kOnRecovery);
  EXPECT_EQ(plan.rules[2].count, 3u);
  EXPECT_EQ(plan.battery.levels, 8u);
  EXPECT_EQ(plan.battery.decay_every, 2000u);
  EXPECT_DOUBLE_EQ(plan.battery.decay_prob, 0.25);
  EXPECT_EQ(plan.horizon, 100000u);
  EXPECT_EQ(plan.probe_every, 100u);
}

TEST(FaultPlanParseDeath, GarbageRuleExits) {
  EXPECT_EXIT(parse_fault_plan("corrupt:sometimes:17", 1000, 10),
              ::testing::ExitedWithCode(2), "field: schedule");
}

TEST(FaultPlanParseDeath, EmptyScheduleExits) {
  EXPECT_EXIT(parse_fault_plan("", 1000, 10), ::testing::ExitedWithCode(2),
              "field: schedule");
}

TEST(FaultPlanParseDeath, NegativeCountExits) {
  EXPECT_EXIT(parse_fault_plan("corrupt:periodic:100:-3", 1000, 10),
              ::testing::ExitedWithCode(2), "field: schedule");
}

// --- S1: validation exits naming the field --------------------------------

FaultPlan corrupt_plan(std::uint64_t period, std::uint64_t count,
                       std::uint64_t horizon, std::uint64_t probe_every) {
  FaultPlan plan;
  plan.rules.push_back(
      {FaultAction::kCorrupt, FaultTiming::kPeriodic, period, count});
  plan.horizon = horizon;
  plan.probe_every = probe_every;
  return plan;
}

TEST(FaultPlanDeath, ZeroHorizonExits) {
  EXPECT_EXIT(validate_fault_plan(corrupt_plan(100, 1, 0, 10), 16),
              ::testing::ExitedWithCode(2), "field: horizon");
}

TEST(FaultPlanDeath, ZeroProbeEveryExits) {
  EXPECT_EXIT(validate_fault_plan(corrupt_plan(100, 1, 1000, 0), 16),
              ::testing::ExitedWithCode(2), "field: probe_every");
}

TEST(FaultPlanDeath, ZeroPeriodExits) {
  EXPECT_EXIT(validate_fault_plan(corrupt_plan(0, 1, 1000, 10), 16),
              ::testing::ExitedWithCode(2), "field: period");
}

TEST(FaultPlanDeath, BurstLargerThanPopulationExits) {
  EXPECT_EXIT(validate_fault_plan(corrupt_plan(100, 17, 1000, 10), 16),
              ::testing::ExitedWithCode(2), "field: count");
}

TEST(FaultPlanDeath, LeaveEmptyingPopulationExits) {
  FaultPlan plan;
  plan.rules.push_back(
      {FaultAction::kLeave, FaultTiming::kPeriodic, 100, 15});
  plan.horizon = 1000;
  plan.probe_every = 10;
  EXPECT_EXIT(validate_fault_plan(plan, 16), ::testing::ExitedWithCode(2),
              "field: count");
}

TEST(FaultPlanDeath, RepeatedLeavesDrainingPopulationExitAtRuntime) {
  // Statically fine (4 < 16 − 2) but with no joins the population drains;
  // the runtime guard in the runner must fire before it reaches 2.
  const Params p = Params::make(16, 8);
  FaultPlan plan;
  plan.rules.push_back({FaultAction::kLeave, FaultTiming::kPeriodic, 50, 4});
  plan.horizon = 100000;
  plan.probe_every = 100;
  EXPECT_EXIT(run_fault_plan(Engine::kBatched, p, plan, 5),
              ::testing::ExitedWithCode(2), "below 2");
}

TEST(FaultPlanDeath, BatteryWithoutDecayIntervalExits) {
  FaultPlan plan = corrupt_plan(100, 1, 1000, 10);
  plan.battery.levels = 4;
  EXPECT_EXIT(validate_fault_plan(plan, 16), ::testing::ExitedWithCode(2),
              "field: decay_every");
}

// --- runner accounting ----------------------------------------------------

TEST(FaultPlanRun, PeriodicCorruptionAccounting) {
  const Params p = Params::make(16, 8);
  const FaultPlan plan = corrupt_plan(1000, 3, 10000, 100);
  const FaultReport report = run_fault_plan(Engine::kBatched, p, plan, 4);
  EXPECT_EQ(report.events, 10u);
  EXPECT_EQ(report.agents_corrupted, 30u);
  EXPECT_EQ(report.probes, 100u);
  EXPECT_EQ(report.final_population, 16u);
  EXPECT_EQ(report.interactions, 10000u);
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.resumed);
}

TEST(FaultPlanRun, JoinAndLeaveTrackThePopulation) {
  const Params p = Params::make(16, 8);
  FaultPlan plan;
  plan.rules.push_back({FaultAction::kJoin, FaultTiming::kPeriodic, 500, 2});
  plan.horizon = 5000;
  plan.probe_every = 100;
  const FaultReport report = run_fault_plan(Engine::kBatched, p, plan, 7);
  EXPECT_EQ(report.agents_joined, 20u);
  EXPECT_EQ(report.final_population, 36u);

  FaultPlan churn = plan;
  churn.rules.push_back(
      {FaultAction::kLeave, FaultTiming::kPeriodic, 500, 2});
  const FaultReport balanced =
      run_fault_plan(Engine::kBatched, p, churn, 7);
  EXPECT_EQ(balanced.agents_joined, 20u);
  EXPECT_EQ(balanced.agents_left, 20u);
  EXPECT_EQ(balanced.final_population, 16u);
}

TEST(FaultPlanRun, BatteryDecayDrainsThePopulation) {
  const Params p = Params::make(32, 8);
  FaultPlan plan;
  plan.battery.levels = 3;
  plan.battery.decay_every = 1000;  // deterministic decay_prob = 1
  plan.horizon = 3500;              // 3 ticks: everyone reaches 0 at t=3000
  plan.probe_every = 100;
  EXPECT_EXIT(run_fault_plan(Engine::kBatched, p, plan, 3),
              ::testing::ExitedWithCode(2), "below 2");

  // With a slower clock only some ticks land inside the horizon.
  plan.horizon = 2500;  // 2 ticks: batteries at level 1, nobody drained
  const FaultReport report = run_fault_plan(Engine::kBatched, p, plan, 3);
  EXPECT_EQ(report.agents_drained, 0u);
  EXPECT_EQ(report.final_population, 32u);
}

TEST(FaultPlanRun, RecoveryCyclesAreRecorded) {
  const Params p = Params::make(16, 8);
  // Rare large bursts with a long quiet gap: the protocol should recover
  // between bursts, closing measurable cycles.
  FaultPlan plan;
  plan.rules.push_back({FaultAction::kCorrupt, FaultTiming::kPeriodic,
                        8 * default_budget(p) / 20, 4});
  plan.horizon = 6 * plan.rules[0].period;
  plan.probe_every = 64;
  const FaultReport report = run_fault_plan(Engine::kBatched, p, plan, 11);
  EXPECT_GT(report.recovery_times.size(), 0u);
  // Quantiles are ordered and bounded by the horizon.
  EXPECT_LE(report.recovery_quantile(0.5), report.recovery_quantile(0.95));
  EXPECT_LE(report.recovery_quantile(0.95), report.recovery_quantile(1.0));
  EXPECT_LE(report.recovery_quantile(1.0), plan.horizon);
}

TEST(FaultPlanRun, OnRecoveryScheduleKeepsPressure) {
  const Params p = Params::make(16, 8);
  FaultPlan plan;
  plan.rules.push_back(
      {FaultAction::kCorrupt, FaultTiming::kOnRecovery, 0, 2});
  plan.horizon = 20 * default_budget(p) / 20;
  plan.probe_every = 256;
  const FaultReport report = run_fault_plan(Engine::kBatched, p, plan, 13);
  // Every safe probe triggers a burst, so bursts ≈ safe probes (within 1:
  // the final probe's burst has no later probe to observe it).
  EXPECT_EQ(report.events, report.probes_safe);
  if (report.probes_safe > 0) {
    EXPECT_GT(report.agents_corrupted, 0u);
  }
}

TEST(FaultPlanRun, DeterministicPerSeedAndEngineRouting) {
  const Params p = Params::make(16, 8);
  const FaultPlan plan = corrupt_plan(2000, 2, 50000, 100);
  const FaultReport a = run_fault_plan(Engine::kBatched, p, plan, 9);
  const FaultReport b = run_fault_plan(Engine::kBatched, p, plan, 9);
  EXPECT_EQ(a.probes_safe, b.probes_safe);
  EXPECT_EQ(a.registry_fingerprint, b.registry_fingerprint);
  EXPECT_EQ(a.recovery_times, b.recovery_times);
  // kLeaping reroutes to the batched runner (loudly): the trajectory is
  // the batched one, bit for bit.
  const FaultReport c = run_fault_plan(Engine::kLeaping, p, plan, 9);
  EXPECT_EQ(a.registry_fingerprint, c.registry_fingerprint);
}

TEST(FaultPlanRun, WallClockStopReportsIncomplete) {
  const Params p = Params::make(16, 8);
  FaultPlan plan = corrupt_plan(1000, 1, ~std::uint64_t{0} / 2, 100);
  FaultRunOptions opts;
  opts.max_wall_seconds = 0.05;
  const FaultReport report =
      run_fault_plan(Engine::kBatched, p, plan, 21, opts);
  EXPECT_FALSE(report.completed);
  EXPECT_GT(report.interactions, 0u);
  EXPECT_LT(report.interactions, plan.horizon);
}

// --- the naive engine on ElectLeader_r ------------------------------------
// run_fault_plan(kNaive, …) runs the plan over the agent array with the
// uniform pair scheduler.  These pin its availability and accounting on
// the paper's protocol.

TEST(FaultPlanRun, NaiveNoFaultsIsFullyAvailable) {
  const Params p = Params::make(16, 8);
  FaultPlan plan;
  plan.horizon = 50000;
  plan.probe_every = 16;
  const FaultReport report = run_fault_plan(Engine::kNaive, p, plan, 1);
  EXPECT_EQ(report.events, 0u);
  EXPECT_DOUBLE_EQ(report.leader_availability(), 1.0);
  EXPECT_DOUBLE_EQ(report.safe_availability(), 1.0);
}

TEST(FaultPlanRun, NaiveRareFaultsRecoverToHighAvailability) {
  const Params p = Params::make(16, 8);
  const std::uint64_t period = 4 * default_budget(p) / 20;
  const FaultReport report = run_fault_plan(
      Engine::kNaive, p, corrupt_plan(period, 1, 12 * period, 16), 2);
  EXPECT_GT(report.events, 10u);
  EXPECT_GT(report.leader_availability(), 0.60);
}

TEST(FaultPlanRun, NaiveHeavyChurnDegradesButCompletes) {
  const Params p = Params::make(16, 4);
  const FaultReport report = run_fault_plan(
      Engine::kNaive, p, corrupt_plan(2000, 4, 400000, 16), 3);
  EXPECT_GT(report.events, 100u);
  // Under heavy churn availability drops, but the run completes.
  EXPECT_LT(report.leader_availability(), 1.0);
  EXPECT_TRUE(report.completed);
  EXPECT_GT(report.probes, 0u);
}

TEST(FaultPlanRun, NaiveCorruptionAccounting) {
  const Params p = Params::make(16, 8);
  const FaultReport report = run_fault_plan(
      Engine::kNaive, p, corrupt_plan(1000, 3, 10000, 100), 4);
  EXPECT_EQ(report.events, 10u);
  EXPECT_EQ(report.agents_corrupted, 30u);
  EXPECT_EQ(report.probes, 100u);
}

TEST(FaultPlanRun, NaiveDeterministicPerSeed) {
  const Params p = Params::make(16, 8);
  const FaultPlan plan = corrupt_plan(5000, 2, 100000, 16);
  const FaultReport a = run_fault_plan(Engine::kNaive, p, plan, 9);
  const FaultReport b = run_fault_plan(Engine::kNaive, p, plan, 9);
  EXPECT_EQ(a.probes_with_unique_leader, b.probes_with_unique_leader);
  EXPECT_EQ(a.probes_safe, b.probes_safe);
  EXPECT_EQ(a.recovery_times, b.recovery_times);
}

TEST(FaultPlanRun, NaiveGolden) {
  // Pins the naive runner's trajectory (the pair draw, the agent
  // stream and the fault stream) to values recorded from the branchy
  // skip-self draw.  Leaves and joins move the live population, so the
  // draw runs over several sizes.  The final configuration comes from
  // run_fault_plan_naive with the same model run_fault_plan builds.
  const Params p = Params::make(16, 8);
  const FaultPlan plan = parse_fault_plan(
      "corrupt:periodic:5000:2,leave:periodic:20000:2,join:periodic:30000:2",
      /*horizon=*/100000, /*probe_every=*/16);
  const FaultReport report = run_fault_plan(Engine::kNaive, p, plan, 9);
  EXPECT_EQ(report.interactions, 100000u);
  EXPECT_EQ(report.final_population, 12u);
  EXPECT_EQ(report.probes_safe, 991u);
  EXPECT_EQ(report.recovery_times,
            (std::vector<std::uint64_t>{2952, 2848, 2952, 12496, 2904}));

  const core::ElectLeader protocol(p);
  NaiveFaultModel<core::ElectLeader> model;
  model.corrupt_state = [&p](util::Rng& rng) {
    return core::random_agent(p, rng);
  };
  model.join_state = [&protocol] { return protocol.initial_state(0); };
  model.safe = [&p](const std::vector<core::Agent>& config) {
    return core::is_safe_configuration(p, config);
  };
  model.unique_leader = [](const std::vector<core::Agent>& config) {
    return core::leader_count(config) == 1;
  };
  std::vector<core::Agent> final_config;
  const FaultReport twin = run_fault_plan_naive(
      protocol, core::make_safe_config(p), plan, 9, model, {}, &final_config);
  EXPECT_EQ(twin.interactions, report.interactions);
  EXPECT_EQ(twin.recovery_times, report.recovery_times);
  std::uint64_t h = 1469598103934665603ull;
  for (const core::Agent& a : final_config) {
    h ^= std::hash<core::Agent>{}(a);
    h *= 1099511628211ull;
  }
  EXPECT_EQ(h, 0x1fe48b78e0718bd5ull);
}

TEST(FaultPlanRun, NaiveFingerprintHashesTheFinalAgentArray) {
  // NaiveGolden's plan and seed: the report carries the same FNV-1a over
  // the final agent array that NaiveGolden recomputes by hand.
  const Params p = Params::make(16, 8);
  const FaultPlan plan = parse_fault_plan(
      "corrupt:periodic:5000:2,leave:periodic:20000:2,join:periodic:30000:2",
      /*horizon=*/100000, /*probe_every=*/16);
  EXPECT_EQ(run_fault_plan(Engine::kNaive, p, plan, 9).registry_fingerprint,
            0x1fe48b78e0718bd5ull);
}

// --- quantiles ------------------------------------------------------------

TEST(FaultReportQuantiles, NearestRank) {
  FaultReport report;
  report.recovery_times = {50, 10, 40, 20, 30};
  EXPECT_EQ(report.recovery_quantile(0.0), 10u);
  EXPECT_EQ(report.recovery_quantile(0.5), 30u);
  EXPECT_EQ(report.recovery_quantile(0.95), 50u);
  EXPECT_EQ(report.recovery_quantile(1.0), 50u);
  FaultReport empty;
  EXPECT_EQ(empty.recovery_quantile(0.5), 0u);
}

// --- tiny-n TV parity: counts adapter vs naive adapter --------------------

double tv_distance(const std::map<std::uint64_t, int>& a,
                   const std::map<std::uint64_t, int>& b, int trials) {
  std::map<std::uint64_t, double> diff;
  for (const auto& [k, c] : a) diff[k] += static_cast<double>(c) / trials;
  for (const auto& [k, c] : b) diff[k] -= static_cast<double>(c) / trials;
  double tv = 0.0;
  for (const auto& [k, d] : diff) tv += std::abs(d);
  return tv / 2.0;
}

TEST(FaultPlanParity, EpidemicUnderCorruptionMatchesNaiveLaw) {
  // Epidemic with corrupt = "re-susceptible a random agent": the number of
  // infected agents at the horizon is a scalar whose law both runners must
  // share.  n = 6 keeps the counts engine in its tiny-block regime.
  const std::uint32_t n = 6;
  const int trials = 2500;
  const pp::Epidemic protocol{n};
  FaultPlan plan;
  plan.rules.push_back(
      {FaultAction::kCorrupt, FaultTiming::kPoisson, 7, 1});
  plan.horizon = 40;
  plan.probe_every = 10;

  FaultModel<pp::Epidemic> counts_model;
  counts_model.corrupt_state = [](util::Rng&) { return 0; };
  counts_model.safe = [n](const pp::CountsConfiguration<pp::Epidemic>& c) {
    return c.count_of(0) == 0 && c.population_size() == n;
  };
  NaiveFaultModel<pp::Epidemic> naive_model;
  naive_model.corrupt_state = [](util::Rng&) { return 0; };
  naive_model.safe = [n](const std::vector<int>& config) {
    if (config.size() != n) return false;
    for (const int s : config) {
      if (s == 0) return false;
    }
    return true;
  };

  std::map<std::uint64_t, int> pmf_counts, pmf_naive;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> init(n, 0);
    init[0] = 1;
    pp::CountsConfiguration<pp::Epidemic> start(init);
    pp::CountsConfiguration<pp::Epidemic> final_counts(std::vector<int>{});
    run_fault_plan_counts(protocol, std::move(start), plan,
                          static_cast<std::uint64_t>(1000 + t), counts_model,
                          {}, &final_counts);
    ++pmf_counts[n - final_counts.count_of(0)];

    std::vector<int> naive_start(n, 0);
    naive_start[0] = 1;
    std::vector<int> final_naive;
    run_fault_plan_naive(protocol, std::move(naive_start), plan,
                         static_cast<std::uint64_t>(501000 + t), naive_model,
                         {}, &final_naive);
    std::uint64_t infected = 0;
    for (const int s : final_naive) infected += s == 1 ? 1 : 0;
    ++pmf_naive[infected];
  }
  const double tv = tv_distance(pmf_counts, pmf_naive, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(FaultPlanParity, LooseLeaderUnderChurnMatchesNaiveLaw) {
  // LooseLeaderElection under join/leave churn: compare the law of the
  // leader count at the horizon.  Corruption promotes a random agent to a
  // fresh leader (timer full), the nastiest single-agent fault here.
  const std::uint32_t n = 6;
  const int trials = 2500;
  const baselines::LooseLeaderElection protocol(n);
  using State = baselines::LooseLeaderElection::State;
  FaultPlan plan;
  plan.rules.push_back(
      {FaultAction::kCorrupt, FaultTiming::kPeriodic, 11, 1});
  plan.rules.push_back({FaultAction::kLeave, FaultTiming::kPeriodic, 17, 1});
  plan.rules.push_back({FaultAction::kJoin, FaultTiming::kPeriodic, 17, 1});
  plan.horizon = 100;
  plan.probe_every = 25;

  const auto corrupt = [&](util::Rng&) {
    return State{true, protocol.timeout()};
  };
  const auto join = [&] { return protocol.initial_state(0); };
  FaultModel<baselines::LooseLeaderElection> counts_model;
  counts_model.corrupt_state = corrupt;
  counts_model.join_state = join;
  counts_model.safe =
      [](const pp::CountsConfiguration<baselines::LooseLeaderElection>& c) {
        return c.count_if(baselines::LooseLeaderElection::is_leader) == 1;
      };
  NaiveFaultModel<baselines::LooseLeaderElection> naive_model;
  naive_model.corrupt_state = corrupt;
  naive_model.join_state = join;
  naive_model.safe = [&](const std::vector<State>& config) {
    std::uint32_t leaders = 0;
    for (const State& s : config) leaders += s.leader ? 1 : 0;
    return leaders == 1;
  };

  std::map<std::uint64_t, int> pmf_counts, pmf_naive;
  for (int t = 0; t < trials; ++t) {
    std::vector<State> start(n);
    pp::CountsConfiguration<baselines::LooseLeaderElection> counts_start(
        start);
    pp::CountsConfiguration<baselines::LooseLeaderElection> final_counts(
        std::vector<State>{});
    run_fault_plan_counts(protocol, std::move(counts_start), plan,
                          static_cast<std::uint64_t>(3000 + t), counts_model,
                          {}, &final_counts);
    ++pmf_counts[final_counts.count_if(
        baselines::LooseLeaderElection::is_leader)];

    std::vector<State> final_naive;
    run_fault_plan_naive(protocol, start, plan,
                         static_cast<std::uint64_t>(703000 + t), naive_model,
                         {}, &final_naive);
    std::uint64_t leaders = 0;
    for (const State& s : final_naive) leaders += s.leader ? 1 : 0;
    ++pmf_naive[leaders];
  }
  const double tv = tv_distance(pmf_counts, pmf_naive, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

TEST(FaultPlanParity, BatteryDropoutMatchesNaiveLaw) {
  // The counts adapter lumps charges into a histogram and decays each
  // level by one binomial draw; the naive adapter decays every agent's
  // own charge.  Compare the law of the final population.  One joiner per
  // decay tick (joins run first) keeps every tick's deaths at least 2
  // below the population, so the dropout guard never fires.
  const std::uint32_t n = 6;
  const int trials = 2500;
  const pp::Epidemic protocol{n};
  const FaultPlan plan =
      parse_fault_plan("join:periodic:10:1,battery:3:10:0.5",
                       /*horizon=*/60, /*probe_every=*/10);

  FaultModel<pp::Epidemic> counts_model;
  counts_model.join_state = [] { return 0; };
  counts_model.safe = [](const pp::CountsConfiguration<pp::Epidemic>&) {
    return true;
  };
  NaiveFaultModel<pp::Epidemic> naive_model;
  naive_model.join_state = [] { return 0; };
  naive_model.safe = [](const std::vector<int>&) { return true; };

  std::map<std::uint64_t, int> pmf_counts, pmf_naive;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> init(n, 0);
    init[0] = 1;
    const FaultReport counts = run_fault_plan_counts(
        protocol, pp::CountsConfiguration<pp::Epidemic>(init), plan,
        static_cast<std::uint64_t>(5000 + t), counts_model);
    ++pmf_counts[counts.final_population];
    const FaultReport naive =
        run_fault_plan_naive(protocol, init, plan,
                             static_cast<std::uint64_t>(905000 + t),
                             naive_model);
    ++pmf_naive[naive.final_population];
  }
  // Some trials must drain agents (6 joins, no leaves).
  EXPECT_LT(pmf_counts.begin()->first, n + 6u);
  EXPECT_LT(pmf_naive.begin()->first, n + 6u);
  const double tv = tv_distance(pmf_counts, pmf_naive, trials);
  EXPECT_LT(tv, 0.1) << "total variation distance " << tv;
}

// --- checkpoint / resume determinism --------------------------------------

std::string temp_checkpoint_path(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "fault_" + info->name() + "_" + name +
         ".ckpt";
}

constexpr Engine kFaultEngines[] = {Engine::kBatched, Engine::kNaive};

void expect_same_run(const FaultReport& a, const FaultReport& b) {
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.probes_safe, b.probes_safe);
  EXPECT_EQ(a.probes_with_unique_leader, b.probes_with_unique_leader);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.agents_corrupted, b.agents_corrupted);
  EXPECT_EQ(a.agents_joined, b.agents_joined);
  EXPECT_EQ(a.agents_left, b.agents_left);
  EXPECT_EQ(a.agents_drained, b.agents_drained);
  EXPECT_EQ(a.interactions, b.interactions);
  EXPECT_EQ(a.final_population, b.final_population);
  EXPECT_EQ(a.recovery_times, b.recovery_times);
  EXPECT_EQ(a.registry_fingerprint, b.registry_fingerprint);
}

TEST(FaultPlanCheckpoint, ResumeContinuesBitIdentically) {
  const Params p = Params::make(16, 8);
  // Churn and a battery too, so the cursor carries every part of the
  // schedule across the resume.
  const FaultPlan plan = parse_fault_plan(
      "corrupt:periodic:2000:2,leave:periodic:5000:1,join:periodic:5000:1,"
      "battery:8:10000:0.3",
      /*horizon=*/60000, /*probe_every=*/100);
  const std::uint64_t seed = 77;

  for (const Engine engine : kFaultEngines) {
    SCOPED_TRACE(engine_name(engine));
    // Reference: one uninterrupted run WITH checkpointing (saving
    // canonicalizes the counts engine, so only checkpointed runs compare
    // bit-identically).
    const std::string ref_path = temp_checkpoint_path("ref");
    std::remove(ref_path.c_str());
    FaultRunOptions ref_opts;
    ref_opts.checkpoint_path = ref_path;
    ref_opts.checkpoint_every = 10000;
    const FaultReport full = run_fault_plan(engine, p, plan, seed, ref_opts);
    ASSERT_TRUE(full.completed);
    EXPECT_NE(full.registry_fingerprint, 0u);

    // Interrupted twin: run the first half against a SHORTER horizon (the
    // checkpoint grid is identical), then resume the full plan from its
    // last checkpoint.
    const std::string cut_path = temp_checkpoint_path("cut");
    std::remove(cut_path.c_str());
    FaultPlan half = plan;
    half.horizon = 30000;
    FaultRunOptions cut_opts;
    cut_opts.checkpoint_path = cut_path;
    cut_opts.checkpoint_every = 10000;
    const FaultReport first_half =
        run_fault_plan(engine, p, half, seed, cut_opts);
    ASSERT_TRUE(first_half.completed);
    const FaultReport resumed =
        run_fault_plan(engine, p, plan, seed, cut_opts);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_TRUE(resumed.completed);
    expect_same_run(full, resumed);
    // Naive saves leave the engine as it is, so checkpointing does not
    // move the trajectory at all.
    if (engine == Engine::kNaive) {
      expect_same_run(full, run_fault_plan(engine, p, plan, seed));
    }
    std::remove(ref_path.c_str());
    std::remove(cut_path.c_str());
  }
}

TEST(FaultPlanCheckpoint, ResumingAFinishedRunIsANoOp) {
  const Params p = Params::make(16, 8);
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  for (const Engine engine : kFaultEngines) {
    SCOPED_TRACE(engine_name(engine));
    const std::string path = temp_checkpoint_path("done");
    std::remove(path.c_str());
    FaultRunOptions opts;
    opts.checkpoint_path = path;
    opts.checkpoint_every = 5000;
    const FaultReport first = run_fault_plan(engine, p, plan, 5, opts);
    const FaultReport again = run_fault_plan(engine, p, plan, 5, opts);
    EXPECT_FALSE(first.resumed);
    EXPECT_TRUE(again.resumed);
    expect_same_run(first, again);
    std::remove(path.c_str());
  }
}

TEST(FaultPlanCheckpoint, NaiveResumesBitIdenticallyAfterSigkill) {
  // A real kill −9: a forked child runs the ElectLeader_r soak plan on
  // naive with checkpoints and is SIGKILLed once its file holds the third
  // save; resuming from that file must end exactly where an uninterrupted
  // run ends.
  const Params p = Params::make(64, 8);
  const FaultPlan plan = parse_fault_plan(
      "corrupt:recovery:4,leave:periodic:1000000:2,join:periodic:1000000:2",
      /*horizon=*/20000000, /*probe_every=*/640);
  const std::uint64_t every = 400000;
  const std::uint64_t seed = 31;
  FaultRunOptions opts;
  opts.checkpoint_every = every;
  opts.checkpoint_path = temp_checkpoint_path("full");
  std::remove(opts.checkpoint_path.c_str());
  const FaultReport full = run_fault_plan(Engine::kNaive, p, plan, seed, opts);
  ASSERT_TRUE(full.completed);
  ASSERT_GT(full.recovery_times.size(), 0u);

  opts.checkpoint_path = temp_checkpoint_path("killed");
  std::remove(opts.checkpoint_path.c_str());
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    run_fault_plan(Engine::kNaive, p, plan, seed, opts);
    _exit(0);
  }
  std::uint64_t killed_at = 0;
  for (int i = 0; i < 60000 && killed_at < 3 * every; ++i) {
    if (const auto doc = obs::checkpoint_load(opts.checkpoint_path)) {
      killed_at = doc->interactions;
    }
    if (killed_at < 3 * every) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  kill(child, SIGKILL);
  waitpid(child, nullptr, 0);
  const auto doc = obs::checkpoint_load(opts.checkpoint_path);
  ASSERT_TRUE(doc.has_value());
  ASSERT_GE(doc->interactions, 3 * every);
  ASSERT_LT(doc->interactions, plan.horizon) << "the child finished first";

  const FaultReport resumed =
      run_fault_plan(Engine::kNaive, p, plan, seed, opts);
  EXPECT_TRUE(resumed.resumed);
  expect_same_run(full, resumed);
  std::remove(opts.checkpoint_path.c_str());
  std::remove(temp_checkpoint_path("full").c_str());
}

// --- resume-time checks: a checkpoint no run of this engine could write --

/// Runs `plan` with checkpoints to its horizon and returns the file.
std::string finished_checkpoint(Engine engine, const FaultPlan& plan,
                                const char* name) {
  const std::string path = temp_checkpoint_path(name);
  std::remove(path.c_str());
  FaultRunOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 5000;
  run_fault_plan(engine, Params::make(16, 8), plan, 3, opts);
  return path;
}

/// Applies `edit` to the fault cursor of the checkpoint at `path`.
template <typename Edit>
void edit_cursor(const std::string& path, Edit edit) {
  auto doc = obs::checkpoint_load(path);
  ASSERT_TRUE(doc && doc->cursor);
  auto cur = fault_cursor_from_json(*doc->cursor);
  ASSERT_TRUE(cur);
  edit(*cur);
  doc->cursor = fault_cursor_to_json(*cur);
  ASSERT_TRUE(obs::checkpoint_save(path, *doc));
}

void expect_resume_exits(Engine engine, const FaultPlan& plan,
                         const std::string& path, const char* message) {
  FaultRunOptions opts;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 5000;
  EXPECT_EXIT(run_fault_plan(engine, Params::make(16, 8), plan, 3, opts),
              ::testing::ExitedWithCode(2), message);
}

TEST(FaultPlanCheckpointDeath, CheckpointOfTheOtherEngineDoesNotRestore) {
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  const std::string batched =
      finished_checkpoint(Engine::kBatched, plan, "batched");
  expect_resume_exits(Engine::kNaive, plan, batched, "does not restore");
  const std::string naive = finished_checkpoint(Engine::kNaive, plan, "naive");
  expect_resume_exits(Engine::kBatched, plan, naive, "does not restore");
  std::remove(batched.c_str());
  std::remove(naive.c_str());
}

TEST(FaultPlanCheckpointDeath, UnreadableCheckpointExitsAndIsKept) {
  // A file that exists but does not parse is not a missing checkpoint:
  // starting fresh would overwrite it.
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  const std::string truncated =
      R"({"kind": "ssle-checkpoint", "v": 1, "engine": "na)";
  for (const Engine engine : kFaultEngines) {
    const std::string path = temp_checkpoint_path("truncated");
    { std::ofstream(path) << truncated; }
    expect_resume_exits(engine, plan, path,
                        "checkpoint at .*truncated.* \\(field: checkpoint\\)");
    std::ifstream in(path);
    std::ostringstream left;
    left << in.rdbuf();
    EXPECT_EQ(left.str(), truncated);
    std::remove(path.c_str());
  }
}

TEST(FaultPlanCheckpointDeath, RuleTimerNotAfterTheClockExits) {
  // next[i] <= t would make the loop's next stop lie in the past.
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  for (const Engine engine : kFaultEngines) {
    const std::string path = finished_checkpoint(engine, plan, "next");
    edit_cursor(path, [](FaultCursor& cur) { cur.next[0] = cur.t; });
    expect_resume_exits(engine, plan, path, "field: next");
    std::remove(path.c_str());
  }
}

TEST(FaultPlanCheckpointDeath, CycleStartAfterTheClockExits) {
  // An open cycle starting in the future would wrap its recovery sample.
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  const std::string path = finished_checkpoint(Engine::kBatched, plan, "cycle");
  edit_cursor(path, [](FaultCursor& cur) {
    cur.in_cycle = true;
    cur.cycle_start = cur.t + 1;
  });
  expect_resume_exits(Engine::kBatched, plan, path, "field: cycle_start");
  std::remove(path.c_str());
}

TEST(FaultPlanCheckpointDeath, LastCheckpointAfterTheClockExits) {
  const FaultPlan plan = corrupt_plan(2000, 2, 20000, 100);
  const std::string path = finished_checkpoint(Engine::kNaive, plan, "last");
  edit_cursor(path,
              [](FaultCursor& cur) { cur.last_checkpoint = cur.t + 1; });
  expect_resume_exits(Engine::kNaive, plan, path, "field: last_checkpoint");
  std::remove(path.c_str());
}

TEST(FaultPlanCheckpointDeath, BatteryNotMatchingThePopulationExits) {
  // The counts histogram must total n; the naive battery holds one charge
  // per agent.
  const FaultPlan plan = parse_fault_plan(
      "corrupt:periodic:2000:2,battery:4:3000:0.5", 20000, 100);
  for (const Engine engine : kFaultEngines) {
    const std::string path = finished_checkpoint(engine, plan, "battery");
    edit_cursor(path, [](FaultCursor& cur) { cur.battery.push_back(1); });
    expect_resume_exits(engine, plan, path, "field: battery");
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ssle::analysis
