// Experiment M1 — engine micro-benchmarks (google-benchmark): raw
// interaction throughput of each protocol, the scheduler, the heavy
// DetectCollision inner loops, and a per-interaction cost breakdown of the
// batched engine's hot path (state copy vs hash vs Fenwick update vs δ
// call vs intern vs δ-cache lookup), and the leaping engine's per-window
// binomial draw, so end-to-end engine ratios can be decomposed into their
// components.  Not a paper claim; establishes the simulation cost model
// used to size the other experiments.
//
// `--json=<path>` maps to google-benchmark's JSON reporter
// (--benchmark_out=<path> --benchmark_out_format=json), matching the
// structured-output flag of the plain bench binaries.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cai_izumi_wada.hpp"
#include "baselines/loose_leader.hpp"
#include "baselines/silent_ssr.hpp"
#include "core/adversary.hpp"
#include "core/derandomized.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/delta_cache.hpp"
#include "pp/interner.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssle;

void BM_Scheduler(benchmark::State& state) {
  pp::UniformScheduler sched(static_cast<std::uint32_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.next());
  }
}
BENCHMARK(BM_Scheduler)->Arg(64)->Arg(1024);

// The silent pair of a clean start (two kRanked rankers ticking their
// countdowns) in the engine's own loop, Simulator<ElectLeader>::step, which
// runs it on the packed lane (pp::SilentLane).
// BM_Scheduler times next() alone, and GCC compiles that loop differently
// from next() inlined into step, so only this one sees the pair's cost.
void BM_NaiveSilentPair(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::Params params =
      core::Params::make(n, 64, core::MessageMultiplicity::kLight);
  const core::ElectLeader protocol(params);
  core::Agent ranker = protocol.initial_state(0);
  ranker.ar.type = core::ArType::kRanked;
  ranker.countdown = params.countdown_max;
  pp::Simulator<core::ElectLeader> sim(
      protocol,
      pp::Population<core::ElectLeader>(std::vector<core::Agent>(n, ranker)),
      1);
  // A chunk of n pairs ticks each countdown twice on average, so refilling
  // every C_max/8 chunks keeps every pair silent; the refill checks that.
  const std::uint64_t refill_every =
      std::max<std::uint64_t>(1, params.countdown_max / 8);
  std::uint64_t chunks = 0;
  for (auto _ : state) {
    sim.step(n);
    // A const read brings the agents up to date and keeps the lane.
    benchmark::DoNotOptimize(std::as_const(sim).population().states().data());
    benchmark::ClobberMemory();
    if (++chunks % refill_every != 0) continue;
    state.PauseTiming();
    for (core::Agent& a : sim.population().states()) {
      if (a.role != core::Role::kRanking || a.countdown <= 1) {
        state.SkipWithError("a pair left the silent case");
        break;
      }
      a.countdown = params.countdown_max;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NaiveSilentPair)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_ElectLeaderInteraction(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto r = static_cast<std::uint32_t>(state.range(1));
  const core::Params params = core::Params::make(n, r);
  core::ElectLeader protocol(params);
  pp::Simulator<core::ElectLeader> sim(protocol, 1);
  for (auto _ : state) {
    sim.step(64);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ElectLeaderInteraction)
    ->Args({64, 2})
    ->Args({64, 16})
    ->Args({64, 32})
    ->Args({128, 64});

void BM_DetectCollisionPair(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::Params params = core::Params::make(n, n / 2);
  core::DcState a = core::dc_initial_state(params, 1);
  core::DcState b = core::dc_initial_state(params, 2);
  util::Rng rng(1);
  for (auto _ : state) {
    core::detect_collision(params, 1, a, 2, b, rng);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectCollisionPair)->Arg(32)->Arg(64)->Arg(128);

void BM_BalanceLoad(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::Params params = core::Params::make(n, n / 2);
  core::DcState a = core::dc_initial_state(params, 1);
  core::DcState b = core::dc_initial_state(params, 2);
  for (auto _ : state) {
    core::balance_load(params, 1, a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_BalanceLoad)->Arg(32)->Arg(64)->Arg(128);

void BM_CaiIzumiWada(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  baselines::CaiIzumiWada protocol(n);
  pp::Simulator<baselines::CaiIzumiWada> sim(protocol, 1);
  for (auto _ : state) {
    sim.step(1024);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_CaiIzumiWada)->Arg(1024);

void BM_SilentSsr(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  baselines::SilentSsrBaseline protocol(n);
  pp::Simulator<baselines::SilentSsrBaseline> sim(protocol, 1);
  for (auto _ : state) {
    sim.step(256);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_SilentSsr)->Arg(128);

void BM_LooseLeader(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  baselines::LooseLeaderElection protocol(n);
  pp::Simulator<baselines::LooseLeaderElection> sim(protocol, 1);
  for (auto _ : state) {
    sim.step(1024);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LooseLeader)->Arg(1024);

// One leap window's candidate draw, C ~ B(⌊4096/p⌋, p): E[C] = 4096 as in
// the leaping engine's windows, from the n = 10^10 epidemic's p ≈ 10^-6 to
// p = ½ and the reflected side p > ½.  range(0) indexes kP.
void BM_Binomial(benchmark::State& state) {
  constexpr double kP[] = {1e-6, 0.5, 0.99};
  const double p = kP[state.range(0)];
  const auto trials = static_cast<std::uint64_t>(4096.0 / p);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pp::sample_binomial(rng, trials, p));
  }
  state.SetLabel("trials=" + std::to_string(trials) +
                 " p=" + std::to_string(p));
}
BENCHMARK(BM_Binomial)->DenseRange(0, 2);

// ---------------------------------------------------------------------------
// Batched-engine hot-path breakdown (ISSUE 5): the per-interaction cost of
// ElectLeader on the batched engine decomposes into state copies, a δ
// call, re-interning the outputs (hash + id-table probe) and O(log q)
// Fenwick updates.  Each component is measured in isolation over a
// realistic q ≈ n registry (random_states corruption at n = 10^5), so the
// end-to-end engine numbers in ROADMAP.md (Perf/limits) can be read as a
// sum of parts rather than a mystery.
// ---------------------------------------------------------------------------

/// A churned q ≈ n agent population (every state distinct w.h.p.).
const std::vector<core::Agent>& churned_agents() {
  static const std::vector<core::Agent> agents = [] {
    const core::Params params =
        core::Params::make(100000, 64, core::MessageMultiplicity::kLight);
    util::Rng rng(12345);
    return core::make_adversarial_config(
        params, core::Corruption::kRandomStates, rng);
  }();
  return agents;
}

void BM_Breakdown_AgentCopyConstruct(benchmark::State& state) {
  const auto& agents = churned_agents();
  std::size_t i = 0;
  for (auto _ : state) {
    core::Agent copy(agents[i]);  // fresh construction: allocates
    benchmark::DoNotOptimize(copy);
    i = (i + 1) % agents.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_AgentCopyConstruct);

void BM_Breakdown_AgentCopyAssign(benchmark::State& state) {
  // The engine's scratch-reuse path: copy-assign into a warm object
  // reuses its heap buffers — this vs CopyConstruct is the allocation
  // traffic the interned hot loop eliminated.
  const auto& agents = churned_agents();
  core::Agent scratch = agents[0];
  std::size_t i = 0;
  for (auto _ : state) {
    scratch = agents[i];
    benchmark::DoNotOptimize(scratch);
    i = (i + 1) % agents.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_AgentCopyAssign);

void BM_Breakdown_AgentHash(benchmark::State& state) {
  const auto& agents = churned_agents();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hash_value(agents[i]));
    i = (i + 1) % agents.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_AgentHash);

void BM_Breakdown_DeltaCall(benchmark::State& state) {
  // One ElectLeader δ evaluation on scratch states (copy-assign included,
  // matching what a δ-cache miss actually pays on top of the lookup).
  const auto& agents = churned_agents();
  const core::Params params =
      core::Params::make(100000, 64, core::MessageMultiplicity::kLight);
  core::ElectLeader protocol(params);
  util::Rng rng(7);
  core::Agent a = agents[0], b = agents[1];
  std::size_t i = 0;
  for (auto _ : state) {
    a = agents[i];
    b = agents[i + 1];
    protocol.interact(a, b, rng);
    benchmark::DoNotOptimize(a);
    i = (i + 2) % (agents.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_DeltaCall);

void BM_Breakdown_FenwickUpdatePair(benchmark::State& state) {
  // The irreducible id-space cost per interaction: a sample_class draw
  // plus remove/add point updates on a q ≈ n registry.
  pp::CountsConfiguration<core::ElectLeader> config(churned_agents());
  util::Rng rng(9);
  const std::uint64_t n = config.population_size();
  for (auto _ : state) {
    const auto idx = config.sample_class(rng.below(n));
    config.remove_at(idx, 1);
    config.add_at(idx, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_FenwickUpdatePair);

void BM_Breakdown_InternHit(benchmark::State& state) {
  // Re-interning an already-known state: one hash + id-table probe (the
  // cost of a *changed* δ output that lands on an existing class).
  pp::StateInterner<core::Agent> interner;
  const auto& agents = churned_agents();
  for (const auto& a : agents) interner.intern(a);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.intern(agents[i]));
    i = (i + 1) % agents.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_InternHit);

void BM_Breakdown_DeltaCacheLookup(benchmark::State& state) {
  // A memoized transition: what a δ-cache hit costs instead of
  // copy + δ + re-intern.
  pp::DeltaCache cache;
  const std::uint32_t kPairs = 1 << 16;
  for (std::uint32_t i = 0; i < kPairs; ++i) {
    cache.insert(pp::DeltaCache::pack(i, i ^ 0x55u),
                 pp::DeltaCache::pack(i + 1, i + 2));
  }
  std::uint32_t i = 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.lookup(pp::DeltaCache::pack(i, i ^ 0x55u), v));
    i = (i + 1) & (kPairs - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Breakdown_DeltaCacheLookup);

void BM_BatchedElectLeaderInteraction(benchmark::State& state) {
  // End-to-end batched per-interaction cost at q ≈ n (randomized δ:
  // Fenwick draws + scratch copies + δ + hinted re-intern).
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::Params params =
      core::Params::make(n, 64, core::MessageMultiplicity::kLight);
  util::Rng rng(4242);
  const auto agents =
      core::make_adversarial_config(params, core::Corruption::kRandomStates,
                                    rng);
  core::ElectLeader protocol(params);
  pp::BatchedSimulator<core::ElectLeader> sim(
      protocol, pp::CountsConfiguration<core::ElectLeader>(agents), 1);
  for (auto _ : state) {
    sim.step(1024);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BatchedElectLeaderInteraction)->Arg(16384);

void BM_BatchedDerandomizedMemoized(benchmark::State& state) {
  // End-to-end memoized per-interaction cost (deterministic δ, clean
  // start: the δ-cache's favourable regime).  range(1) = 1 enables the
  // cache, 0 pins the uncached path.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const core::Params params =
      core::Params::make(n, 64, core::MessageMultiplicity::kLight);
  core::DerandomizedElectLeader protocol(params);
  pp::BatchedSimulator<core::DerandomizedElectLeader> sim(
      protocol, 1, pp::BlockSampling::kAuto,
      state.range(1) == 1 ? pp::DeltaMemo::kEnabled
                          : pp::DeltaMemo::kDisabled);
  for (auto _ : state) {
    sim.step(1024);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_BatchedDerandomizedMemoized)->Args({16384, 0})->Args({16384, 1});

}  // namespace

/// BENCHMARK_MAIN with one extra flag: --json=<path> becomes google-
/// benchmark's JSON file reporter, so every bench binary shares the same
/// structured-output interface.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(arg);
    }
  }
  if (!json_path.empty()) {
    args.push_back("--benchmark_out=" + json_path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
