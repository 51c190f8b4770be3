// Experiment T1 — the regime comparison the paper's §1–§2 narrates:
// at a fixed n, compare stabilization time and state bits across
//   * ElectLeader_r at r = n/2 (time-optimal), r = ⌈log² n⌉ (sub-exponential
//     states), r = 2 (near-minimal states),
//   * Cai–Izumi–Wada (n states, Θ(n²) expected time),
//   * the name-broadcast SSR baseline (Θ(n log n) time, 2^{Θ(n log n)}
//     states),
//   * loosely-stabilizing leader election (cheap but finite holding time).
//
//   --n=64      population size
//   --trials=5  seeds per row
//   --jobs=0    parallel_sweep worker threads (0 = all cores)
//   --engine=naive|batched   runs the baseline rows (CIW, SSR, FightLE,
//              LooseLeader) on the chosen engine; the ElectLeader_r rows
//              always run analysis::stabilize on the naive engine
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "baselines/cai_izumi_wada.hpp"
#include "baselines/fight_leader.hpp"
#include "baselines/loose_leader.hpp"
#include "baselines/silent_ssr.hpp"
#include "core/state_size.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

template <typename Protocol, typename StablePred>
double run_protocol(const Protocol& protocol, StablePred stable,
                    std::uint64_t seed, std::uint64_t budget) {
  pp::Simulator<Protocol> sim(protocol, seed);
  const auto res = sim.run_until(
      [&](const pp::Population<Protocol>& pop, std::uint64_t) {
        return stable(pop.states());
      },
      budget);
  return res.converged ? static_cast<double>(res.interactions) : -1.0;
}

/// Same measurement on the count-based batched engine; the predicate still
/// sees a flat configuration (expanded once per probe).
template <typename Protocol, typename StablePred>
double run_protocol_batched(const Protocol& protocol, StablePred stable,
                            std::uint64_t seed, std::uint64_t budget) {
  pp::BatchedSimulator<Protocol> sim(protocol, seed);
  const auto res = sim.run_until(
      [&](const pp::CountsConfiguration<Protocol>& c, std::uint64_t) {
        return stable(c.to_states());
      },
      budget);
  return res.converged ? static_cast<double>(res.interactions) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 64);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 100));
  const auto jobs = cli.get_jobs();
  const auto engine =
      analysis::engine_from_string(cli.get_string("engine", "naive"));
  cli.reject_unknown_flags();
  const bool batched = engine == analysis::Engine::kBatched;

  analysis::print_banner(
      "T1 (regime comparison, §1–§2)",
      "Protocol landscape at fixed n: time vs state bits per protocol",
      "ElectLeader_{n/2} ~ SSR time but polynomially-bounded bit growth; "
      "CIW slowest/smallest; loose-LE fastest but only loosely stabilizing");
  std::cout << "engine=" << analysis::engine_name(engine)
            << " (baselines; ElectLeader rows run naive) jobs="
            << analysis::effective_jobs(jobs, trials)
            << " trials=" << trials
            << "\n";

  util::Table table({"protocol", "self-stab", "interactions(mean)",
                     "par.time", "state_bits", "fails"});

  // A baseline row: dispatches on the engine choice.
  const auto run_baseline = [&](const auto& protocol, auto stable,
                                std::uint64_t s, std::uint64_t budget) {
    return batched ? run_protocol_batched(protocol, stable, s, budget)
                   : run_protocol(protocol, stable, s, budget);
  };

  // ElectLeader at three r regimes (deduplicated: log²n may clamp to n/2).
  const auto L = static_cast<std::uint32_t>(std::log2(n));
  std::vector<std::uint32_t> regimes{n / 2, std::min(n / 2, L * L),
                                     std::min(n / 2, 2u)};
  regimes.erase(std::unique(regimes.begin(), regimes.end()), regimes.end());
  for (std::uint32_t r : regimes) {
    const core::Params params = core::Params::make(n, r);
    const auto res =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const auto run =
              analysis::stabilize(params, s, analysis::default_budget(params));
          return run.converged ? static_cast<double>(run.interactions) : -1.0;
        }, jobs);
    table.add_row({"ElectLeader r=" + std::to_string(params.r), "yes",
                   util::fmt(res.summary.mean, 0),
                   util::fmt(res.summary.mean / n, 1),
                   util::fmt(core::bits_elect_leader(params), 0),
                   util::fmt_int(static_cast<long long>(res.failures))});
  }

  {
    baselines::CaiIzumiWada protocol(n);
    const auto res =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return run_baseline(
              protocol,
              [&](const auto& states) { return protocol.is_stable(states); },
              s, 600ull * n * n);
        }, jobs);
    table.add_row({"CaiIzumiWada", "yes", util::fmt(res.summary.mean, 0),
                   util::fmt(res.summary.mean / n, 1),
                   util::fmt(core::bits_ciw(n), 0),
                   util::fmt_int(static_cast<long long>(res.failures))});
  }

  {
    baselines::SilentSsrBaseline protocol(n);
    const auto res =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return run_baseline(
              protocol,
              [&](const auto& states) { return protocol.is_stable(states); },
              s, 4000ull * n * core::Params::log2ceil(n));
        }, jobs);
    table.add_row({"SilentSSR(names)", "yes", util::fmt(res.summary.mean, 0),
                   util::fmt(res.summary.mean / n, 1),
                   util::fmt(core::bits_ssr_baseline(n), 0),
                   util::fmt_int(static_cast<long long>(res.failures))});
  }

  {
    baselines::FightLeaderElection protocol(n);
    const auto res =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return run_baseline(
              protocol,
              [&](const auto& states) {
                return protocol.leader_count(states) == 1;
              },
              s, 200ull * n * n);
        }, jobs);
    table.add_row({"FightLE(2-state)", "no", util::fmt(res.summary.mean, 0),
                   util::fmt(res.summary.mean / n, 1), "1",
                   util::fmt_int(static_cast<long long>(res.failures))});
  }

  {
    baselines::LooseLeaderElection protocol(n);
    const auto res =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return run_baseline(
              protocol,
              [&](const auto& states) {
                return protocol.leader_count(states) == 1;
              },
              s, 4000ull * n * core::Params::log2ceil(n));
        }, jobs);
    table.add_row(
        {"LooseLeader", "loose", util::fmt(res.summary.mean, 0),
         util::fmt(res.summary.mean / n, 1),
         util::fmt(std::log2(2.0 * protocol.timeout()), 0),
         util::fmt_int(static_cast<long long>(res.failures))});
  }

  table.print(std::cout);
  table.print_csv(std::cout);
  std::cout << "\nn=" << n
            << ".  'state_bits' = log2(states) per agent (formal accounting; "
               "see bench_f6 for the full trade-off curves).\n";
  return 0;
}
