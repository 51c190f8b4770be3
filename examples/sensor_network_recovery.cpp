// Example: self-healing coordinator election in a sensor swarm.
//
// The paper's motivating setting: a large population of tiny, anonymous
// devices that communicate in random pairwise encounters and must keep
// exactly one coordinator alive — even when radiation/power glitches
// corrupt the memory of arbitrary devices at arbitrary times.
//
// This example stabilizes a swarm, then injects two fault waves:
//   wave 1: soft memory corruption (message tables scrambled, ranks kept)
//            → healed by soft resets, the coordinator survives;
//   wave 2: hard corruption (device ranks cloned)
//            → full reset + re-ranking, a fresh coordinator emerges.
//
//   ./examples/sensor_network_recovery [--n=48] [--r=12] [--seed=7]
#include <cstdint>
#include <iostream>

#include "analysis/census.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"

namespace {

using namespace ssle;

int find_leader(const pp::Population<core::ElectLeader>& pop) {
  for (std::uint32_t i = 0; i < pop.size(); ++i) {
    if (core::ElectLeader::is_leader(pop[i])) return static_cast<int>(i);
  }
  return -1;
}

bool run_to_safe(const core::Params& params,
                 pp::Simulator<core::ElectLeader>& sim, std::uint64_t budget,
                 const char* phase) {
  const auto start = sim.interactions();
  const auto run = sim.run_until(
      [&](const pp::Population<core::ElectLeader>& pop, std::uint64_t) {
        return core::is_safe_configuration(params, pop.states());
      },
      budget, params.n);
  if (!run.converged) {
    std::cout << phase << ": did not re-stabilize within budget!\n";
    return false;
  }
  std::cout << phase << ": stable after "
            << static_cast<double>(run.interactions - start) / params.n
            << " parallel time units; coordinator = device "
            << find_leader(sim.population()) << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 48);
  const auto r = cli.get_count_u32("r", 12);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  cli.reject_unknown_flags();

  const core::Params params = core::Params::make(n, r);
  core::ElectLeader protocol(params);
  pp::Simulator<core::ElectLeader> sim(protocol, seed);
  const std::uint64_t budget =
      4000ull * n * core::Params::log2ceil(n) * ((n + r - 1) / r);

  std::cout << "Sensor swarm: " << n << " devices, trade-off parameter r="
            << r << "\n\n";
  if (!run_to_safe(params, sim, budget, "boot")) return 1;
  const int coordinator = find_leader(sim.population());

  // Let the swarm settle: fresh verifiers are on probation (§3.2), and an
  // error caught during probation is handled by a full reset.  After
  // ~P_max·n/2 further interactions all probation timers have drained and
  // faults take the soft path.
  sim.step(static_cast<std::uint64_t>(params.probation_max) * n);

  // --- Fault wave 1: scramble the collision-detection tables --------------
  std::cout << "\n>>> fault wave 1: scrambling message tables of all devices "
               "(ranks intact)\n";
  util::Rng fault(seed + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::Agent& a = sim.population()[i];
    if (a.role != core::Role::kVerifying) continue;
    for (auto bucket : a.sv.dc.msgs) {
      for (auto& msg : bucket) {
        if (fault.below(3) == 0) {
          msg.content = static_cast<std::uint32_t>(2 + fault.below(1u << 20));
        }
      }
    }
    // Re-establish the state-space restriction for the device's own rank.
    const std::uint32_t own = params.rank_in_group(a.rank) - 1;
    if (own < a.sv.dc.msgs.size()) {
      for (const auto& msg : a.sv.dc.msgs[own]) {
        a.sv.dc.observations[msg.id - 1] = msg.content;
      }
    }
  }
  if (!run_to_safe(params, sim, budget, "after wave 1")) return 1;
  const int coordinator_after_soft = find_leader(sim.population());
  std::cout << (coordinator_after_soft == coordinator
                    ? "coordinator SURVIVED the soft fault (soft resets only)\n"
                    : "coordinator changed — unexpected for a soft fault\n");

  // --- Fault wave 2: clone ranks (hard fault) ------------------------------
  std::cout << "\n>>> fault wave 2: cloning device ranks (duplicate "
               "coordinators possible)\n";
  for (std::uint32_t i = 0; i < n / 4; ++i) {
    core::Agent& a = sim.population()[i];
    const core::Agent& donor = sim.population()[n - 1 - i];
    a.rank = donor.rank;
    a.sv = donor.sv;
  }
  if (!run_to_safe(params, sim, 10 * budget, "after wave 2")) return 1;

  const auto census = analysis::take_census(params, sim.population().states());
  std::cout << "\nfinal census: verifiers=" << census.verifiers
            << " coordinators=" << census.leaders
            << " circulating messages=" << census.total_messages << '\n';
  return census.leaders == 1 ? 0 : 1;
}
