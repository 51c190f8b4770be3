// Quickstart: run ElectLeader_r on a small population, watch the phases
// (ranking → verification → safe), and print the elected leader.
//
//   ./examples/quickstart [--n=64] [--r=8] [--seed=1]
#include <cstdint>
#include <iostream>
#include <utility>

#include "analysis/census.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 64);
  const auto r = cli.get_count_u32("r", 8);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cli.reject_unknown_flags();

  const core::Params params = core::Params::make(n, r);
  core::ElectLeader protocol(params);
  pp::Simulator<core::ElectLeader> sim(protocol, seed);

  std::cout << "ElectLeader_r quickstart: n=" << n << " r=" << r
            << " groups=" << params.num_groups() << " seed=" << seed << "\n\n";

  std::uint64_t next_report = 0;
  bool safe = false;
  const std::uint64_t budget = 4000ull * n * core::Params::log2ceil(n) *
                               ((n + r - 1) / r);
  while (sim.interactions() < budget) {
    sim.step(n);  // one unit of parallel time
    // Read through a const reference: a non-const read would drop the
    // engine's silent lane, which the next step would then rebuild.
    const auto& agents = std::as_const(sim).population().states();
    if (sim.interactions() >= next_report) {
      const auto census = analysis::take_census(params, agents);
      std::cout << "t=" << sim.interactions() / n
                << " (interactions=" << sim.interactions() << ")"
                << "  resetters=" << census.resetters
                << " rankers=" << census.rankers
                << " verifiers=" << census.verifiers
                << " leaders=" << census.leaders
                << " msgs=" << census.total_messages << '\n';
      next_report = sim.interactions() + 16ull * n;
    }
    if (core::is_safe_configuration(params, agents)) {
      safe = true;
      break;
    }
  }

  if (!safe) {
    std::cout << "\nDid not reach a safe configuration within the budget.\n";
    return 1;
  }

  std::cout << "\nSafe configuration reached after " << sim.interactions()
            << " interactions (parallel time "
            << static_cast<double>(sim.interactions()) / n << ").\n";
  for (std::uint32_t i = 0; i < n; ++i) {
    if (core::ElectLeader::is_leader(sim.population()[i])) {
      std::cout << "Leader: agent " << i << " (rank 1).\n";
    }
  }
  return 0;
}
