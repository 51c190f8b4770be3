// Epidemic wave at scale: the batched engine simulating the one-way
// epidemic (Lemma A.2's primitive) on populations far beyond what the
// per-agent Simulator can touch, and comparing the observed infection
// curve to the logistic-growth prediction di/dt = 2·i·(1-i) (parallel
// time t, infected fraction i; the factor 2 is the ordered-pair rate).
//
//   ./epidemic_wave [--n=10000000] [--seed=1]
#include <cmath>
#include <cstdint>
#include <iostream>

#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 10000000);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cli.reject_unknown_flags();
  if (n < 2) {
    std::cerr << "epidemic_wave: need --n >= 2 (an epidemic needs agents "
                 "to meet).\n";
    return 2;
  }

  pp::Epidemic proto{n};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, seed);

  std::cout << "One-way epidemic, batched engine: n=" << n << " seed=" << seed
            << "\n(logistic prediction i(t) = i0 / (i0 + (1-i0)·e^{-2t}))\n\n";

  util::Table table({"parallel t", "infected", "fraction", "logistic"});
  const double i0 = 1.0 / static_cast<double>(n);
  const std::uint64_t probe = n;  // one unit of parallel time
  double t = 0.0;
  while (true) {
    const std::uint64_t infected = sim.config().count_of(1);
    const double frac = static_cast<double>(infected) / n;
    const double logistic = i0 / (i0 + (1.0 - i0) * std::exp(-2.0 * t));
    table.add_row({util::fmt(t, 0), util::fmt_int(static_cast<long long>(infected)),
                   util::fmt(frac, 6), util::fmt(logistic, 6)});
    if (infected == n) break;
    if (t > 10.0 * std::log(static_cast<double>(n))) {
      std::cout << "Epidemic did not saturate within 10·ln n parallel time "
                   "(unexpected).\n";
      table.print(std::cout);
      return 1;
    }
    sim.step(probe);
    t += 1.0;
  }
  table.print(std::cout);
  // E[T] = (n-1)·H_{n-1} interactions, i.e. ≈ ln n parallel time.
  std::cout << "\nSaturated after " << sim.interactions()
            << " interactions (parallel time "
            << static_cast<double>(sim.interactions()) / n << ", ~ln n = "
            << std::log(static_cast<double>(n)) << " predicted).\n";
  return 0;
}
