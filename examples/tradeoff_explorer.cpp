// Example: interactive exploration of the paper's space-time trade-off.
//
// For a population size n, sweeps the trade-off parameter r and reports,
// side by side, what you pay (per-agent state bits, live memory) and what
// you get (stabilization time) — the engineering view of Theorem 1.1.
//
//   ./examples/tradeoff_explorer [--n=64] [--trials=3] [--seed=3] [--jobs=0]
//
// Each trial runs analysis::stabilize on the naive engine.
#include <cstdint>
#include <iostream>

#include "analysis/census.hpp"
#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/state_size.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 64);
  const auto trials = cli.get_count("trials", 3);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 3));
  const auto jobs = cli.get_jobs();
  cli.reject_unknown_flags();

  std::cout << "Space-time trade-off for self-stabilizing leader election, n="
            << n << "\n"
            << "(Theorem 1.1: time O((n²/r)·log n), states 2^{O(r² log n)})\n\n";

  util::Table table({"r", "groups", "par.time(mean)", "speedup vs r=1",
                     "state_bits", "live_MiB", "msgs/agent"});
  double base_time = 0.0;
  for (std::uint32_t r = 1; r <= n / 2; r *= 2) {
    const core::Params params = core::Params::make(n, r);
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const auto run =
              analysis::stabilize(params, s, analysis::default_budget(params));
          return run.converged ? static_cast<double>(run.interactions) : -1.0;
        }, jobs);
    const double par = result.summary.mean / n;
    if (r == 1) base_time = par;
    const auto census =
        analysis::take_census(params, core::make_safe_config(params));
    table.add_row(
        {util::fmt_int(r), util::fmt_int(params.num_groups()),
         util::fmt(par, 1), util::fmt(base_time / par, 1) + "x",
         util::fmt(core::bits_elect_leader(params), 0),
         util::fmt(static_cast<double>(census.approx_bytes) / (1 << 20), 2),
         util::fmt_int(static_cast<long long>(census.total_messages / n))});
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  std::cout << "\nReading guide: doubling r halves stabilization time "
               "(speedup column ≈ r) while state bits grow ~r²·log r — "
               "choose r by your device's memory budget.\n";
  return 0;
}
