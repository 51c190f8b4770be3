// Experiment F1 — Theorem 1.1 in the time-optimal regime r = Θ(n):
// self-stabilizing leader election in O(n log n) interactions w.h.p.
// Sweeps n with r = n/2 from the clean (post-reset) configuration and fits
// measured stabilization interactions against c·n·log n.
//
//   --trials=5   seeds per sweep point
//   --jobs=0     parallel_sweep worker threads (0 = all cores)
//   --nmax=128   extends the n grid (16, 24, 32, ... doubling pattern)
//   --mult=faithful|light    message multiplicity (use light for large n)
//   --budget=0   interaction-budget override per trial (0 = default model
//                budget); capped trials are reported as failures, never
//                folded into the mean
//
// Every trial runs analysis::stabilize on the naive engine.
//
// Scale note: r = n/2 means Θ(r) per-agent state (the paper's trade-off:
// time-optimal costs 2^{O(n² log n)} states), so full stabilization runs
// are practical to n ≈ 10^3 faithful / 10^4 light; beyond that, use a
// --budget cap to probe throughput (rows report fails honestly) or
// bench_f2_tradeoff's small-r regimes.
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/params.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 10));
  const auto jobs = cli.get_jobs();
  const auto nmax = static_cast<std::uint64_t>(cli.get_count("nmax", 128));
  const auto mult =
      analysis::multiplicity_from_string(cli.get_string("mult", "faithful"));
  const auto budget_override =
      static_cast<std::uint64_t>(cli.get_count("budget", 0));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F1 (Theorem 1.1, r = Θ(n))",
      "ElectLeader_{n/2} stabilizes in O(n log n) interactions w.h.p.",
      "interactions/(n·ln n) roughly constant in n; parallel time Θ(log n)");
  std::cout << "engine=naive mult=" << analysis::multiplicity_name(mult)
            << " jobs=" << analysis::effective_jobs(jobs, trials)
            << " trials=" << trials
            << "\n";

  // The seed grid 16..128, extended by the same ×1.5/×4/3 ladder to nmax
  // (capped at 2^31: the ladder runs in 64 bits so a huge nmax cannot
  // wrap the step and loop forever).
  std::vector<std::uint32_t> grid;
  for (std::uint64_t n = 16; n <= std::min<std::uint64_t>(nmax, 1u << 31);) {
    grid.push_back(static_cast<std::uint32_t>(n));
    n = grid.size() % 2 == 1 ? n + n / 2 : (n / 3) * 4;
  }

  util::Table table({"n", "r", "interactions(mean)", "ci95", "par.time",
                     "inter/(n·ln n)", "fails"});
  std::vector<double> ns, ys;
  for (const std::uint32_t n : grid) {
    const core::Params params = core::Params::make(n, n / 2, mult);
    const std::uint64_t budget =
        budget_override ? budget_override : analysis::default_budget(params);
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const auto run = analysis::stabilize(params, s, budget);
          return run.converged ? static_cast<double>(run.interactions) : -1.0;
        }, jobs);
    const double nlogn = util::model_nlogn(n);
    table.add_row({util::fmt_int(n), util::fmt_int(n / 2),
                   util::fmt(result.summary.mean, 0),
                   util::fmt(util::ci95_halfwidth(result.summary), 0),
                   util::fmt(result.summary.mean / n, 1),
                   util::fmt(result.summary.mean / nlogn, 1),
                   util::fmt_int(static_cast<long long>(result.failures))});
    if (!result.samples.empty()) {
      ns.push_back(n);
      ys.push_back(result.summary.mean);
    }
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  if (ns.size() >= 2) {
    const double c = util::fit_scale(ns, ys, util::model_nlogn);
    const double r2_nlogn = util::fit_r2(ns, ys, util::model_nlogn, c);
    const double c2 = util::fit_scale(ns, ys, util::model_n2);
    const double r2_n2 = util::fit_r2(ns, ys, util::model_n2, c2);
    const auto power = util::fit_power(ns, ys);
    std::cout << "\nFit: T(n) ≈ " << util::fmt(c, 1) << "·n·ln n  (R²="
              << util::fmt(r2_nlogn, 4) << "); n² fit R²="
              << util::fmt(r2_n2, 4)
              << "; power-law exponent=" << util::fmt(power.exponent, 3)
              << " (n log n predicts ≈1.0–1.3, n² predicts 2)\n";
  } else {
    std::cout << "\nFit skipped: fewer than two sweep points converged "
                 "within budget.\n";
  }
  return 0;
}
