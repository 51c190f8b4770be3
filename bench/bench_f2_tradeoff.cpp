// Experiment F2 — the space-time trade-off of Theorem 1.1: at fixed n,
// stabilization takes O((n²/r)·log n) interactions, so measured time should
// scale ∝ 1/r while the per-agent state bits grow with r (see also F6).
//
//   --n=64       population size (the r sweep runs r = 1, 2, 4, ..., rmax)
//   --rmax=0     cap on the r sweep (0 = n/2)
//   --trials=5   seeds per sweep point
//   --jobs=0     parallel_sweep worker threads (0 = all cores)
//   --mult=faithful|light    message multiplicity (use light for large n)
//   --budget=0   interaction-budget override per trial (0 = default model
//                budget).  Full stabilization is Θ((n²/r)·log n), so at
//                n ≥ 10^5 set a budget cap: capped trials are counted as
//                failures — never folded into the mean.
//
// Every trial runs analysis::stabilize on the naive engine; n = 10^6 with
// --rmax=4 --mult=light --budget=5000000 fits in ~0.2 GB.
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/params.hpp"
#include "core/state_size.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 64);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 20));
  const auto jobs = cli.get_jobs();
  const auto rmax_flag = cli.get_count_u32("rmax", 0);
  const std::uint32_t rmax =
      rmax_flag == 0 ? n / 2 : std::min(rmax_flag, n / 2);
  const auto mult =
      analysis::multiplicity_from_string(cli.get_string("mult", "faithful"));
  const auto budget_override =
      static_cast<std::uint64_t>(cli.get_count("budget", 0));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F2 (Theorem 1.1 trade-off)",
      "ElectLeader_r stabilizes in O((n²/r)·log n) interactions using "
      "2^{O(r² log n)} states",
      "interactions·r/(n²·ln n) roughly constant across r; bits grow ~r²");
  std::cout << "engine=naive mult=" << analysis::multiplicity_name(mult)
            << " jobs=" << analysis::effective_jobs(jobs, trials)
            << " trials=" << trials
            << "\n";

  util::Table table({"n", "r", "interactions(mean)", "ci95", "par.time",
                     "inter·r/(n² ln n)", "state_bits", "fails"});
  std::vector<double> rs, ys;
  for (std::uint32_t r = 1; r <= rmax; r *= 2) {
    const core::Params params = core::Params::make(n, r, mult);
    const std::uint64_t budget =
        budget_override ? budget_override : analysis::default_budget(params);
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const auto run = analysis::stabilize(params, s, budget);
          return run.converged ? static_cast<double>(run.interactions) : -1.0;
        }, jobs);
    const double model = util::model_nlogn(n) * n / r;
    table.add_row(
        {util::fmt_int(n), util::fmt_int(r), util::fmt(result.summary.mean, 0),
         util::fmt(util::ci95_halfwidth(result.summary), 0),
         util::fmt(result.summary.mean / n, 1),
         util::fmt(result.summary.mean / model, 2),
         util::fmt(core::bits_elect_leader(params), 0),
         util::fmt_int(static_cast<long long>(result.failures))});
    if (!result.samples.empty()) {
      rs.push_back(r);
      ys.push_back(result.summary.mean);
    }
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  if (rs.size() >= 2) {
    const auto power = util::fit_power(rs, ys);
    std::cout << "\nFit: T(r) ∝ r^" << util::fmt(power.exponent, 3)
              << " (R²=" << util::fmt(power.r2, 4)
              << "); the 1/r trade-off predicts an exponent near -1\n";
  } else {
    std::cout << "\nFit skipped: fewer than two sweep points converged "
                 "within budget.\n";
  }
  return 0;
}
