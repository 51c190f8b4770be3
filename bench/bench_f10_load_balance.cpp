// Experiment F10 — Lemma E.6: starting from all 4m messages of one
// (rank, content) class at a single agent, the BalanceLoad mechanism
// (coupled to Tight & Simple Load Balancing) gives every agent at least
// one message within O(m log m) interactions w.h.p.
#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/detect_collision.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

double spread_time(std::uint32_t m, std::uint64_t seed) {
  // One group of size m: n = 2m, r = m.
  const core::Params p = core::Params::make(2 * m, m);
  const std::uint32_t rank = p.group_begin(0);
  std::vector<core::DcState> agents(m);
  for (auto& s : agents) {
    s = core::dc_initial_state(p, rank);
    s.msgs.clear(s.msgs.size());
  }
  const std::uint32_t ids = p.ids_per_rank(0);
  for (std::uint32_t j = 1; j <= ids; ++j) agents[0].msgs.insert(0, {j, 1});

  pp::UniformScheduler sched(m, seed);
  const std::uint64_t budget = 4000ull * m * core::Params::log2ceil(m);
  for (std::uint64_t t = 1; t <= budget; ++t) {
    const auto [a, b] = sched.next();
    core::balance_load(p, rank, agents[a], agents[b]);
    if (t % m != 0) continue;
    const bool all = std::all_of(
        agents.begin(), agents.end(),
        [](const core::DcState& s) { return !s.msgs[0].empty(); });
    if (all) return static_cast<double>(t);
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto trials = cli.get_count("trials", 20);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 90));
  const auto jobs = cli.get_jobs();
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F10 (Lemma E.6)",
      "From maximal clumping (all of one rank's messages at one agent), "
      "BalanceLoad delivers ≥1 message to every group member within "
      "O(m log m) interactions w.h.p.",
      "spread/(m·ln m) roughly constant in m");

  util::Table table({"m", "spread(mean)", "ci95", "spread/(m·ln m)", "fails"});
  std::vector<double> ms, ys;
  for (std::uint32_t m : {8u, 16u, 32u, 64u, 128u}) {
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return spread_time(m, s);
        }, jobs);
    table.add_row({util::fmt_int(m), util::fmt(result.summary.mean, 0),
                   util::fmt(util::ci95_halfwidth(result.summary), 0),
                   util::fmt(result.summary.mean / util::model_nlogn(m), 2),
                   util::fmt_int(static_cast<long long>(result.failures))});
    ms.push_back(m);
    ys.push_back(result.summary.mean);
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  const auto power = util::fit_power(ms, ys);
  std::cout << "\nSpread time scales as m^" << util::fmt(power.exponent, 3)
            << " (R²=" << util::fmt(power.r2, 4)
            << "); m·log m predicts ≈1.0–1.3\n";
  return 0;
}
