// Experiment F7 — Lemma D.1: AssignRanks_r assigns unique ranks within
// c·(n²/r)·log n interactions w.h.p. from a dormant configuration and is
// silent afterwards.  Runs the sub-protocol standalone.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/assign_ranks.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

double ranking_time(const core::Params& params, std::uint64_t seed,
                    std::uint64_t budget, bool* correct) {
  std::vector<core::ArState> agents(params.n, core::ar_initial_state(params));
  pp::UniformScheduler sched(params.n, seed);
  util::Rng rng(util::substream(seed, 4));
  std::uint64_t t = 0;
  auto all_ranked = [&] {
    return std::all_of(agents.begin(), agents.end(), core::ar_ranked);
  };
  while (t < budget) {
    const auto [a, b] = sched.next();
    core::assign_ranks(params, agents[a], agents[b], rng);
    ++t;
    if (t % params.n == 0 && all_ranked()) break;
  }
  if (!all_ranked()) return -1.0;
  std::vector<bool> seen(params.n + 1, false);
  *correct = true;
  for (const auto& s : agents) {
    if (s.rank < 1 || s.rank > params.n || seen[s.rank]) {
      *correct = false;
      break;
    }
    seen[s.rank] = true;
  }
  return static_cast<double>(t);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 60));
  const auto jobs = cli.get_jobs();
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F7 (Lemma D.1)",
      "AssignRanks_r assigns unique ranks in [n] within c·(n²/r)·log n "
      "interactions w.h.p. from a dormant configuration (silent protocol)",
      "time·r/(n²·ln n) roughly constant across (n, r); correctness = 100%");

  util::Table table({"n", "r", "rank-time(mean)", "ci95", "par.time",
                     "time·r/(n² ln n)", "correct", "fails"});
  for (std::uint32_t n : {16u, 32u, 64u, 128u}) {
    std::vector<std::uint32_t> rs{1u, 4u, n / 4, n / 2};
    std::sort(rs.begin(), rs.end());
    rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
    for (std::uint32_t r : rs) {
      if (r < 1 || r > n / 2) continue;
      const core::Params params = core::Params::make(n, r);
      const std::uint64_t L = core::Params::log2ceil(n);
      const std::uint64_t budget = 2000ull * (n * n / r) * L + 500000;
      std::atomic<std::size_t> correct_count{0};  // measure runs concurrently
      const auto result =
          analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
            bool correct = false;
            const double t = ranking_time(params, s, budget, &correct);
            correct_count += correct;
            return t;
          }, jobs);
      const double model = util::model_nlogn(n) * n / r;
      table.add_row(
          {util::fmt_int(n), util::fmt_int(r),
           util::fmt(result.summary.mean, 0),
           util::fmt(util::ci95_halfwidth(result.summary), 0),
           util::fmt(result.summary.mean / n, 1),
           util::fmt(result.summary.mean / model, 2),
           util::fmt_int(static_cast<long long>(correct_count.load())) + "/" +
               util::fmt_int(static_cast<long long>(trials)),
           util::fmt_int(static_cast<long long>(result.failures))});
    }
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  return 0;
}
