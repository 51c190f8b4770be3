// Experiment F8 — Lemma D.10: FastLeaderElect elects a unique leader in
// O(log n) parallel time w.h.p. using 2^{O(log n)} states.  Measures
// completion time and the uniqueness rate over many trials.
#include <atomic>
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/fast_leader_elect.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

struct FleOutcome {
  double interactions = -1.0;
  bool unique_leader = false;
};

FleOutcome run_once(const core::Params& params, std::uint64_t seed) {
  std::vector<core::FastLeState> agents(params.n, core::fle_initial_state());
  pp::UniformScheduler sched(params.n, seed);
  util::Rng rng(util::substream(seed, 4));
  const std::uint64_t budget =
      4000ull * params.n * core::Params::log2ceil(params.n);
  FleOutcome out;
  for (std::uint64_t t = 1; t <= budget; ++t) {
    const auto [a, b] = sched.next();
    core::fle_interact(params, agents[a], agents[b], rng);
    if (t % params.n != 0) continue;
    bool all_done = true;
    for (const auto& s : agents) all_done &= s.leader_done;
    if (all_done) {
      out.interactions = static_cast<double>(t);
      break;
    }
  }
  if (out.interactions < 0) return out;
  int leaders = 0;
  for (const auto& s : agents) leaders += s.leader_bit;
  out.unique_leader = (leaders == 1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto trials = cli.get_count("trials", 30);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 70));
  const auto jobs = cli.get_jobs();
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F8 (Lemma D.10)",
      "FastLeaderElect elects a unique leader in time O(log n) w.h.p. from "
      "an awakening configuration, using 2^{O(log n)} states",
      "parallel time /(ln n) roughly constant; uniqueness rate → 1 with n");

  util::Table table(
      {"n", "completion(mean)", "par.time", "par.time/ln n", "unique", "fails"});
  std::vector<double> ns, ys;
  for (std::uint32_t n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const core::Params params = core::Params::make(n, 2);
    std::atomic<std::size_t> unique{0};  // measure runs concurrently
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const FleOutcome o = run_once(params, s);
          unique += o.unique_leader;
          return o.interactions;
        }, jobs);
    const double par = result.summary.mean / n;
    table.add_row({util::fmt_int(n), util::fmt(result.summary.mean, 0),
                   util::fmt(par, 1),
                   util::fmt(par / util::model_logn(n), 2),
                   util::fmt_int(static_cast<long long>(unique.load())) + "/" +
                       util::fmt_int(static_cast<long long>(trials)),
                   util::fmt_int(static_cast<long long>(result.failures))});
    ns.push_back(n);
    ys.push_back(result.summary.mean);
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  const double c = util::fit_scale(ns, ys, util::model_nlogn);
  std::cout << "\nFit: completion ≈ " << util::fmt(c, 2)
            << "·n·ln n interactions (R²="
            << util::fmt(util::fit_r2(ns, ys, util::model_nlogn, c), 4)
            << ") — i.e. Θ(log n) parallel time\n";
  return 0;
}
