// Experiment F9 — the substrate lemmas:
//   * Lemma A.2: a one/two-way epidemic infects all agents within
//     c_epi·n·log n interactions w.h.p. with c_epi < 7;
//   * Corollary C.3: PropagateReset's phases (triggered → fully dormant →
//     awakening/computing) each take O(n log n) interactions w.h.p.
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/elect_leader.hpp"
#include "core/propagate_reset.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

/// Lemma A.2 measurement through the engine-generic entry point
/// (--engine=naive|batched|leaping); probe_every=1 keeps exact hit times
/// so the fitted constant is not inflated by probe-grid overshoot.
double epidemic_time(analysis::Engine engine, std::uint32_t n,
                     std::uint64_t seed) {
  const auto r = analysis::epidemic_convergence(engine, n, seed,
                                                /*max_interactions=*/0,
                                                /*probe_every=*/1);
  return r.converged ? static_cast<double>(r.interactions) : -1.0;
}

struct ResetPhases {
  double to_dormant = -1.0;
  double to_computing = -1.0;
};

ResetPhases reset_phases(const core::Params& params, std::uint64_t seed) {
  core::ElectLeader protocol(params);
  std::vector<core::Agent> agents;
  for (std::uint32_t i = 0; i < params.n; ++i) {
    agents.push_back(protocol.initial_state(i));
  }
  core::trigger_reset(params, agents[0]);
  pp::UniformScheduler sched(params.n, seed);
  util::Rng rng(util::substream(seed, 4));

  ResetPhases phases;
  const std::uint64_t budget =
      4000ull * params.n * core::Params::log2ceil(params.n) +
      40ull * params.n * params.delay_timer_max;
  for (std::uint64_t t = 1; t <= budget; ++t) {
    const auto [a, b] = sched.next();
    protocol.interact(agents[a], agents[b], rng);
    if (t % (params.n / 2 + 1) != 0) continue;
    if (phases.to_dormant < 0) {
      bool dormant = true;
      for (const auto& ag : agents) dormant &= core::is_dormant(ag);
      if (dormant) phases.to_dormant = static_cast<double>(t);
    } else if (phases.to_computing < 0) {
      bool computing = true;
      for (const auto& ag : agents) computing &= core::is_computing(ag);
      if (computing) {
        phases.to_computing = static_cast<double>(t);
        break;
      }
    }
  }
  return phases;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto trials = cli.get_count("trials", 20);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 80));
  const auto jobs = cli.get_jobs();
  const auto engine =
      analysis::engine_from_string(cli.get_string("engine", "naive"));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F9 (Lemma A.2 + Corollary C.3)",
      "Epidemics finish in < 7·n·ln n interactions w.h.p.; PropagateReset "
      "reaches fully-dormant and then computing in O(n log n) each",
      "epidemic/(n·ln n) < 7; both reset phases scale ~n·log n");
  std::cout << "epidemic engine: " << analysis::engine_name(engine) << "\n";

  util::Table table({"n", "epidemic(mean)", "epi/(n·ln n)", "dormant@(mean)",
                     "computing@(mean)", "fails"});
  std::vector<double> ns, es;
  for (std::uint32_t n : {16u, 32u, 64u, 128u, 256u, 512u}) {
    const auto epi =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return epidemic_time(engine, n, s);
        }, jobs);
    const core::Params params = core::Params::make(n, std::max(1u, n / 4));
    double dorm_sum = 0, comp_sum = 0;
    std::size_t fails = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const ResetPhases ph = reset_phases(params, seed + 1000 + t);
      if (ph.to_dormant < 0 || ph.to_computing < 0) {
        ++fails;
        continue;
      }
      dorm_sum += ph.to_dormant;
      comp_sum += ph.to_computing;
    }
    const double ok = static_cast<double>(trials - fails);
    table.add_row({util::fmt_int(n), util::fmt(epi.summary.mean, 0),
                   util::fmt(epi.summary.mean / util::model_nlogn(n), 2),
                   util::fmt(ok > 0 ? dorm_sum / ok : -1, 0),
                   util::fmt(ok > 0 ? comp_sum / ok : -1, 0),
                   util::fmt_int(static_cast<long long>(fails))});
    ns.push_back(n);
    es.push_back(epi.summary.mean);
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  const double c = util::fit_scale(ns, es, util::model_nlogn);
  std::cout << "\nEpidemic fit: " << util::fmt(c, 2)
            << "·n·ln n (Lemma A.2 requires the constant < 7)\n";
  return 0;
}
