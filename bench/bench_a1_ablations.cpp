// Experiment A1 — ablations of the paper's three design choices:
//   1. Soft resets (§3.2): without them, message corruption on a correct
//      ranking forces a full reset — recovery destroys the ranking and
//      costs a full re-ranking pass.
//   2. Load balancing (§3.1): without BalanceLoad, messages stay clumped
//      and duplicate-rank detection slows dramatically.
//   3. Message multiplicity: the Θ(m²)-messages-per-rank amplification vs
//      the Light Θ(m) variant.
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "pp/scheduler.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

/// Recovery time from corrupt-messages + whether the ranking survived.
/// The preserved check compares each agent's rank before/after, which
/// needs per-agent identity.  The trajectory is identical to
/// analysis::stabilize(kAdversarial, …, kCorruptMessages, …): same
/// substream-77 configuration draw, same simulator seeding, same safety
/// probe.
struct RecoveryOutcome {
  double interactions = -1.0;
  bool preserved = false;
};

RecoveryOutcome recover_corrupt_messages(const core::Params& params,
                                         std::uint64_t seed,
                                         std::uint64_t budget) {
  util::Rng gen(util::substream(seed, 77));
  auto config = core::make_adversarial_config(
      params, core::Corruption::kCorruptMessages, gen);
  std::vector<std::uint32_t> before;
  for (const auto& a : config) before.push_back(a.rank);

  core::ElectLeader protocol(params);
  pp::Population<core::ElectLeader> pop(std::move(config));
  pp::Simulator<core::ElectLeader> sim(protocol, std::move(pop), seed);
  const auto run = sim.run_until(
      [&](const pp::Population<core::ElectLeader>& c, std::uint64_t) {
        return core::is_safe_configuration(params, c.states());
      },
      budget, params.n);
  RecoveryOutcome out;
  if (!run.converged) return out;
  out.interactions = static_cast<double>(run.interactions);
  out.preserved = true;
  for (std::uint32_t i = 0; i < params.n; ++i) {
    out.preserved &= sim.population()[i].rank == before[i];
  }
  return out;
}

/// Standalone DetectCollision latency with one planted duplicate.
double detect_latency(const core::Params& params, std::uint64_t seed,
                      std::uint64_t budget) {
  std::vector<std::uint32_t> ranks(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) ranks[i] = i + 1;
  ranks[0] = ranks[params.n - 1];
  std::vector<core::DcState> states;
  for (const auto rank : ranks) {
    states.push_back(core::dc_initial_state(params, rank));
  }
  pp::UniformScheduler sched(params.n, seed);
  util::Rng rng(util::substream(seed, 4));
  for (std::uint64_t t = 1; t <= budget; ++t) {
    const auto [a, b] = sched.next();
    core::detect_collision(params, ranks[a], states[a], ranks[b], states[b],
                           rng);
    if (states[a].error || states[b].error) return static_cast<double>(t);
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 32);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 110));
  const auto jobs = cli.get_jobs();
  const auto start = analysis::start_from_string(
      cli.get_string("start", "adversarial"));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "A1 (design-choice ablations)",
      "Soft resets preserve correct rankings; BalanceLoad and the Θ(m²) "
      "message amplification buy the fast detection bound",
      "disabling each mechanism degrades exactly its claimed benefit");

  // --- Ablation 1: soft reset ------------------------------------------------
  //
  // The adversarial start tracks each agent's rank through the recovery
  // (ranking_preserved); the clean start runs analysis::stabilize and
  // reports the column as "-".
  {
    const bool per_agent = start == analysis::StartKind::kAdversarial;
    util::Table table({"variant", "recovery(mean)", "ranking_preserved"});
    for (const bool soft : {true, false}) {
      core::Params params = core::Params::make(n, n / 4);
      params.soft_reset_enabled = soft;
      const std::uint64_t budget = 10 * analysis::default_budget(params);
      double mean = -1.0;
      std::string preserved_cell = "- (clean)";
      if (per_agent) {
        double sum = 0;
        std::size_t preserved = 0, converged = 0;
        for (std::size_t t = 0; t < trials; ++t) {
          const auto o = recover_corrupt_messages(params, seed + t, budget);
          if (o.interactions >= 0) {
            ++converged;
            sum += o.interactions;
            preserved += o.preserved;
          }
        }
        mean = converged ? sum / converged : -1.0;
        preserved_cell = util::fmt_int(static_cast<long long>(preserved)) +
                         "/" + util::fmt_int(static_cast<long long>(trials));
      } else {
        const auto res =
            analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
              const auto run = analysis::stabilize(params, s, budget);
              return run.converged ? static_cast<double>(run.interactions)
                                   : -1.0;
            }, jobs);
        mean = res.summary.count > 0 ? res.summary.mean : -1.0;
      }
      table.add_row(
          {soft ? "soft resets ON (paper)" : "soft resets OFF (ablated)",
           util::fmt(mean, 0), preserved_cell});
    }
    std::cout << "\n[1] Recovery from corrupt_messages (n=" << n
              << ", engine=naive, start=" << analysis::start_name(start)
              << "):\n";
    table.print(std::cout);
    table.print_csv(std::cout);
  }

  // --- Ablation 2: load balancing -------------------------------------------
  {
    util::Table table({"variant", "detect(mean)", "fails"});
    for (const bool lb : {true, false}) {
      core::Params params = core::Params::make(n, n / 2);
      params.load_balancing_enabled = lb;
      const std::uint64_t L = core::Params::log2ceil(n);
      const std::uint64_t budget = 4000ull * n * L;
      const auto res =
          analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
            return detect_latency(params, s, budget);
          }, jobs);
      table.add_row(
          {lb ? "BalanceLoad ON (paper)" : "BalanceLoad OFF (ablated)",
           util::fmt(res.summary.mean, 0),
           util::fmt_int(static_cast<long long>(res.failures))});
    }
    std::cout << "\n[2] Duplicate-rank detection latency (n=" << n
              << ", r=n/2, budget-capped):\n";
    table.print(std::cout);
    table.print_csv(std::cout);
  }

  // --- Ablation 3: message multiplicity -------------------------------------
  {
    util::Table table({"variant", "detect(mean)", "msgs/agent", "fails"});
    for (const auto mult : {core::MessageMultiplicity::kFaithful,
                            core::MessageMultiplicity::kLight}) {
      const core::Params params = core::Params::make(n, n / 2, mult);
      const std::uint64_t L = core::Params::log2ceil(n);
      const std::uint64_t budget = 8000ull * n * L;
      const auto res =
          analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
            return detect_latency(params, s, budget);
          }, jobs);
      const auto held =
          core::dc_message_count(core::dc_initial_state(params, 1));
      table.add_row(
          {mult == core::MessageMultiplicity::kFaithful ? "Faithful Θ(m²)/rank"
                                                        : "Light Θ(m)/rank",
           util::fmt(res.summary.mean, 0),
           util::fmt_int(static_cast<long long>(held)),
           util::fmt_int(static_cast<long long>(res.failures))});
    }
    std::cout << "\n[3] Detection latency vs message multiplicity (n=" << n
              << ", r=n/2):\n";
    table.print(std::cout);
    table.print_csv(std::cout);
  }
  return 0;
}
