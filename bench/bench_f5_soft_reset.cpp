// Experiment F5 — the soft-reset mechanism (§3.2, Protocol 2):
//   (a) message corruption on a CORRECT ranking is healed exclusively by
//       soft resets — the ranking (and thus the leader) survives;
//   (b) genuine rank collisions escalate to a hard reset.
// Counts soft/hard resets along recovery per corruption class.
#include <iostream>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/propagate_reset.hpp"
#include "core/safety.hpp"
#include "core/stable_verify.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

struct Outcome {
  bool converged = false;
  bool ranking_preserved = false;
  std::uint64_t soft = 0;
  std::uint64_t hard = 0;
};

/// Runs recovery while counting resets; "ranking preserved" compares the
/// final rank vector with the initial one.
Outcome run_counted(const core::Params& params, core::Corruption corruption,
                    std::uint64_t seed, std::uint64_t budget) {
  util::Rng gen(util::substream(seed, 77));
  auto config = core::make_adversarial_config(params, corruption, gen);
  std::vector<std::uint32_t> before;
  for (const auto& a : config) before.push_back(a.rank);

  core::ElectLeader protocol(params);
  pp::UniformScheduler sched(params.n, util::substream(seed, 1));
  util::Rng rng(util::substream(seed, 2));

  Outcome out;
  for (std::uint64_t t = 0; t < budget; ++t) {
    const auto [x, y] = sched.next();
    core::Agent& u = config[x];
    core::Agent& v = config[y];
    // Mirror ElectLeader::interact, but use the counted StableVerify.
    if (u.role == core::Role::kResetting) {
      core::propagate_reset(params, u, v);
    } else if (v.role == core::Role::kResetting) {
      core::propagate_reset(params, v, u);
    }
    if (u.role == core::Role::kRanking && v.role == core::Role::kRanking) {
      protocol.interact(u, v, rng);  // full wrapper handles ranking branch
    } else {
      for (auto [self, other] : {std::pair{&u, &v}, std::pair{&v, &u}}) {
        if (self->role == core::Role::kRanking &&
            (self->countdown == 0 || other->role == core::Role::kVerifying)) {
          self->role = core::Role::kVerifying;
          self->rank = std::min(std::max(self->ar.rank, 1u), params.n);
          self->sv = core::sv_initial_state(params, self->rank);
          self->ar = core::ArState{};
        }
      }
      if (u.role == core::Role::kVerifying &&
          v.role == core::Role::kVerifying) {
        const auto stats = core::stable_verify_counted(params, u, v, rng);
        out.soft += stats.soft_resets;
        out.hard += stats.hard_resets;
      }
    }
    if (t % params.n == 0 && core::is_safe_configuration(params, config)) {
      out.converged = true;
      break;
    }
  }
  if (out.converged) {
    out.ranking_preserved = true;
    for (std::uint32_t i = 0; i < params.n; ++i) {
      out.ranking_preserved &= (config[i].rank == before[i]);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 32);
  const auto r = cli.get_count_u32("r", 8);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 50));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F5 (§3.2 soft reset / probation)",
      "Message corruption on a correct ranking is repaired by soft resets "
      "only (ranking preserved); duplicate ranks escalate to hard resets",
      "corrupt_messages: preserved=trials, hard=0; duplicate_ranks/no_leader: "
      "hard>0");

  const core::Params params = core::Params::make(n, r);
  const std::uint64_t budget = 8 * analysis::default_budget(params);

  util::Table table({"class", "converged", "ranking_preserved", "soft(mean)",
                     "hard(mean)"});
  for (const auto corruption :
       {core::Corruption::kCorruptMessages, core::Corruption::kLostMessages,
        core::Corruption::kMixedGenerations, core::Corruption::kDuplicateRanks,
        core::Corruption::kNoLeader}) {
    std::uint64_t converged = 0, preserved = 0, soft = 0, hard = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const Outcome o = run_counted(params, corruption, seed + t, budget);
      converged += o.converged;
      preserved += o.ranking_preserved;
      soft += o.soft;
      hard += o.hard;
    }
    table.add_row({core::corruption_name(corruption),
                   util::fmt_int(static_cast<long long>(converged)) + "/" +
                       util::fmt_int(static_cast<long long>(trials)),
                   util::fmt_int(static_cast<long long>(preserved)) + "/" +
                       util::fmt_int(static_cast<long long>(trials)),
                   util::fmt(static_cast<double>(soft) / trials, 1),
                   util::fmt(static_cast<double>(hard) / trials, 1)});
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  std::cout << "\nn=" << n << " r=" << r << '\n';
  return 0;
}
