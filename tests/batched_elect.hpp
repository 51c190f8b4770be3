// ElectLeader_r on the batched counts engine, for the law checks that keep
// its q ≈ n kernel path honest: the fault runner's soak advances exactly
// this configuration (pp::BatchedSimulator<core::ElectLeader> probed by the
// counts-native core::is_safe_configuration), while analysis::stabilize runs
// the naive engine.  Starts are drawn like analysis::stabilize draws them
// (the protocol's clean configuration, or make_adversarial_config on
// substream 77 of the seed), so the two engines differ only in their laws.
#pragma once

#include <cstdint>
#include <utility>

#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/safety.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/counts.hpp"
#include "util/rng.hpp"

namespace ssle::analysis {

/// Advances `start` on the batched engine until the safe predicate holds at
/// a probe (every n interactions) or the budget runs out.
inline StabilizationResult stabilize_batched(
    const core::Params& params,
    pp::CountsConfiguration<core::ElectLeader> start, std::uint64_t seed,
    std::uint64_t max_interactions) {
  const core::ElectLeader protocol(params);
  pp::BatchedSimulator<core::ElectLeader> sim(protocol, std::move(start),
                                              seed);
  const auto run = sim.run_until(
      [&](const pp::CountsConfiguration<core::ElectLeader>& c, std::uint64_t) {
        return core::is_safe_configuration(params, c);
      },
      max_interactions, params.n);
  StabilizationResult res;
  res.converged = run.converged;
  res.interactions = run.interactions;
  res.parallel_time = run.parallel_time(params.n);
  res.leaders = static_cast<std::uint32_t>(
      sim.config().count_if(core::ElectLeader::is_leader));
  res.metrics = sim.metrics();
  return res;
}

/// From the protocol's clean initial configuration.
inline StabilizationResult stabilize_batched(const core::Params& params,
                                             std::uint64_t seed,
                                             std::uint64_t max_interactions) {
  const core::ElectLeader protocol(params);
  return stabilize_batched(
      params, pp::CountsConfiguration<core::ElectLeader>(protocol), seed,
      max_interactions);
}

/// From an adversarial configuration of the given class.
inline StabilizationResult stabilize_batched(const core::Params& params,
                                             core::Corruption corruption,
                                             std::uint64_t seed,
                                             std::uint64_t max_interactions) {
  util::Rng rng(util::substream(seed, 77));
  return stabilize_batched(
      params,
      pp::CountsConfiguration<core::ElectLeader>(
          core::make_adversarial_config(params, corruption, rng)),
      seed, max_interactions);
}

}  // namespace ssle::analysis
