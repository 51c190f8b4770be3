// Example: a chemical reaction network with a self-stabilizing "catalyst".
//
// Population protocols are equivalent to chemical reaction networks with
// unit rates (paper §1 cites Doty'14).  Many CRN constructions need a
// *catalyst/leader molecule* with exactly one copy: with two copies the
// downstream computation double-fires, with zero it stalls.  This example
// couples a simple downstream CRN — a leader-driven phase clock — to
// ElectLeader_r and shows the clock only ticks cleanly once the leader
// count self-stabilizes to one, including after a "contamination" event
// that injects extra catalyst copies.
//
//   ./examples/chemical_oscillator_guard [--n=48] [--r=12] [--seed=11]
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "core/stable_verify.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"

namespace {

using namespace ssle;

/// Downstream CRN: a leader-driven phase clock.  The catalyst (leader)
/// advances its phase when meeting a molecule marked with its own phase;
/// non-catalysts copy the catalyst's phase.  With a unique catalyst the
/// phase advances in clean Θ(n log n)-interaction rounds; with duplicated
/// catalysts the phases race and "misfire" (two catalysts in different
/// phases both advancing).
struct PhaseClock {
  std::vector<std::uint8_t> phase;
  std::uint64_t ticks = 0;
  std::uint64_t misfires = 0;

  explicit PhaseClock(std::uint32_t n) : phase(n, 0) {}

  void react(std::uint32_t a, std::uint32_t b, bool a_cat, bool b_cat) {
    if (a_cat && b_cat) {
      if (phase[a] != phase[b]) ++misfires;  // racing catalysts
      return;
    }
    if (!a_cat && !b_cat) return;
    const std::uint32_t cat = a_cat ? a : b;
    const std::uint32_t mol = a_cat ? b : a;
    if (phase[mol] == phase[cat]) {
      phase[cat] = (phase[cat] + 1) % 8;  // the round is complete: tick
      ++ticks;
    } else {
      phase[mol] = phase[cat];
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 48);
  const auto r = cli.get_count_u32("r", 12);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  cli.reject_unknown_flags();

  const core::Params params = core::Params::make(n, r);
  core::ElectLeader protocol(params);
  std::vector<core::Agent> soup;
  for (std::uint32_t i = 0; i < n; ++i) soup.push_back(protocol.initial_state(i));
  PhaseClock clock(n);
  pp::UniformScheduler sched(n, seed);
  util::Rng rng(util::substream(seed, 2));

  const std::uint64_t epoch = 2000ull * n;  // report interval
  bool contaminated = false;
  std::uint64_t prev_ticks = 0, prev_misfires = 0;

  std::cout << "CRN with self-stabilizing catalyst: n=" << n << " r=" << r
            << "\nepoch  catalysts  ticks  misfires  note\n";
  for (int e = 0; e < 14; ++e) {
    for (std::uint64_t t = 0; t < epoch; ++t) {
      const auto [a, b] = sched.next();
      protocol.interact(soup[a], soup[b], rng);
      clock.react(a, b, core::ElectLeader::is_leader(soup[a]),
                  core::ElectLeader::is_leader(soup[b]));
    }
    const auto leaders = core::leader_count(soup);
    std::cout << e << "      " << leaders << "          "
              << clock.ticks - prev_ticks << "     "
              << clock.misfires - prev_misfires << "        "
              << (contaminated ? "(recovering)" : "") << '\n';
    prev_ticks = clock.ticks;
    prev_misfires = clock.misfires;

    if (e == 7) {
      // Contamination: clone the catalyst into three extra molecules.
      std::uint32_t donor = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (core::ElectLeader::is_leader(soup[i])) donor = i;
      }
      for (std::uint32_t i = 1; i <= 3; ++i) {
        soup[(donor + i) % n] = soup[donor];
      }
      contaminated = true;
      std::cout << ">>> contamination: 3 extra catalyst copies injected\n";
    }
    if (contaminated && core::leader_count(soup) == 1 &&
        core::is_safe_configuration(params, soup)) {
      contaminated = false;
      std::cout << ">>> catalyst uniqueness restored by self-stabilization\n";
    }
  }

  const bool ok = core::leader_count(soup) == 1;
  std::cout << "\nfinal: catalysts=" << core::leader_count(soup)
            << " total_ticks=" << clock.ticks
            << " total_misfires=" << clock.misfires << '\n';
  return ok ? 0 : 1;
}
