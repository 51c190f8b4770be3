// Experiment F6 — state complexity (Fig. 1–3, Theorem 1.1, §2 comparison):
// evaluates the exact per-agent bit complexity of ElectLeader_r across the
// r range and against the baselines, plus the live memory footprint of a
// stabilized simulation (analysis::census).
#include <cmath>
#include <iostream>

#include "analysis/census.hpp"
#include "analysis/experiment.hpp"
#include "core/adversary.hpp"
#include "core/state_size.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 1024);
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F6 (state complexity trade-off)",
      "ElectLeader_r uses 2^{O(r² log n)} states (DetectCollision dominates "
      "at 2^{O(r² log r)}, Fig. 3); baseline SSR uses 2^{Θ(n log n)}; CIW "
      "uses n states",
      "bits grow ~r²·log r in r; polylog r beats the SSR baseline at large n");

  util::Table table({"n", "r", "bits(DetectCollision)", "bits(AssignRanks)",
                     "bits(ElectLeader)", "bits(SSR)", "bits(CIW)"});
  for (std::uint32_t r = 1; r <= n / 2; r *= 4) {
    const core::Params p = core::Params::make(n, r);
    table.add_row({util::fmt_int(n), util::fmt_int(r),
                   util::fmt(core::bits_detect_collision(p), 0),
                   util::fmt(core::bits_assign_ranks(p), 0),
                   util::fmt(core::bits_elect_leader(p), 0),
                   util::fmt(core::bits_ssr_baseline(n), 0),
                   util::fmt(core::bits_ciw(n), 0)});
  }
  table.print(std::cout);
  table.print_csv(std::cout);

  // Crossover scan: smallest n where ElectLeader_{log² n} beats SSR bits.
  std::cout << "\nPolylog-regime crossover (r = ⌈log² n⌉):\n";
  util::Table cross({"n", "bits(ElectLeader_polylog)", "bits(SSR)", "winner"});
  for (std::uint32_t nn = 256; nn <= (1u << 22); nn *= 4) {
    const auto L = static_cast<std::uint32_t>(std::log2(nn));
    const core::Params p = core::Params::make(nn, L * L);
    const double el = core::bits_elect_leader(p);
    const double ssr = core::bits_ssr_baseline(nn);
    cross.add_row({util::fmt_int(nn), util::fmt(el, 0), util::fmt(ssr, 0),
                   el < ssr ? "ElectLeader" : "SSR"});
  }
  cross.print(std::cout);
  cross.print_csv(std::cout);

  // Live footprint of a stabilized population (what the simulation holds).
  std::cout << "\nLive simulated footprint at a safe configuration "
               "(messages are the dominant cost):\n";
  util::Table live({"n", "r", "messages", "approx_MiB"});
  for (std::uint32_t nn : {32u, 64u, 128u}) {
    for (std::uint32_t r : {4u, nn / 2}) {
      const core::Params p = core::Params::make(nn, r);
      const auto config = core::make_safe_config(p);
      const auto census = analysis::take_census(p, config);
      live.add_row({util::fmt_int(nn), util::fmt_int(r),
                    util::fmt_int(static_cast<long long>(census.total_messages)),
                    util::fmt(static_cast<double>(census.approx_bytes) /
                                  (1024.0 * 1024.0),
                              2)});
    }
  }
  live.print(std::cout);
  live.print_csv(std::cout);
  return 0;
}
