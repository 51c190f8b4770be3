// Experiment F11 — Appendix B derandomization: synthetic-coin samples are
// almost uniform, P[x = v] ∈ [1/(2N), 2/N] for every v ∈ [N] (Lemma B.1),
// harvested purely from scheduler randomness.
#include <iostream>
#include <map>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/synthetic_coin.hpp"
#include "pp/scheduler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 128);
  const auto samples_target =
      static_cast<std::uint64_t>(cli.get_int("samples", 200000));
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F11 (Appendix B, Lemma B.1)",
      "Each agent assembles values x ∈ [N] from partner coin bits with "
      "P[x = v] ∈ [1/(2N), 2/N]",
      "max/min empirical probability ratio ≤ 4 and within the paper's band");

  util::Table table({"N", "samples", "min_p·N", "max_p·N", "band_ok"});
  for (std::uint64_t N : {2ull, 8ull, 32ull, 256ull}) {
    std::vector<core::SyntheticCoin> agents(n, core::SyntheticCoin(N));
    util::Rng init(3);
    for (std::uint32_t i = 0; i < n; i += 2) agents[i].observe(init.coin());

    pp::UniformScheduler sched(n, 4 + N);
    std::map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t samples = 0;
    while (samples < samples_target) {
      const auto [a, b] = sched.next();
      const bool coin_a = agents[a].coin();
      const bool coin_b = agents[b].coin();
      agents[a].observe(coin_b);
      agents[b].observe(coin_a);
      for (auto idx : {a, b}) {
        if (agents[idx].ready()) {
          ++counts[agents[idx].sample()];
          ++samples;
        }
      }
    }
    double min_p = 1.0, max_p = 0.0;
    for (std::uint64_t v = 1; v <= N; ++v) {
      const double p = static_cast<double>(counts[v]) / samples;
      min_p = std::min(min_p, p);
      max_p = std::max(max_p, p);
    }
    const bool ok = min_p >= 0.5 / N && max_p <= 2.0 / N;
    table.add_row({util::fmt_int(static_cast<long long>(N)),
                   util::fmt_int(static_cast<long long>(samples)),
                   util::fmt(min_p * N, 3), util::fmt(max_p * N, 3),
                   ok ? "yes" : "NO"});
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  return 0;
}
