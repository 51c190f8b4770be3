// Experiment F3 — self-stabilization recovery (Lemma 6.3 + Theorem 1.1):
// from ANY configuration, the protocol reaches a safe configuration within
// O((n²/r)·log n) interactions w.h.p.  Measures recovery time per
// adversarial corruption class through analysis::stabilize on the naive
// engine (n = 10^5, r = 64, light recovers from corrupt_messages in ~1 s):
//
//   --n=48, --r=n/4          population size and trade-off parameter
//   --start=adversarial|clean  adversarial (default) sweeps the corruption
//                            classes; clean measures the clean-start
//                            baseline only
//   --class=<name>           restrict to one corruption class (CI smoke)
//   --budget=<interactions>  override the per-trial budget (0 = auto)
//   --mult=faithful|light    message multiplicity; faithful's Θ(m²)
//                            messages per rank are prohibitive at large n
//   --topology=complete|ring|islands:K[:intra:inter]|multipartite:K
//                            interaction topology (blocked topologies
//                            run pp::BlockedScheduler, the ring
//                            pp::GraphScheduler)
//   --json=<path>            structured results (obs::Report envelope)
#include <iostream>
#include <utility>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/params.hpp"
#include "obs/journal.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 48);
  const auto r = cli.get_count_u32("r", n / 4);
  const auto trials = cli.get_count("trials", 5);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 30));
  const auto jobs = cli.get_jobs();
  const auto start = analysis::start_from_string(
      cli.get_string("start", "adversarial"));
  const auto class_filter = cli.get_string("class", "");
  const auto mult = analysis::multiplicity_from_string(
      cli.get_string("mult", "faithful"));
  const auto topology = analysis::topology_from_string(
      cli.get_string("topology", "complete"));
  const auto json_path = cli.get_string("json", "");
  std::uint64_t budget = cli.get_count("budget", 0);
  cli.reject_unknown_flags();

  analysis::print_banner(
      "F3 (Lemma 6.3 recovery)",
      "From an arbitrary configuration, ElectLeader_r triggers a reset or "
      "reaches C_safe within O((n²/r)·log n) interactions w.h.p.",
      "every corruption class recovers within the budget; clean-start time "
      "is the baseline row ('none' = already safe, 0)");

  const core::Params params = core::Params::make(n, r, mult);
  if (budget == 0) budget = 8 * analysis::default_budget(params);

  // Row set: the corruption classes (adversarial), or the single clean
  // baseline.  --class narrows the sweep to one class, e.g. for CI smoke
  // at n = 10^5 where the full matrix would take minutes.
  std::vector<core::Corruption> classes;
  if (start == analysis::StartKind::kClean) {
    classes.push_back(core::Corruption::kNone);
  } else if (class_filter.empty()) {
    classes = core::all_corruptions();
  } else {
    for (const auto c : core::all_corruptions()) {
      if (core::corruption_name(c) == class_filter) classes.push_back(c);
    }
    if (classes.empty()) {
      std::cerr << "error: --class=" << class_filter
                << " is not a corruption class\n";
      return 2;
    }
  }

  obs::Report report("f3_recovery", 8);
  report.set("n", static_cast<std::uint64_t>(n))
      .set("r", static_cast<std::uint64_t>(r))
      .set("trials", static_cast<std::uint64_t>(trials))
      .set("engine", "naive")
      .set("start", analysis::start_name(start))
      .set("mult", analysis::multiplicity_name(mult))
      .set("topology", analysis::topology_name(topology))
      .set("budget", budget);
  auto rows = util::Json::array();

  util::Table table({"class", "recov.interactions(mean)", "ci95", "par.time",
                     "p90", "fails"});
  for (const auto corruption : classes) {
    const auto result =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          const auto run = analysis::stabilize(start, params, corruption, s,
                                               budget, topology);
          return run.converged ? static_cast<double>(run.interactions) : -1.0;
        }, jobs);
    const std::string label = start == analysis::StartKind::kClean
                                  ? "clean"
                                  : core::corruption_name(corruption);
    table.add_row({label,
                   util::fmt(result.summary.mean, 0),
                   util::fmt(util::ci95_halfwidth(result.summary), 0),
                   util::fmt(result.summary.mean / n, 1),
                   util::fmt(result.summary.p90, 0),
                   util::fmt_int(static_cast<long long>(result.failures))});
    auto row = util::Json::object();
    row.set("class", label);
    row.set("mean_interactions", result.summary.mean);
    row.set("ci95", util::ci95_halfwidth(result.summary));
    row.set("p90", result.summary.p90);
    row.set("failures", static_cast<std::uint64_t>(result.failures));
    rows.push(std::move(row));
  }
  table.print(std::cout);
  table.print_csv(std::cout);
  std::cout << "\nn=" << n << " r=" << r
            << "  engine=naive start=" << analysis::start_name(start)
            << " mult=" << analysis::multiplicity_name(mult)
            << " topology=" << analysis::topology_name(topology)
            << "  (budget per trial: " << budget << " interactions)"
            << "  peak_rss=" << obs::peak_rss_kb() << " kB\n";
  report.set("peak_rss_kb", obs::peak_rss_kb());
  report.section("recovery", std::move(rows));
  report.write_if(json_path, std::cout);
  return 0;
}
