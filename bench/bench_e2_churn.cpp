// Experiment E2 (extension) — the churn soak harness: ElectLeader_r under
// composable fault schedules ({corrupt, join, leave} × {periodic, poisson,
// recovery} + battery dropout) on the counts engines, with crash-safe
// checkpoints, journal heartbeats, and soak gates.
//
//   --n=, --r=, --seed=        population / parameter / seed
//   --engine=<name>            naive | batched | leaping (leaping reroutes
//                              loudly to batched: fault injection mutates
//                              n between blocks).  naive runs the
//                              independent agent-array twin
//                              (analysis::run_fault_plan_naive)
//   --protocol=elect|loose     elect (default): ElectLeader_r — the paper's
//                              protocol; recovery is a full re-stabilization
//                              (Θ(n²/r·log n)), so thousand-cycle soaks are
//                              infeasible beyond small n.  loose: the
//                              LooseLeaderElection baseline — recovery is
//                              Θ(n·τ) and the registry is O(τ), which is
//                              what makes ≥1000-cycle soak gates at
//                              n = 10^5–10^6 runnable (counts engine only).
//   --schedule=<grammar>       analysis::parse_fault_plan grammar, e.g.
//                              "corrupt:recovery:8,leave:periodic:5000:4,
//                               join:periodic:5000:4,battery:8:20000:0.5"
//                              (default: recovery-pressure corruption plus
//                              balanced periodic leave/join, periods scaled
//                              to the protocol's recovery timescale)
//   --horizon=<interactions>   run length (default ≈ 25 recovery cycles)
//   --hours=<wall clock>       wall-clock budget; the run checkpoints and
//                              stops cleanly when it expires
//   --probe-every=<int>        safety-probe grid (default n)
//   --checkpoint=<path>        crash-safe checkpoint file; an existing
//                              file auto-resumes (kill −9 safe)
//   --checkpoint-every=<int>   interactions between saves (default 64n)
//   --fresh                    delete an existing checkpoint first
//   --journal=<path>           JSONL heartbeats with live engine counters
//                              and peak-RSS ("-" for stderr)
//   --json=<path>              structured results (obs::Report envelope)
//   --gate-soak                assert soak health and exit 1 on failure:
//                              ≥ --gate-cycles recovery cycles (default
//                              1000), bounded registry allocation, and
//                              last-decile recovery p95 ≤ 2× first-decile
//
// Availability vs fault rate on the naive twin, one point per run:
//   --engine=naive --schedule=corrupt:periodic:<period>:<burst size>
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/churn.hpp"
#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "obs/journal.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

std::uint64_t nearest_rank_p95(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::max<std::size_t>(1, (v.size() * 95 + 99) / 100);
  return v[rank - 1];
}

/// The loose-leader soak: LooseLeaderElection on the batched counts engine
/// under the same FaultPlan machinery.  Its O(τ) registry and Θ(n·τ)
/// recovery make long-cycle soaks tractable at n = 10^5–10^6.
analysis::FaultReport run_loose_fault_plan(analysis::Engine engine,
                                           const core::Params& params,
                                           const analysis::FaultPlan& plan,
                                           std::uint64_t seed,
                                           const analysis::FaultRunOptions& opts) {
  using Protocol = baselines::LooseLeaderElection;
  using State = Protocol::State;
  if (engine != analysis::Engine::kBatched) {
    std::fprintf(stderr,
                 "note: --protocol=loose is counts-native; routing "
                 "--engine=%s to the batched counts engine\n",
                 analysis::engine_name(engine));
  }
  const Protocol protocol(params.n);
  const std::uint32_t timeout = protocol.timeout();
  analysis::FaultModel<Protocol> model;
  model.label = "loose_leader";
  model.corrupt_state = [timeout](util::Rng& rng) {
    return State{rng.below(2) == 0,
                 static_cast<std::uint32_t>(rng.below(timeout + 1))};
  };
  model.join_state = [&protocol] { return protocol.initial_state(0); };
  model.safe = [](const pp::CountsConfiguration<Protocol>& c) {
    return c.count_if(Protocol::is_leader) == 1;
  };
  model.unique_leader = model.safe;
  model.encode = [](const State& s) {
    return std::string(s.leader ? "L" : "F") + std::to_string(s.timer);
  };
  model.decode = [](const std::string& text) -> std::optional<State> {
    if (text.empty() || (text[0] != 'L' && text[0] != 'F')) {
      return std::nullopt;
    }
    std::uint32_t timer = 0;
    const char* begin = text.data() + 1;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, timer);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return State{text[0] == 'L', timer};
  };
  pp::CountsConfiguration<Protocol> start(protocol);
  return analysis::run_fault_plan_counts(protocol, std::move(start), plan,
                                         seed, model, opts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 100000);
  const auto r = cli.get_count_u32("r", 8);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 130));
  const auto json_path = cli.get_string("json", "");
  const auto journal_path = cli.get_string("journal", "");
  const core::Params params = core::Params::make(n, r);

  const auto probe_every = static_cast<std::uint64_t>(
      cli.get_count("probe-every", n));

  // One journal for the whole run; every probe heartbeat carries the live
  // engine counters (population gauge, registry sizes) plus peak-RSS.
  std::unique_ptr<obs::Journal> journal;
  if (cli.has("journal")) {
    obs::Journal::Options jopts;
    jopts.path = journal_path == "-" ? "" : journal_path;
    jopts.every_interactions = 16 * probe_every;
    jopts.run = "e2_soak";
    journal = std::make_unique<obs::Journal>(std::move(jopts));
  }

  const auto engine = analysis::engine_from_string(
      cli.get_string("engine", "batched"));
  const std::string protocol_name = cli.get_string("protocol", "elect");
  if (protocol_name != "elect" && protocol_name != "loose") {
    std::fprintf(stderr, "unknown --protocol=%s (want elect or loose)\n",
                 protocol_name.c_str());
    return 2;
  }
  const bool loose = protocol_name == "loose";

  // Schedule defaults scale with the protocol's measured recovery
  // timescale, not with n: ElectLeader re-stabilizes in Θ(n²/r·log n)
  // interactions (≈ default_budget; a corrupt:recovery:8 burst at n=1000,
  // r=8 takes ~16.4M interactions ≈ 0.95 budgets to recover), while the
  // loose baseline recovers in Θ(n·τ).  Churn periods shorter than the
  // recovery time would keep the run permanently unsafe and no cycle
  // would ever complete.
  const std::uint64_t recovery_scale =
      loose ? std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(n) *
                         baselines::LooseLeaderElection(n).timeout() / 4)
            : analysis::default_budget(params) / 20;
  // Recovery from an 8-agent burst measures ≈ 1.6·recovery_scale
  // (≈ default_budget/12.5), so the defaults give a ~25-cycle run with
  // churn every ~10 cycles; long soaks pass --horizon / --hours.
  const std::uint64_t horizon = static_cast<std::uint64_t>(
      cli.get_int("horizon",
                  static_cast<std::int64_t>(40 * recovery_scale)));
  const std::uint64_t default_churn_period = 16 * recovery_scale;
  const std::string schedule = cli.get_string(
      "schedule",
      "corrupt:recovery:8,leave:periodic:" +
          std::to_string(default_churn_period) +
          ":4,join:periodic:" + std::to_string(default_churn_period) + ":4");
  const analysis::FaultPlan plan =
      analysis::parse_fault_plan(schedule, horizon, probe_every);
  analysis::validate_fault_plan(plan, params.n);

  analysis::FaultRunOptions opts;
  opts.journal = journal.get();
  opts.checkpoint_path = cli.get_string("checkpoint", "");
  opts.checkpoint_every = static_cast<std::uint64_t>(cli.get_count(
      "checkpoint-every", 64 * static_cast<std::size_t>(n)));
  opts.max_wall_seconds = cli.get_double("hours", 0.0) * 3600.0;
  if (cli.has("fresh") && !opts.checkpoint_path.empty()) {
    std::remove(opts.checkpoint_path.c_str());
  }
  const bool gate_soak = cli.has("gate-soak");
  const auto min_cycles = cli.get_count("gate-cycles", 1000);
  cli.reject_unknown_flags();

  analysis::print_banner(
      "E2 (soak: fault schedules, churn, crash-safe checkpoints)",
      "Self-stabilization ⇒ bounded memory and stable recovery across "
      "thousands of corrupt→churn→recover cycles",
      "recovery-time distribution is stationary; registry allocation stays "
      "bounded under id churn");
  std::cout << "n=" << n << " r=" << r << " protocol=" << protocol_name
            << " engine=" << analysis::engine_name(engine) << " schedule=\""
            << schedule << "\" horizon=" << horizon
            << " probe_every=" << probe_every << "\n\n";

  const auto wall_start = std::chrono::steady_clock::now();
  const analysis::FaultReport report =
      loose ? run_loose_fault_plan(engine, params, plan, seed, opts)
            : analysis::run_fault_plan(engine, params, plan, seed, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  util::Table table({"metric", "value"});
  table.add_row({"interactions",
                 util::fmt_int(static_cast<long long>(report.interactions))});
  table.add_row({"completed", report.completed ? "yes" : "no (wall clock)"});
  table.add_row({"resumed from checkpoint", report.resumed ? "yes" : "no"});
  table.add_row({"fault events",
                 util::fmt_int(static_cast<long long>(report.events))});
  table.add_row(
      {"agents corrupted/joined/left/drained",
       util::fmt_int(static_cast<long long>(report.agents_corrupted)) + "/" +
           util::fmt_int(static_cast<long long>(report.agents_joined)) + "/" +
           util::fmt_int(static_cast<long long>(report.agents_left)) + "/" +
           util::fmt_int(static_cast<long long>(report.agents_drained))});
  table.add_row({"final population",
                 util::fmt_int(static_cast<long long>(
                     report.final_population))});
  table.add_row({"leader availability %",
                 util::fmt(100.0 * report.leader_availability(), 2)});
  table.add_row({"safe availability %",
                 util::fmt(100.0 * report.safe_availability(), 2)});
  table.add_row({"recovery cycles",
                 util::fmt_int(static_cast<long long>(
                     report.recovery_times.size()))});
  table.add_row({"recovery p50 (interactions)",
                 util::fmt_int(static_cast<long long>(
                     report.recovery_quantile(0.50)))});
  table.add_row({"recovery p95 (interactions)",
                 util::fmt_int(static_cast<long long>(
                     report.recovery_quantile(0.95)))});
  table.add_row({"recovery max (interactions)",
                 util::fmt_int(static_cast<long long>(
                     report.recovery_quantile(1.0)))});
  table.add_row({"registry live/allocated states",
                 util::fmt_int(static_cast<long long>(
                     report.metrics.registry_live_states)) +
                     "/" +
                     util::fmt_int(static_cast<long long>(
                         report.metrics.registry_allocated_states))});
  table.add_row({"registry compactions",
                 util::fmt_int(static_cast<long long>(
                     report.metrics.registry_compactions))});
  table.add_row({"peak RSS (KiB)",
                 util::fmt_int(static_cast<long long>(obs::peak_rss_kb()))});
  table.add_row({"wall seconds", util::fmt(wall_seconds, 2)});
  table.add_row(
      {"interactions/sec",
       wall_seconds > 0.0
           ? util::fmt(static_cast<double>(report.interactions) / wall_seconds,
                       0)
           : "-"});
  table.print(std::cout);

  obs::Report doc("e2_soak", 10);
  doc.set("n", static_cast<std::uint64_t>(n))
      .set("r", static_cast<std::uint64_t>(r))
      .set("protocol", protocol_name)
      .set("engine", analysis::engine_name(engine))
      .set("schedule", schedule)
      .set("horizon", horizon)
      .set("probe_every", probe_every)
      .set("seed", seed)
      .set("wall_seconds", wall_seconds)
      .set("peak_rss_kb", obs::peak_rss_kb());
  doc.section("report", report.to_json());
  doc.section("metrics", report.metrics.to_json());
  doc.write_if(json_path, std::cout);

  if (!gate_soak) return 0;

  // --- soak gates -----------------------------------------------------
  bool ok = true;
  const std::size_t cycles = report.recovery_times.size();
  if (cycles < min_cycles) {
    std::fprintf(stderr,
                 "GATE: only %zu recovery cycles completed (need >= %zu)\n",
                 cycles, static_cast<std::size_t>(min_cycles));
    ok = false;
  }
  // Bounded allocation: the compaction policy admits at most
  // max(live, kCompactDeadAbsolute) dead ids between compactions, plus
  // slack for the final partial window.
  const std::uint64_t live = report.metrics.registry_live_states;
  const std::uint64_t allocated = report.metrics.registry_allocated_states;
  const std::uint64_t bound = 2 * live + (1ull << 16) + 64;
  if (allocated > bound) {
    std::fprintf(stderr,
                 "GATE: registry allocation unbounded: %llu allocated ids "
                 "for %llu live states (bound %llu)\n",
                 static_cast<unsigned long long>(allocated),
                 static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(bound));
    ok = false;
  }
  // Recovery-time stationarity: the last decile of cycles must not be more
  // than 2x slower (p95) than the first decile — a drifting distribution
  // means the protocol degrades with soak time.
  const std::size_t decile = cycles / 10;
  if (decile >= 1) {
    const std::uint64_t first = nearest_rank_p95(std::vector<std::uint64_t>(
        report.recovery_times.begin(),
        report.recovery_times.begin() + static_cast<std::ptrdiff_t>(decile)));
    const std::uint64_t last = nearest_rank_p95(std::vector<std::uint64_t>(
        report.recovery_times.end() - static_cast<std::ptrdiff_t>(decile),
        report.recovery_times.end()));
    std::cout << "gate: first-decile p95 = " << first
              << ", last-decile p95 = " << last << "\n";
    if (last > 2 * first) {
      std::fprintf(stderr,
                   "GATE: recovery time drifts: last-decile p95 %llu > 2x "
                   "first-decile p95 %llu\n",
                   static_cast<unsigned long long>(last),
                   static_cast<unsigned long long>(first));
      ok = false;
    }
  }
  if (!ok) return 1;
  std::cout << "gate-soak: OK (" << cycles << " cycles, " << allocated
            << " allocated ids for " << live << " live states)\n";
  return 0;
}
