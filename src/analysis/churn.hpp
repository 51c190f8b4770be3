// Fault injection: composable {corrupt, join, leave} schedules run against
// a live protocol, measuring availability and per-cycle recovery time — the
// operational consequence of self-stabilization (the protocol re-converges
// after every fault, forever, without external intervention).
//
// FaultPlan is the engine-generic schedule language.  A plan is a list of
// FaultRules (action × timing × burst size) plus an optional
// battery-dropout model, validated hard (exit 2 naming the offending field)
// and runnable on
//   - the batched counts engine (run_fault_plan_counts): faults are
//     O(log q) registry edits (pp::CountsConfiguration::insert_agent /
//     remove_agent) between blocks, so a churn soak runs at n = 10^5–10^6;
//     counts-native probes; crash-safe checkpoints (obs/checkpoint.hpp)
//     with the full fault cursor on board;
//   - the naive agent-array engine (run_fault_plan_naive): an independent
//     twin over std::vector<State>, the reference law that pins the counts
//     runner at tiny n (TV-distance tests).
//
// Timing kinds:
//   periodic — fire every `period` interactions;
//   poisson  — exponential inter-event gaps with mean `period` (memoryless
//              background churn);
//   recovery — the adversarial schedule: fire at every probe that reports a
//              SAFE configuration, i.e. re-fault the protocol the moment it
//              has provably recovered (worst-case sustained pressure).
//
// Battery model (sensor-network dropout): every agent carries a quantized
// charge in {0..levels}, held OUTSIDE the protocol state as a histogram —
// charge is exchangeable across agents, so the histogram is the exact
// lumping.  Every `decay_every` interactions each charged agent loses one
// level with probability `decay_prob`; agents reaching 0 drop out of the
// population.  Joining agents enter fully charged.
//
// Recovery cycles: a cycle opens at the first fault event after a safe
// probe (or after the start) and closes at the next safe probe; its length
// in interactions is one recovery-time sample.  The report carries the full
// sample vector plus nearest-rank quantiles (p50/p95/max) — distributions,
// not just availability fractions.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/params.hpp"
#include "analysis/measure.hpp"
#include "obs/checkpoint.hpp"
#include "obs/journal.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/counts.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ssle::analysis {

// --- FaultPlan: the engine-generic schedule language ----------------------

enum class FaultAction { kCorrupt, kJoin, kLeave };
enum class FaultTiming { kPeriodic, kPoisson, kOnRecovery };

struct FaultRule {
  FaultAction action = FaultAction::kCorrupt;
  FaultTiming timing = FaultTiming::kPeriodic;
  /// kPeriodic: interactions between events.  kPoisson: MEAN interaction
  /// gap (exponential).  Unused (0) for kOnRecovery.
  std::uint64_t period = 0;
  /// Agents affected per event (the burst size).
  std::uint64_t count = 1;
};

/// Quantized per-agent charge decay (sensor-network dropout).  Disabled
/// when levels == 0.
struct BatteryModel {
  std::uint32_t levels = 0;      ///< charge quantization (agents start full)
  std::uint64_t decay_every = 0; ///< interactions between decay ticks
  double decay_prob = 1.0;       ///< per-agent decrement chance per tick
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  BatteryModel battery;
  /// Total interactions to simulate.
  std::uint64_t horizon = 0;
  /// Interactions between safety probes (the availability / recovery grid).
  std::uint64_t probe_every = 0;
};

/// Parses the --schedule grammar (comma-separated rules):
///
///   corrupt|join|leave : periodic|poisson : <period> : <count>
///   corrupt|join|leave : recovery : <count>
///   battery : <levels> : <decay_every> [ : <decay_prob> ]
///
/// e.g. "corrupt:recovery:8,leave:periodic:5000:4,join:periodic:5000:4".
/// Exits with code 2 (naming the bad part) on anything else.  The returned
/// plan still needs validate_fault_plan against the population size.
FaultPlan parse_fault_plan(const std::string& spec, std::uint64_t horizon,
                           std::uint64_t probe_every);

/// Hard validation, exit(2) naming the field: horizon = 0, probe_every = 0,
/// zero periods/means/counts, corrupt bursts larger than the population,
/// leave bursts that would drop the (initial) population below 2, and
/// malformed battery models.  Runners call this before starting; the leave
/// guard is re-checked dynamically as the population moves.
void validate_fault_plan(const FaultPlan& plan, std::uint64_t n);

/// One fault-plan run's outcome.  Availability is the fraction of probes
/// that pass; recovery_times holds one sample per completed cycle.
struct FaultReport {
  std::uint64_t probes = 0;
  std::uint64_t probes_safe = 0;
  std::uint64_t probes_with_unique_leader = 0;
  std::uint64_t events = 0;  ///< fault events executed (bursts, not agents)
  std::uint64_t agents_corrupted = 0;
  std::uint64_t agents_joined = 0;
  std::uint64_t agents_left = 0;
  std::uint64_t agents_drained = 0;  ///< battery deaths
  std::uint64_t interactions = 0;    ///< where the run stopped
  std::uint64_t final_population = 0;
  /// Order-sensitive FNV fingerprint of the final canonical registry
  /// ((state hash, count) in id order) — counts runner only.  Two runs of
  /// the SAME binary that followed the same trajectory match; it is not a
  /// portable digest.  The CI kill−9/resume smoke compares it.
  std::uint64_t registry_fingerprint = 0;
  bool completed = false;  ///< horizon reached (false: wall-clock stop)
  bool resumed = false;    ///< this run restored a checkpoint
  /// Completed recovery cycles, in interactions (see file header).
  std::vector<std::uint64_t> recovery_times;
  /// Final engine counter snapshot (registry gauges drive the soak gate's
  /// bounded-allocation check).  Process-local: NOT checkpointed — a
  /// resumed run's counters restart at the resume point.
  obs::EngineMetrics metrics;

  double safe_availability() const {
    return probes == 0
               ? 0.0
               : static_cast<double>(probes_safe) / static_cast<double>(probes);
  }
  double leader_availability() const {
    return probes == 0 ? 0.0
                       : static_cast<double>(probes_with_unique_leader) /
                             static_cast<double>(probes);
  }
  /// Nearest-rank quantile of recovery_times (q in [0, 1]; 1 = max).
  /// 0 when no cycle completed.
  std::uint64_t recovery_quantile(double q) const;
  util::Json to_json() const;
};

/// Knobs shared by the fault runners.  Checkpointing is counts-native: the
/// naive runner rejects a checkpoint request (exit 2).
struct FaultRunOptions {
  obs::Journal* journal = nullptr;
  /// Crash-safe checkpoint file (empty = no checkpointing).  When set, a
  /// checkpoint (engine + fault cursor) is written atomically every
  /// `checkpoint_every` interactions at the probe grid, and an existing
  /// file at the path is resumed from (bit-identically) unless `resume`
  /// is false.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every = 0;
  bool resume = true;
  /// Wall-clock budget checked at probes (0 = unlimited).  On expiry the
  /// run checkpoints (if enabled) and returns with completed = false.
  double max_wall_seconds = 0.0;
};

/// How a fault plan touches a specific protocol: the state drawn into a
/// corrupted slot, the state of a joining agent, and the probe predicates.
/// encode/decode are the per-state checkpoint codec (leave empty to run
/// without checkpoint support); unique_leader may be empty for leaderless
/// protocols.
template <pp::Protocol P>
struct FaultModel {
  using State = typename P::State;
  std::function<State(util::Rng&)> corrupt_state;
  std::function<State()> join_state;
  std::function<bool(const pp::CountsConfiguration<P>&)> safe;
  std::function<bool(const pp::CountsConfiguration<P>&)> unique_leader;
  std::function<std::string(const State&)> encode;
  std::function<std::optional<State>(const std::string&)> decode;
  std::string label = "protocol";
};

/// The naive twin's view: identical knobs over the agent array.
template <pp::Protocol P>
struct NaiveFaultModel {
  using State = typename P::State;
  std::function<State(util::Rng&)> corrupt_state;
  std::function<State()> join_state;
  std::function<bool(const std::vector<State>&)> safe;
  std::function<bool(const std::vector<State>&)> unique_leader;
};

/// Runs ElectLeader_r from a safe configuration under `plan` on the chosen
/// engine.  kBatched is the native path (counts edits + counts probes +
/// checkpoints); kNaive is the reference twin; kLeaping reroutes loudly to
/// kBatched (fault injection mutates the population between blocks, which
/// the leap engine's windows do not support).
FaultReport run_fault_plan(Engine engine, const core::Params& params,
                           const FaultPlan& plan, std::uint64_t seed,
                           const FaultRunOptions& opts = {});

// --- implementation machinery (shared by the template runners) ------------

/// Sentinel "this rule is not scheduled" time.
inline constexpr std::uint64_t kFaultNever = ~std::uint64_t{0};

/// Serializable mid-run state of a fault-plan run: everything the future
/// of the schedule depends on beyond the engine itself.  Travels as the
/// opaque `cursor` member of obs::CheckpointDoc.
struct FaultCursor {
  std::uint64_t t = 0;
  std::uint64_t last_checkpoint = 0;
  bool in_cycle = false;
  std::uint64_t cycle_start = 0;
  std::array<std::uint64_t, 4> fault_rng{};
  std::vector<std::uint64_t> next;     ///< per-rule next fire time
  std::vector<std::uint64_t> battery;  ///< charge histogram (empty = off)
  FaultReport report;                  ///< counters + recovery samples so far
};

util::Json fault_cursor_to_json(const FaultCursor& cur);
std::optional<FaultCursor> fault_cursor_from_json(const util::Json& j);

[[noreturn]] void fault_plan_die(const std::string& message);

/// Exponential inter-event gap with the given mean, quantized to >= 1
/// interaction (the poisson timing's gap law).
inline std::uint64_t poisson_gap(util::Rng& rng, std::uint64_t mean) {
  const double g =
      -std::log(1.0 - rng.real()) * static_cast<double>(mean);
  if (!(g < 9.0e18)) return static_cast<std::uint64_t>(9.0e18);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(g)));
}

/// Order-sensitive FNV-1a fingerprint of a counts registry in id order.
/// Stable within one binary only (std::hash is not portable) — a
/// trajectory-comparison aid, not a digest.
template <pp::Protocol P>
std::uint64_t registry_fingerprint(const pp::CountsConfiguration<P>& cfg) {
  std::uint64_t h = 1469598103934665603ull;
  cfg.for_each([&](const typename P::State& s, std::uint64_t c) {
    h ^= std::hash<typename P::State>{}(s);
    h *= 1099511628211ull;
    h ^= c;
    h *= 1099511628211ull;
  });
  return h;
}

namespace detail {

/// Draws exponential/periodic initial fire times for every rule.
inline void arm_rules(const FaultPlan& plan, util::Rng& fault_rng,
                      std::vector<std::uint64_t>* next) {
  next->assign(plan.rules.size(), kFaultNever);
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    switch (plan.rules[i].timing) {
      case FaultTiming::kPeriodic:
        (*next)[i] = plan.rules[i].period;
        break;
      case FaultTiming::kPoisson:
        (*next)[i] = poisson_gap(fault_rng, plan.rules[i].period);
        break;
      case FaultTiming::kOnRecovery:
        break;  // fires off the probe grid, not the clock
    }
  }
}

/// The earliest scheduled instant strictly after `t`: rule timers plus the
/// battery decay grid.  kFaultNever when nothing is scheduled.
inline std::uint64_t next_fault_time(const FaultPlan& plan,
                                     const std::vector<std::uint64_t>& next,
                                     std::uint64_t t) {
  std::uint64_t e = kFaultNever;
  for (const std::uint64_t nx : next) e = std::min(e, nx);
  if (plan.battery.levels > 0) {
    e = std::min(e, (t / plan.battery.decay_every + 1) *
                        plan.battery.decay_every);
  }
  return e;
}

/// Exact binomial(trials, p) via per-trial Bernoulli draws; p >= 1 is the
/// deterministic (and draw-free) fast path the default battery uses.
inline std::uint64_t binomial_draw(util::Rng& rng, std::uint64_t trials,
                                   double p) {
  if (p >= 1.0) return trials;
  std::uint64_t d = 0;
  for (std::uint64_t k = 0; k < trials; ++k) d += rng.real() < p ? 1 : 0;
  return d;
}

/// Removes one uniformly-random charge from the histogram (the battery of
/// an agent leaving the population; charge is exchangeable across agents).
inline void battery_remove_random(std::vector<std::uint64_t>* hist,
                                  util::Rng& rng) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : *hist) total += c;
  if (total == 0) return;
  std::uint64_t pos = rng.below(total);
  for (auto& c : *hist) {
    if (pos < c) {
      --c;
      return;
    }
    pos -= c;
  }
}

}  // namespace detail

/// The counts-native fault runner: `plan` against a pp::BatchedSimulator
/// over `start`.  Faults are O(log q) registry edits between blocks; the
/// engine re-reads the population per block, so n may drift freely (the
/// block envelope, scheduler weights and metrics all track the live n).
/// See the file header for cycle semantics and FaultRunOptions for
/// checkpointing.  `final_out` (optional) receives the final configuration
/// — the tiny-n TV parity tests compare its law against the naive twin's.
template <pp::Protocol P>
FaultReport run_fault_plan_counts(
    const P& protocol, pp::CountsConfiguration<P> start,
    const FaultPlan& plan, std::uint64_t seed, const FaultModel<P>& model,
    const FaultRunOptions& opts = {},
    pp::CountsConfiguration<P>* final_out = nullptr) {
  validate_fault_plan(plan, start.population_size());
  const std::uint64_t n0 = start.population_size();
  pp::BatchedSimulator<P> sim(protocol, std::move(start), seed);
  util::Rng fault_rng(util::substream(seed, 3));

  const bool want_ckpt = !opts.checkpoint_path.empty();
  if (want_ckpt && !(model.encode && model.decode)) {
    fault_plan_die("checkpointing requested but the protocol model has no "
                   "state codec (field: checkpoint_path)");
  }
  if (want_ckpt && opts.checkpoint_every == 0) {
    fault_plan_die("checkpoint_every must be positive when a checkpoint "
                   "path is set (field: checkpoint_every)");
  }

  FaultCursor cur;
  if (plan.battery.levels > 0) {
    cur.battery.assign(plan.battery.levels + 1, 0);
    cur.battery[plan.battery.levels] = n0;
  }

  bool resumed = false;
  if (want_ckpt && opts.resume) {
    if (auto doc = obs::checkpoint_load(opts.checkpoint_path)) {
      if (!doc->cursor) {
        fault_plan_die("checkpoint at " + opts.checkpoint_path +
                       " carries no fault cursor (not a fault-plan "
                       "checkpoint)");
      }
      auto restored = fault_cursor_from_json(*doc->cursor);
      if (!restored || restored->next.size() != plan.rules.size() ||
          restored->t != doc->interactions ||
          (plan.battery.levels > 0) !=
              (restored->battery.size() == plan.battery.levels + 1u)) {
        fault_plan_die("checkpoint at " + opts.checkpoint_path +
                       " has a fault cursor inconsistent with this plan");
      }
      if (!obs::restore_checkpoint(sim, *doc, model.label, model.decode)) {
        fault_plan_die("checkpoint at " + opts.checkpoint_path +
                       " does not restore into this engine/protocol");
      }
      cur = std::move(*restored);
      fault_rng.set_state(cur.fault_rng);
      resumed = true;
    }
  }
  if (!resumed) detail::arm_rules(plan, fault_rng, &cur.next);
  FaultReport& report = cur.report;
  report.resumed = resumed;

  const auto wall_start = std::chrono::steady_clock::now();

  const auto start_cycle = [&](std::uint64_t t) {
    if (!cur.in_cycle) {
      cur.in_cycle = true;
      cur.cycle_start = t;
    }
  };

  const auto apply_rule = [&](const FaultRule& rule, std::uint64_t t) {
    auto& cfg = sim.config();
    ++report.events;
    switch (rule.action) {
      case FaultAction::kCorrupt:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          const std::uint64_t live = cfg.population_size();
          const std::uint32_t idx = cfg.sample_class(fault_rng.below(live));
          cfg.remove_agent(idx);
          cfg.insert_agent(model.corrupt_state(fault_rng));
          ++report.agents_corrupted;
        }
        break;
      case FaultAction::kJoin:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          cfg.insert_agent(model.join_state());
          if (!cur.battery.empty()) ++cur.battery[plan.battery.levels];
          ++report.agents_joined;
        }
        break;
      case FaultAction::kLeave:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          const std::uint64_t live = cfg.population_size();
          if (live <= 2) {
            fault_plan_die("leave event would reduce the population below 2 "
                           "(field: count)");
          }
          cfg.remove_agent(cfg.sample_class(fault_rng.below(live)));
          if (!cur.battery.empty()) {
            detail::battery_remove_random(&cur.battery, fault_rng);
          }
          ++report.agents_left;
        }
        break;
    }
    start_cycle(t);
  };

  const auto battery_tick = [&](std::uint64_t t) {
    auto& hist = cur.battery;
    for (std::uint32_t l = 1; l <= plan.battery.levels; ++l) {
      const std::uint64_t d =
          detail::binomial_draw(fault_rng, hist[l], plan.battery.decay_prob);
      hist[l] -= d;
      hist[l - 1] += d;
    }
    const std::uint64_t deaths = hist[0];
    if (deaths == 0) return;
    auto& cfg = sim.config();
    if (cfg.population_size() < deaths + 2) {
      fault_plan_die("battery dropout would reduce the population below 2 "
                     "(field: levels)");
    }
    for (std::uint64_t k = 0; k < deaths; ++k) {
      cfg.remove_agent(
          cfg.sample_class(fault_rng.below(cfg.population_size())));
    }
    hist[0] = 0;
    report.agents_drained += deaths;
    ++report.events;
    start_cycle(t);
  };

  const auto save_checkpoint = [&] {
    cur.fault_rng = fault_rng.state();
    auto doc = obs::make_checkpoint(sim, model.label, model.encode);
    doc.cursor = fault_cursor_to_json(cur);
    if (!obs::checkpoint_save(opts.checkpoint_path, doc)) {
      std::fprintf(stderr,
                   "error: fault plan: checkpoint write to %s failed\n",
                   opts.checkpoint_path.c_str());
      std::exit(1);
    }
    if (opts.journal) {
      auto payload = util::Json::object();
      payload.set("t", static_cast<std::int64_t>(cur.t));
      payload.set("path", opts.checkpoint_path);
      opts.journal->event("checkpoint", std::move(payload));
    }
  };

  bool wall_expired = false;
  while (cur.t < plan.horizon && !wall_expired) {
    const std::uint64_t next_probe =
        (cur.t / plan.probe_every + 1) * plan.probe_every;
    const std::uint64_t next_event =
        detail::next_fault_time(plan, cur.next, cur.t);
    const std::uint64_t stop =
        std::min({plan.horizon, next_probe, next_event});
    if (stop > cur.t) sim.step(stop - cur.t);
    cur.t = stop;

    // Faults due now run BEFORE the probe at the same instant: burst, then
    // probe.
    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
      if (cur.next[i] != cur.t) continue;
      const FaultRule& rule = plan.rules[i];
      apply_rule(rule, cur.t);
      cur.next[i] = rule.timing == FaultTiming::kPeriodic
                        ? cur.t + rule.period
                        : cur.t + poisson_gap(fault_rng, rule.period);
    }
    if (plan.battery.levels > 0 &&
        cur.t % plan.battery.decay_every == 0) {
      battery_tick(cur.t);
    }

    if (cur.t % plan.probe_every == 0) {
      ++report.probes;
      const auto& cfg = sim.config();
      const bool safe = model.safe(cfg);
      report.probes_safe += safe ? 1 : 0;
      if (model.unique_leader) {
        report.probes_with_unique_leader += model.unique_leader(cfg) ? 1 : 0;
      }
      if (safe && cur.in_cycle) {
        report.recovery_times.push_back(cur.t - cur.cycle_start);
        cur.in_cycle = false;
      }
      if (safe) {
        for (std::size_t i = 0; i < plan.rules.size(); ++i) {
          if (plan.rules[i].timing == FaultTiming::kOnRecovery) {
            apply_rule(plan.rules[i], cur.t);
          }
        }
      }
      if (opts.journal) opts.journal->tick(cur.t, sim.metrics());
      if (opts.max_wall_seconds > 0.0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   wall_start)
                                   .count();
        wall_expired = elapsed >= opts.max_wall_seconds;
      }
      if (want_ckpt && (cur.t - cur.last_checkpoint >= opts.checkpoint_every ||
                        (wall_expired && cur.t > cur.last_checkpoint))) {
        cur.last_checkpoint = cur.t;
        save_checkpoint();
      }
    }
  }

  // Final checkpoint, so a re-invocation of a finished soak resumes to a
  // no-op instead of rerunning.  (Saving canonicalizes — do it before the
  // fingerprint so full and resumed runs fingerprint the same layout.)
  if (want_ckpt && !wall_expired && cur.t > cur.last_checkpoint) {
    cur.last_checkpoint = cur.t;
    save_checkpoint();
  }

  report.completed = cur.t >= plan.horizon;
  report.interactions = cur.t;
  report.final_population = sim.config().population_size();
  report.registry_fingerprint = registry_fingerprint(sim.config());
  report.metrics = sim.metrics();
  if (final_out) *final_out = sim.config();
  return report;
}

/// The naive twin: the same plan semantics over a per-agent array with a
/// hand-rolled uniform ordered-pair scheduler — written independently of
/// the counts runner so tiny-n TV tests pin the two laws against each
/// other.  No checkpoint support (counts-native only; a request exits 2).
template <pp::Protocol P>
FaultReport run_fault_plan_naive(
    const P& protocol, std::vector<typename P::State> config,
    const FaultPlan& plan, std::uint64_t seed,
    const NaiveFaultModel<P>& model, const FaultRunOptions& opts = {},
    std::vector<typename P::State>* final_out = nullptr) {
  validate_fault_plan(plan, config.size());
  if (!opts.checkpoint_path.empty()) {
    fault_plan_die("checkpointing is counts-native; run the fault plan on "
                   "--engine=batched (field: checkpoint_path)");
  }
  util::Rng sched_rng(util::substream(seed, 1));
  util::Rng agent_rng(util::substream(seed, 2));
  util::Rng fault_rng(util::substream(seed, 3));

  FaultCursor cur;
  detail::arm_rules(plan, fault_rng, &cur.next);
  // Per-agent batteries, aligned with `config` (swap-removed together).
  std::vector<std::uint32_t> battery;
  if (plan.battery.levels > 0) {
    battery.assign(config.size(), plan.battery.levels);
  }
  FaultReport& report = cur.report;

  const auto wall_start = std::chrono::steady_clock::now();

  const auto start_cycle = [&](std::uint64_t t) {
    if (!cur.in_cycle) {
      cur.in_cycle = true;
      cur.cycle_start = t;
    }
  };

  const auto remove_agent_at = [&](std::size_t victim) {
    if (victim + 1 != config.size()) config[victim] = std::move(config.back());
    config.pop_back();
    if (!battery.empty()) {
      battery[victim] = battery.back();  // trivial type: self-assign is fine
      battery.pop_back();
    }
  };

  const auto apply_rule = [&](const FaultRule& rule, std::uint64_t t) {
    ++report.events;
    switch (rule.action) {
      case FaultAction::kCorrupt:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          const auto victim =
              static_cast<std::size_t>(fault_rng.below(config.size()));
          config[victim] = model.corrupt_state(fault_rng);
          ++report.agents_corrupted;
        }
        break;
      case FaultAction::kJoin:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          config.push_back(model.join_state());
          if (!battery.empty()) battery.push_back(plan.battery.levels);
          ++report.agents_joined;
        }
        break;
      case FaultAction::kLeave:
        for (std::uint64_t k = 0; k < rule.count; ++k) {
          if (config.size() <= 2) {
            fault_plan_die("leave event would reduce the population below 2 "
                           "(field: count)");
          }
          remove_agent_at(
              static_cast<std::size_t>(fault_rng.below(config.size())));
          ++report.agents_left;
        }
        break;
    }
    start_cycle(t);
  };

  const auto battery_tick = [&](std::uint64_t t) {
    std::uint64_t deaths = 0;
    for (std::size_t i = 0; i < battery.size(); ++i) {
      if (battery[i] == 0) continue;  // impossible between ticks; defensive
      if (plan.battery.decay_prob >= 1.0 ||
          fault_rng.real() < plan.battery.decay_prob) {
        if (--battery[i] == 0) ++deaths;
      }
    }
    if (deaths == 0) return;
    if (config.size() < deaths + 2) {
      fault_plan_die("battery dropout would reduce the population below 2 "
                     "(field: levels)");
    }
    for (std::size_t i = battery.size(); i-- > 0;) {
      if (battery[i] == 0) remove_agent_at(i);
    }
    report.agents_drained += deaths;
    ++report.events;
    start_cycle(t);
  };

  bool wall_expired = false;
  while (cur.t < plan.horizon && !wall_expired) {
    const std::uint64_t next_probe =
        (cur.t / plan.probe_every + 1) * plan.probe_every;
    const std::uint64_t next_event =
        detail::next_fault_time(plan, cur.next, cur.t);
    const std::uint64_t stop =
        std::min({plan.horizon, next_probe, next_event});
    for (std::uint64_t k = cur.t; k < stop; ++k) {
      const std::uint64_t live = config.size();
      const std::uint64_t a = sched_rng.below(live);
      std::uint64_t b = sched_rng.below(live - 1);
      // Ordered distinct pair, uniform.  Skip a without a jump, as in
      // pp::UniformScheduler::next: b >= a is a coin flip.
      b += static_cast<std::uint64_t>(b >= a);
      protocol.interact(config[a], config[b], agent_rng);
    }
    cur.t = stop;

    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
      if (cur.next[i] != cur.t) continue;
      const FaultRule& rule = plan.rules[i];
      apply_rule(rule, cur.t);
      cur.next[i] = rule.timing == FaultTiming::kPeriodic
                        ? cur.t + rule.period
                        : cur.t + poisson_gap(fault_rng, rule.period);
    }
    if (plan.battery.levels > 0 &&
        cur.t % plan.battery.decay_every == 0) {
      battery_tick(cur.t);
    }

    if (cur.t % plan.probe_every == 0) {
      ++report.probes;
      const bool safe = model.safe(config);
      report.probes_safe += safe ? 1 : 0;
      if (model.unique_leader) {
        report.probes_with_unique_leader +=
            model.unique_leader(config) ? 1 : 0;
      }
      if (safe && cur.in_cycle) {
        report.recovery_times.push_back(cur.t - cur.cycle_start);
        cur.in_cycle = false;
      }
      if (safe) {
        for (std::size_t i = 0; i < plan.rules.size(); ++i) {
          if (plan.rules[i].timing == FaultTiming::kOnRecovery) {
            apply_rule(plan.rules[i], cur.t);
          }
        }
      }
      if (opts.journal) {
        // The naive twin drives agents directly (no Simulator), so it
        // reports the naive engine's counter shape itself.
        obs::EngineMetrics m;
        m.engine = "naive";
        m.interactions = cur.t;
        m.interactions_iterated = cur.t;
        m.population = config.size();
        opts.journal->tick(cur.t, m);
      }
      if (opts.max_wall_seconds > 0.0) {
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   wall_start)
                                   .count();
        wall_expired = elapsed >= opts.max_wall_seconds;
      }
    }
  }

  report.completed = cur.t >= plan.horizon;
  report.interactions = cur.t;
  report.final_population = config.size();
  report.metrics.engine = "naive";
  report.metrics.interactions = cur.t;
  report.metrics.interactions_iterated = cur.t;
  report.metrics.population = config.size();
  if (final_out) *final_out = std::move(config);
  return report;
}

}  // namespace ssle::analysis
