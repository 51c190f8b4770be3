// Fault injection: composable {corrupt, join, leave} schedules run against
// a live protocol, measuring availability and per-cycle recovery time — the
// operational consequence of self-stabilization (the protocol re-converges
// after every fault, forever, without external intervention).
//
// FaultPlan is the engine-generic schedule language.  A plan is a list of
// FaultRules (action × timing × burst size) plus an optional
// battery-dropout model, validated hard (exit 2 naming the offending field)
// and run by one loop (detail::run_fault_loop, with crash-safe checkpoints
// via obs/checkpoint.hpp) over either engine:
//   - batched counts (run_fault_plan_counts): faults are O(log q) registry
//     edits between blocks, so a churn soak runs at n = 10^5–10^6;
//   - the naive agent array (run_fault_plan_naive): swap-remove / append.
// The two draw victims and drain batteries differently, so tiny-n TV tests
// pin each law against the other.
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
// charge in {0..levels}, held OUTSIDE the protocol state — on the counts
// engine as a histogram (charge is exchangeable across agents, so the
// histogram is the exact lumping), on the naive engine per agent.  Every
// `decay_every` interactions each charged agent loses one level with
// probability `decay_prob`; agents reaching 0 drop out of the population.
// Joining agents enter fully charged.
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
#include "pp/leaping_simulator.hpp"  // sample_binomial
#include "pp/simulator.hpp"
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
  /// Order-sensitive FNV fingerprint of the final population: the
  /// canonical registry ((state hash, count) in id order) on the counts
  /// engine, the agent array (state hash in index order) on naive.  Two
  /// runs of the SAME binary that followed the same trajectory match; it
  /// is not a portable digest.  The CI kill−9/resume smokes compare it.
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

/// Knobs shared by the fault runners (both engines).
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
/// corrupted slot, the state of a joining agent, and the probe predicates
/// over the engine's view of the population (`View`: the counts registry,
/// or the agent array on the naive engine).  encode/decode are the
/// per-state checkpoint codec (leave empty to run without checkpoint
/// support); unique_leader may be empty for leaderless protocols.
template <pp::Protocol P, typename View = pp::CountsConfiguration<P>>
struct FaultModel {
  using State = typename P::State;
  std::function<State(util::Rng&)> corrupt_state;
  std::function<State()> join_state;
  std::function<bool(const View&)> safe;
  std::function<bool(const View&)> unique_leader;
  std::function<std::string(const State&)> encode;
  std::function<std::optional<State>(const std::string&)> decode;
  std::string label = "protocol";
};

/// The naive engine's model: the same knobs over the agent array.
template <pp::Protocol P>
using NaiveFaultModel = FaultModel<P, std::vector<typename P::State>>;

/// Runs ElectLeader_r from a safe configuration under `plan` on the chosen
/// engine: kBatched (counts edits + counts probes) or kNaive (the agent
/// array), both with checkpoints; kLeaping reroutes loudly to kBatched
/// (fault injection mutates the population between blocks, which the leap
/// engine's windows do not support).
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
  /// Charges (empty = off): a histogram on counts, per agent on naive.
  std::vector<std::uint64_t> battery;
  FaultReport report;                  ///< counters + recovery samples so far
};

util::Json fault_cursor_to_json(const FaultCursor& cur);
std::optional<FaultCursor> fault_cursor_from_json(const util::Json& j);

/// The field of the first invariant `cur` breaks, or nullptr.  Every
/// cursor a run saves has next[i] > t, cycle_start <= t, last_checkpoint
/// <= t and a battery matching the population (`battery_ok`, checked by
/// the engine adapter); a resumed cursor breaking one would run the clock
/// backwards, wrap a recovery sample or break the battery's bookkeeping.
const char* fault_cursor_violation(const FaultCursor& cur, bool battery_ok);

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

/// The same fingerprint over an agent array (state hashes in index
/// order): the naive engine's population.
template <typename State>
std::uint64_t registry_fingerprint(const std::vector<State>& agents) {
  std::uint64_t h = 1469598103934665603ull;
  for (const State& a : agents) {
    h ^= std::hash<State>{}(a);
    h *= 1099511628211ull;
  }
  return h;
}

namespace detail {

// --- engine adapters --------------------------------------------------------
// What run_fault_loop needs beyond the engine `sim`: population, probe
// view, one-agent edits and the battery, all drawing on the fault stream.

/// The batched counts engine; the battery is a charge histogram
/// (battery[l] = agents at level l).
template <pp::Protocol P>
struct CountsAdapter {
  pp::BatchedSimulator<P> sim;
  const FaultModel<P>& model;

  const pp::CountsConfiguration<P>& view() const { return sim.config(); }
  std::uint64_t population() const { return view().population_size(); }
  void remove_random(util::Rng& rng) {
    auto& cfg = sim.config();
    cfg.remove_agent(cfg.sample_class(rng.below(cfg.population_size())));
  }

  void corrupt_one(util::Rng& rng) {
    remove_random(rng);
    sim.config().insert_agent(model.corrupt_state(rng));
  }
  void join_one(std::vector<std::uint64_t>& battery, std::uint32_t levels) {
    sim.config().insert_agent(model.join_state());
    if (levels > 0) ++battery[levels];
  }
  /// The leaver's charge is a uniform one of the n + 1 charges held before
  /// it left (charge is exchangeable across agents).
  void leave_one(util::Rng& rng, std::vector<std::uint64_t>& hist) {
    remove_random(rng);
    if (hist.empty()) return;
    std::uint64_t pos = rng.below(population() + 1);
    std::size_t l = 0;
    while (pos >= hist[l]) pos -= hist[l++];
    --hist[l];
  }

  std::vector<std::uint64_t> full_battery(std::uint32_t levels) const {
    std::vector<std::uint64_t> hist(levels + 1, 0);
    hist[levels] = population();
    return hist;
  }
  /// Each level's agents lose a level with probability p, one exact
  /// binomial per level.  Returns the agents drained to 0.
  std::uint64_t battery_decay(std::vector<std::uint64_t>& hist, double p,
                              util::Rng& rng) {
    for (std::size_t l = 1; l < hist.size(); ++l) {
      const std::uint64_t d = pp::sample_binomial(rng, hist[l], p);
      hist[l] -= d;
      hist[l - 1] += d;
    }
    return hist[0];
  }
  void battery_drain(std::vector<std::uint64_t>& hist, util::Rng& rng) {
    for (; hist[0] > 0; --hist[0]) remove_random(rng);
  }
  /// A saved histogram has levels + 1 bins, none at 0, totalling n.
  bool battery_consistent(const std::vector<std::uint64_t>& hist,
                          std::uint32_t levels) const {
    if (levels == 0) return hist.empty();
    if (hist.size() != levels + 1u || hist[0] != 0) return false;
    std::uint64_t left = population();
    for (const std::uint64_t c : hist) {
      if (c > left) return false;
      left -= c;
    }
    return left == 0;
  }
};

/// The naive agent-array engine; the battery holds one level per agent in
/// index order, swap-removed together with the agents.
template <pp::Protocol P>
struct NaiveAdapter {
  pp::Simulator<P> sim;
  const NaiveFaultModel<P>& model;

  const std::vector<typename P::State>& view() const {
    return sim.population().states();
  }
  std::uint64_t population() const { return view().size(); }
  void remove_at(std::uint64_t i, std::vector<std::uint64_t>& battery) {
    sim.remove_agent(static_cast<std::uint32_t>(i));
    if (!battery.empty()) {
      battery[i] = battery.back();  // trivial type: self-assign is fine
      battery.pop_back();
    }
  }

  void corrupt_one(util::Rng& rng) {
    const auto victim = static_cast<std::uint32_t>(rng.below(population()));
    sim.population()[victim] = model.corrupt_state(rng);
  }
  void join_one(std::vector<std::uint64_t>& battery, std::uint32_t levels) {
    sim.add_agent(model.join_state());
    if (levels > 0) battery.push_back(levels);
  }
  void leave_one(util::Rng& rng, std::vector<std::uint64_t>& battery) {
    remove_at(rng.below(population()), battery);
  }

  std::vector<std::uint64_t> full_battery(std::uint32_t levels) const {
    return std::vector<std::uint64_t>(population(), levels);
  }
  /// Each agent loses a level with probability p (no draw when p = 1).
  /// Returns the agents drained to 0.
  std::uint64_t battery_decay(std::vector<std::uint64_t>& battery, double p,
                              util::Rng& rng) {
    std::uint64_t deaths = 0;
    for (std::uint64_t& b : battery) {
      if (p >= 1.0 || rng.real() < p) deaths += --b == 0 ? 1 : 0;
    }
    return deaths;
  }
  void battery_drain(std::vector<std::uint64_t>& battery, util::Rng&) {
    for (std::size_t i = battery.size(); i-- > 0;) {
      if (battery[i] == 0) remove_at(i, battery);
    }
  }
  /// A saved battery holds one level in [1, levels] per agent.
  bool battery_consistent(const std::vector<std::uint64_t>& battery,
                          std::uint32_t levels) const {
    return battery.size() == (levels == 0 ? 0 : population()) &&
           std::all_of(battery.begin(), battery.end(), [&](std::uint64_t b) {
             return b >= 1 && b <= levels;
           });
  }
};

/// The fault-plan loop over one engine adapter (see the file header for
/// cycle semantics and FaultRunOptions for checkpointing).
template <typename Adapter>
FaultReport run_fault_loop(Adapter& eng, const FaultPlan& plan,
                           std::uint64_t seed, const FaultRunOptions& opts) {
  util::Rng fault_rng(util::substream(seed, 3));
  const bool want_ckpt = !opts.checkpoint_path.empty();
  const std::string& path = opts.checkpoint_path;
  if (want_ckpt && !(eng.model.encode && eng.model.decode)) {
    fault_plan_die("checkpointing requested but the protocol model has no "
                   "state codec (field: checkpoint_path)");
  }
  if (want_ckpt && opts.checkpoint_every == 0) {
    fault_plan_die("checkpoint_every must be positive when a checkpoint "
                   "path is set (field: checkpoint_every)");
  }

  FaultCursor cur;
  if (plan.battery.levels > 0) {
    cur.battery = eng.full_battery(plan.battery.levels);
  }

  bool resumed = false;
  if (want_ckpt && opts.resume) {
    if (auto doc = obs::checkpoint_load(path)) {
      auto restored = doc->cursor ? fault_cursor_from_json(*doc->cursor)
                                  : std::nullopt;
      if (!restored || restored->next.size() != plan.rules.size() ||
          restored->t != doc->interactions) {
        fault_plan_die("checkpoint at " + path +
                       " has a fault cursor inconsistent with this plan");
      }
      if (!obs::restore_checkpoint(eng.sim, *doc, eng.model.label,
                                   eng.model.decode)) {
        fault_plan_die("checkpoint at " + path +
                       " does not restore into this engine/protocol");
      }
      if (const char* field = fault_cursor_violation(
              *restored, eng.battery_consistent(restored->battery,
                                                plan.battery.levels))) {
        fault_plan_die("checkpoint at " + path +
                       " has a fault cursor no run can reach (field: " +
                       field + ")");
      }
      cur = std::move(*restored);
      fault_rng.set_state(cur.fault_rng);
      resumed = true;
    }
  }
  // Rule i's next fire time after `t`; recovery rules fire off the probe
  // grid, not the clock.
  const auto schedule = [&](std::size_t i, std::uint64_t t) {
    const FaultRule& rule = plan.rules[i];
    cur.next[i] = rule.timing == FaultTiming::kPeriodic ? t + rule.period
                  : rule.timing == FaultTiming::kPoisson
                      ? t + poisson_gap(fault_rng, rule.period)
                      : kFaultNever;
  };
  if (!resumed) {
    cur.next.resize(plan.rules.size());
    for (std::size_t i = 0; i < plan.rules.size(); ++i) schedule(i, 0);
  }
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
    ++report.events;
    for (std::uint64_t k = 0; k < rule.count; ++k) {
      switch (rule.action) {
        case FaultAction::kCorrupt:
          eng.corrupt_one(fault_rng);
          ++report.agents_corrupted;
          break;
        case FaultAction::kJoin:
          eng.join_one(cur.battery, plan.battery.levels);
          ++report.agents_joined;
          break;
        case FaultAction::kLeave:
          if (eng.population() <= 2) {
            fault_plan_die("leave event would reduce the population below 2 "
                           "(field: count)");
          }
          eng.leave_one(fault_rng, cur.battery);
          ++report.agents_left;
          break;
      }
    }
    start_cycle(t);
  };

  const auto battery_tick = [&](std::uint64_t t) {
    const std::uint64_t deaths =
        eng.battery_decay(cur.battery, plan.battery.decay_prob, fault_rng);
    if (deaths == 0) return;
    if (eng.population() < deaths + 2) {
      fault_plan_die("battery dropout would reduce the population below 2 "
                     "(field: levels)");
    }
    eng.battery_drain(cur.battery, fault_rng);
    report.agents_drained += deaths;
    ++report.events;
    start_cycle(t);
  };

  const auto save_checkpoint = [&] {
    cur.fault_rng = fault_rng.state();
    auto doc = obs::make_checkpoint(eng.sim, eng.model.label, eng.model.encode);
    doc.cursor = fault_cursor_to_json(cur);
    if (!obs::checkpoint_save(path, doc)) {
      std::fprintf(stderr,
                   "error: fault plan: checkpoint write to %s failed\n",
                   path.c_str());
      std::exit(1);
    }
    if (opts.journal) {
      auto payload = util::Json::object();
      payload.set("t", static_cast<std::int64_t>(cur.t));
      payload.set("path", path);
      opts.journal->event("checkpoint", std::move(payload));
    }
  };

  bool wall_expired = false;
  while (cur.t < plan.horizon && !wall_expired) {
    // Run to the next probe, rule, battery tick or the horizon.
    std::uint64_t stop = std::min(
        plan.horizon, (cur.t / plan.probe_every + 1) * plan.probe_every);
    for (const std::uint64_t nx : cur.next) stop = std::min(stop, nx);
    if (plan.battery.levels > 0) {
      const std::uint64_t every = plan.battery.decay_every;
      stop = std::min(stop, (cur.t / every + 1) * every);
    }
    eng.sim.step(stop - cur.t);
    cur.t = stop;

    // Faults due now run BEFORE the probe at the same instant: burst, then
    // probe.
    for (std::size_t i = 0; i < plan.rules.size(); ++i) {
      if (cur.next[i] != cur.t) continue;
      apply_rule(plan.rules[i], cur.t);
      schedule(i, cur.t);
    }
    if (plan.battery.levels > 0 &&
        cur.t % plan.battery.decay_every == 0) {
      battery_tick(cur.t);
    }

    if (cur.t % plan.probe_every == 0) {
      ++report.probes;
      const bool safe = eng.model.safe(eng.view());
      report.probes_safe += safe ? 1 : 0;
      if (eng.model.unique_leader) {
        report.probes_with_unique_leader +=
            eng.model.unique_leader(eng.view()) ? 1 : 0;
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
      if (opts.journal) opts.journal->tick(cur.t, eng.sim.metrics());
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
  // no-op instead of rerunning.  (Saving canonicalizes the counts engine —
  // do it before the fingerprint so full and resumed runs fingerprint the
  // same layout.)
  if (want_ckpt && !wall_expired && cur.t > cur.last_checkpoint) {
    cur.last_checkpoint = cur.t;
    save_checkpoint();
  }

  report.completed = cur.t >= plan.horizon;
  report.interactions = cur.t;
  report.final_population = eng.population();
  report.registry_fingerprint = registry_fingerprint(eng.view());
  report.metrics = eng.sim.metrics();
  return report;
}

}  // namespace detail

/// The counts fault runner: `plan` against a pp::BatchedSimulator over
/// `start` (the engine re-reads n per block, so n may drift freely).
/// `final_out` (optional) receives the final configuration.
template <pp::Protocol P>
FaultReport run_fault_plan_counts(
    const P& protocol, pp::CountsConfiguration<P> start,
    const FaultPlan& plan, std::uint64_t seed, const FaultModel<P>& model,
    const FaultRunOptions& opts = {},
    pp::CountsConfiguration<P>* final_out = nullptr) {
  validate_fault_plan(plan, start.population_size());
  detail::CountsAdapter<P> eng{
      pp::BatchedSimulator<P>(protocol, std::move(start), seed), model};
  FaultReport report = detail::run_fault_loop(eng, plan, seed, opts);
  if (final_out) *final_out = eng.sim.config();
  return report;
}

/// The naive fault runner: `plan` against a pp::Simulator over the agent
/// array `config`.  `final_out` (optional) receives the final agents.
template <pp::Protocol P>
FaultReport run_fault_plan_naive(
    const P& protocol, std::vector<typename P::State> config,
    const FaultPlan& plan, std::uint64_t seed,
    const NaiveFaultModel<P>& model, const FaultRunOptions& opts = {},
    std::vector<typename P::State>* final_out = nullptr) {
  validate_fault_plan(plan, config.size());
  detail::NaiveAdapter<P> eng{
      pp::Simulator<P>(protocol, pp::Population<P>(std::move(config)), seed),
      model};
  FaultReport report = detail::run_fault_loop(eng, plan, seed, opts);
  if (final_out) *final_out = std::move(eng.sim.population().states());
  return report;
}

}  // namespace ssle::analysis
