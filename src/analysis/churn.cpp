#include "analysis/churn.hpp"

#include <charconv>
#include <cinttypes>

#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "core/snapshot.hpp"

namespace ssle::analysis {

[[noreturn]] void fault_plan_die(const std::string& message) {
  std::fprintf(stderr, "error: fault plan: %s\n", message.c_str());
  std::exit(2);
}

// --- FaultPlan validation and the --schedule grammar ----------------------

void validate_fault_plan(const FaultPlan& plan, std::uint64_t n) {
  if (plan.horizon == 0) {
    fault_plan_die("a zero-interaction fault run measures nothing "
                   "(field: horizon)");
  }
  if (plan.probe_every == 0) {
    fault_plan_die("availability and recovery are measured at probes; "
                   "probe_every must be positive (field: probe_every)");
  }
  for (const FaultRule& rule : plan.rules) {
    if (rule.count == 0) {
      fault_plan_die("a rule affecting zero agents is a no-op "
                     "(field: count)");
    }
    if (rule.timing == FaultTiming::kPeriodic && rule.period == 0) {
      fault_plan_die("a periodic rule needs a positive period "
                     "(field: period)");
    }
    if (rule.timing == FaultTiming::kPoisson && rule.period == 0) {
      fault_plan_die("a poisson rule needs a positive mean gap "
                     "(field: mean)");
    }
    if (rule.action == FaultAction::kCorrupt && rule.count > n) {
      fault_plan_die("a burst cannot corrupt more agents than the "
                     "population holds: count=" + std::to_string(rule.count) +
                     " > n=" + std::to_string(n) + " (field: count)");
    }
    if (rule.action == FaultAction::kLeave && rule.count + 2 > n) {
      fault_plan_die("a leave burst of count=" + std::to_string(rule.count) +
                     " would reduce the n=" + std::to_string(n) +
                     " population below 2 (field: count)");
    }
  }
  if (plan.battery.levels > 0) {
    if (plan.battery.decay_every == 0) {
      fault_plan_die("the battery model needs a positive decay interval "
                     "(field: decay_every)");
    }
    if (!(plan.battery.decay_prob > 0.0) || plan.battery.decay_prob > 1.0) {
      fault_plan_die("battery decay_prob must lie in (0, 1] "
                     "(field: decay_prob)");
    }
  }
}

namespace {

/// Strict whole-token uint64 (from_chars: no sign, no wrap, no garbage).
std::optional<std::uint64_t> parse_u64(const std::string& token) {
  std::uint64_t v = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end || token.empty()) return std::nullopt;
  return v;
}

[[noreturn]] void bad_schedule(const std::string& part) {
  fault_plan_die(
      "cannot parse schedule rule '" + part +
      "' — expected corrupt|join|leave:periodic|poisson:<period>:<count>, "
      "corrupt|join|leave:recovery:<count>, or "
      "battery:<levels>:<decay_every>[:<decay_prob>] (field: schedule)");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  while (true) {
    const std::size_t to = s.find(sep, from);
    parts.push_back(s.substr(from, to - from));
    if (to == std::string::npos) return parts;
    from = to + 1;
  }
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec, std::uint64_t horizon,
                           std::uint64_t probe_every) {
  FaultPlan plan;
  plan.horizon = horizon;
  plan.probe_every = probe_every;
  if (spec.empty()) {
    fault_plan_die("an empty schedule injects nothing (field: schedule)");
  }
  for (const std::string& part : split(spec, ',')) {
    const auto fields = split(part, ':');
    if (fields[0] == "battery") {
      if (plan.battery.levels > 0) {
        fault_plan_die("at most one battery model per schedule "
                       "(field: schedule)");
      }
      if (fields.size() != 3 && fields.size() != 4) bad_schedule(part);
      const auto levels = parse_u64(fields[1]);
      const auto every = parse_u64(fields[2]);
      if (!levels || *levels == 0 || *levels > 0xffffffffull || !every) {
        bad_schedule(part);
      }
      plan.battery.levels = static_cast<std::uint32_t>(*levels);
      plan.battery.decay_every = *every;
      if (fields.size() == 4) {
        char* tail = nullptr;
        plan.battery.decay_prob = std::strtod(fields[3].c_str(), &tail);
        if (tail != fields[3].c_str() + fields[3].size() ||
            fields[3].empty()) {
          bad_schedule(part);
        }
      }
      continue;
    }
    FaultRule rule;
    if (fields[0] == "corrupt") {
      rule.action = FaultAction::kCorrupt;
    } else if (fields[0] == "join") {
      rule.action = FaultAction::kJoin;
    } else if (fields[0] == "leave") {
      rule.action = FaultAction::kLeave;
    } else {
      bad_schedule(part);
    }
    if (fields.size() == 3 && fields[1] == "recovery") {
      rule.timing = FaultTiming::kOnRecovery;
      const auto count = parse_u64(fields[2]);
      if (!count) bad_schedule(part);
      rule.count = *count;
    } else if (fields.size() == 4 &&
               (fields[1] == "periodic" || fields[1] == "poisson")) {
      rule.timing = fields[1] == "periodic" ? FaultTiming::kPeriodic
                                            : FaultTiming::kPoisson;
      const auto period = parse_u64(fields[2]);
      const auto count = parse_u64(fields[3]);
      if (!period || !count) bad_schedule(part);
      rule.period = *period;
      rule.count = *count;
    } else {
      bad_schedule(part);
    }
    plan.rules.push_back(rule);
  }
  return plan;
}

// --- FaultReport ----------------------------------------------------------

namespace {

/// The report's event counters by JSON key (the report and the cursor
/// both carry them).
constexpr std::pair<const char*, std::uint64_t FaultReport::*>
    kReportCounters[] = {
        {"probes", &FaultReport::probes},
        {"probes_safe", &FaultReport::probes_safe},
        {"probes_with_unique_leader",
         &FaultReport::probes_with_unique_leader},
        {"events", &FaultReport::events},
        {"agents_corrupted", &FaultReport::agents_corrupted},
        {"agents_joined", &FaultReport::agents_joined},
        {"agents_left", &FaultReport::agents_left},
        {"agents_drained", &FaultReport::agents_drained},
};

}  // namespace


std::uint64_t FaultReport::recovery_quantile(double q) const {
  if (recovery_times.empty()) return 0;
  std::vector<std::uint64_t> sorted(recovery_times);
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::min(1.0, std::max(0.0, q));
  // Nearest-rank: the ⌈q·N⌉-th smallest (1-indexed); q = 0 gives the min.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

util::Json FaultReport::to_json() const {
  auto j = util::Json::object();
  for (const auto& [key, field] : kReportCounters) {
    j.set(key, static_cast<std::int64_t>(this->*field));
  }
  j.set("interactions", static_cast<std::int64_t>(interactions));
  j.set("final_population", static_cast<std::int64_t>(final_population));
  j.set("registry_fingerprint", obs::hex_u64(registry_fingerprint));
  j.set("completed", completed);
  j.set("resumed", resumed);
  j.set("safe_availability", safe_availability());
  j.set("leader_availability", leader_availability());
  j.set("recovery_cycles", static_cast<std::int64_t>(recovery_times.size()));
  j.set("recovery_p50", static_cast<std::int64_t>(recovery_quantile(0.50)));
  j.set("recovery_p95", static_cast<std::int64_t>(recovery_quantile(0.95)));
  j.set("recovery_max", static_cast<std::int64_t>(recovery_quantile(1.0)));
  return j;
}

// --- FaultCursor codec ----------------------------------------------------

namespace {

util::Json u64_array(const std::vector<std::uint64_t>& values) {
  auto arr = util::Json::array();
  for (const std::uint64_t v : values) arr.push(static_cast<std::int64_t>(v));
  return arr;
}

bool read_u64_field(const util::Json& j, const char* key,
                    std::uint64_t* out) {
  const util::Json* v = j.find(key);
  if (!v) return false;
  const auto u = v->as_u64();
  if (!u) return false;
  *out = *u;
  return true;
}

bool read_u64_array(const util::Json& j, const char* key,
                    std::vector<std::uint64_t>* out) {
  const util::Json* arr = j.find(key);
  if (!arr || !arr->is_array()) return false;
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const auto v = arr->at(i)->as_u64();
    if (!v) return false;
    out->push_back(*v);
  }
  return true;
}

}  // namespace

util::Json fault_cursor_to_json(const FaultCursor& cur) {
  auto j = util::Json::object();
  j.set("t", static_cast<std::int64_t>(cur.t));
  j.set("last_checkpoint", static_cast<std::int64_t>(cur.last_checkpoint));
  j.set("in_cycle", cur.in_cycle);
  j.set("cycle_start", static_cast<std::int64_t>(cur.cycle_start));
  j.set("fault_rng", obs::rng_state_to_json(cur.fault_rng));
  // Rule timers may hold kFaultNever (> int64 max): hex strings, like RNG
  // words, so util::Json never degrades them to lossy doubles.
  auto next = util::Json::array();
  for (const std::uint64_t nx : cur.next) next.push(obs::hex_u64(nx));
  j.set("next", std::move(next));
  j.set("battery", u64_array(cur.battery));
  auto r = util::Json::object();
  for (const auto& [key, field] : kReportCounters) {
    r.set(key, static_cast<std::int64_t>(cur.report.*field));
  }
  r.set("recovery_times", u64_array(cur.report.recovery_times));
  j.set("report", std::move(r));
  return j;
}

std::optional<FaultCursor> fault_cursor_from_json(const util::Json& j) {
  if (!j.is_object()) return std::nullopt;
  FaultCursor cur;
  if (!read_u64_field(j, "t", &cur.t) ||
      !read_u64_field(j, "last_checkpoint", &cur.last_checkpoint) ||
      !read_u64_field(j, "cycle_start", &cur.cycle_start)) {
    return std::nullopt;
  }
  const util::Json* in_cycle = j.find("in_cycle");
  if (!in_cycle || !in_cycle->is_bool()) return std::nullopt;
  cur.in_cycle = *in_cycle->as_bool();

  const util::Json* rng = j.find("fault_rng");
  if (!rng) return std::nullopt;
  const auto words = obs::rng_state_from_json(*rng);
  if (!words) return std::nullopt;
  cur.fault_rng = *words;

  const util::Json* next = j.find("next");
  if (!next || !next->is_array()) return std::nullopt;
  for (std::size_t i = 0; i < next->size(); ++i) {
    const auto s = next->at(i)->as_string();
    if (!s) return std::nullopt;
    const auto v = obs::parse_hex_u64(*s);
    if (!v) return std::nullopt;
    cur.next.push_back(*v);
  }
  if (!read_u64_array(j, "battery", &cur.battery)) return std::nullopt;

  const util::Json* r = j.find("report");
  if (!r || !r->is_object()) return std::nullopt;
  for (const auto& [key, field] : kReportCounters) {
    if (!read_u64_field(*r, key, &(cur.report.*field))) return std::nullopt;
  }
  if (!read_u64_array(*r, "recovery_times", &cur.report.recovery_times)) {
    return std::nullopt;
  }
  return cur;
}

const char* fault_cursor_violation(const FaultCursor& cur, bool battery_ok) {
  for (const std::uint64_t nx : cur.next) {
    if (nx <= cur.t) return "next";
  }
  if (cur.cycle_start > cur.t) return "cycle_start";
  if (cur.last_checkpoint > cur.t) return "last_checkpoint";
  return battery_ok ? nullptr : "battery";
}

// --- the ElectLeader_r entry ----------------------------------------------

namespace {

std::uint64_t leaders(const std::vector<core::Agent>& config) {
  return core::leader_count(config);
}

std::uint64_t leaders(const pp::CountsConfiguration<core::ElectLeader>& c) {
  return c.count_if(core::ElectLeader::is_leader);
}

/// The ElectLeader_r model over either engine's view of the population.
template <typename View>
FaultModel<core::ElectLeader, View> elect_leader_model(
    const core::Params& params, const core::ElectLeader& protocol) {
  FaultModel<core::ElectLeader, View> model;
  model.corrupt_state = [&params](util::Rng& rng) {
    return core::random_agent(params, rng);
  };
  model.join_state = [&protocol] { return protocol.initial_state(0); };
  model.safe = [&params](const View& v) {
    return core::is_safe_configuration(params, v);
  };
  model.unique_leader = [](const View& v) { return leaders(v) == 1; };
  model.encode = core::snapshot_write_agent;
  model.decode = core::snapshot_read_agent;
  model.label = "elect_leader";
  return model;
}

}  // namespace

FaultReport run_fault_plan(Engine engine, const core::Params& params,
                           const FaultPlan& plan, std::uint64_t seed,
                           const FaultRunOptions& opts) {
  core::ElectLeader protocol(params);
  if (engine == Engine::kLeaping) {
    std::fprintf(stderr,
                 "note: fault injection mutates the population between "
                 "blocks; routing --engine=leaping to the batched counts "
                 "engine\n");
  }
  if (engine == Engine::kNaive) {
    return run_fault_plan_naive(
        protocol, core::make_safe_config(params), plan, seed,
        elect_leader_model<std::vector<core::Agent>>(params, protocol), opts);
  }
  return run_fault_plan_counts(
      protocol,
      pp::CountsConfiguration<core::ElectLeader>(
          core::make_safe_config(params)),
      plan, seed,
      elect_leader_model<pp::CountsConfiguration<core::ElectLeader>>(
          params, protocol),
      opts);
}

}  // namespace ssle::analysis
