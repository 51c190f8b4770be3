// perfbench — the repository benchmark's workload runner.
//
// Runs one named workload of the paper's fixed matrix for a wall-clock
// budget, checks every seed's outputs, and prints either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), ending with
// one JSON line.  perfbench/run.py builds this binary from the library
// sources and invokes it; perfbench/README.md says why each workload exists
// and which end-to-end metric each layer metric should move.
//
//   perfbench --workload=<name> --seed=<base> --seconds=<budget>
//             --trace=<0|1> --run-dir=<dir> [--git-sha=<sha>]
//
// A run executes seeds util::substream(base, 0), (base, 1), ... one after
// another, single-threaded, until the budget is spent, so one base seed
// always yields the same inputs.  A traced run first runs seeds untraced for
// about half its budget, then reruns exactly those seeds with spans around
// every call the benchmark makes into pp/, core/, analysis/ and obs/; the
// per-seed trajectory digests of the two passes must match.
//
// Spans live in memory and are written to <run-dir>/trace-<workload>.tsv
// when the run ends.  The spans of one seed share that seed as their id; a
// span's self time is its duration minus its children's.  Every file the
// run creates under <run-dir> other than that trace is removed before it
// exits.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/churn.hpp"
#include "core/adversary.hpp"
#include "core/agent.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/safety.hpp"
#include "core/snapshot.hpp"
#include "core/state_size.hpp"
#include "obs/checkpoint.hpp"
#include "obs/journal.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/counts.hpp"
#include "pp/epidemic.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/population.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace ssle;
using Clock = std::chrono::steady_clock;

// --- workload inputs -------------------------------------------------------

constexpr std::uint64_t kEpidemicN = 10'000'000'000ull;

constexpr std::uint32_t kCleanN = 10'000;
constexpr std::uint32_t kRecoveryN = 100'000;
constexpr std::uint32_t kElectR = 64;

constexpr std::uint32_t kSoakN = 500;
constexpr std::uint32_t kSoakR = 8;
// One ElectLeader burst recovery at n = 500, r = 8 costs ≈ 4·10^6
// interactions, so this horizon holds ≈ 4 recovery cycles.  Leave/join fire
// at half horizon and at its end: bench_e2_churn's default period (16
// recovery scales) would never fire inside a horizon this short, and every
// churn event restarts recovery, so a denser period leaves few cycles.
constexpr std::uint64_t kSoakHorizon = 20'000'000;
constexpr std::uint64_t kSoakChurnPeriod = kSoakHorizon / 2;
// Checkpoint cadence.  Every save ends in an fsync, and the benchmark may
// write only inside its checkout, which sits on a disk: a sparse cadence
// keeps disk latency a small share of the soak's end-to-end time.
constexpr std::uint64_t kSoakCheckpointEvery = 8192ull * kSoakN;

/// The interaction budget of the ElectLeader_r workloads:
/// 150·(n²/r)·(log₂ n + 1) + 2·10^5, far above any converging run.
std::uint64_t elect_budget(const core::Params& p) {
  const double n = p.n;
  return static_cast<std::uint64_t>(150.0 * (n * n / p.r) *
                                    (std::log2(n) + 1.0)) +
         200000;
}

std::uint64_t epidemic_budget(std::uint64_t n) {
  std::uint64_t log2ceil = 0;
  while ((std::uint64_t{1} << log2ceil) < n) ++log2ceil;
  return 64ull * n * log2ceil;
}

// --- tracing ---------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int32_t parent;  ///< index of the enclosing span, −1 for a root
    std::uint64_t seed;   ///< the seed whose run caused the span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  std::int32_t open(const char* name) {
    if (!on_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        {name, stack_.empty() ? -1 : stack_.back(), seed_, now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Records a span whose bounds were measured outside open/close.
  std::int32_t add(const char* name, std::int32_t parent, std::int64_t start,
                   std::int64_t end) {
    spans_.push_back({name, parent, seed_, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<Span>& spans() { return spans_; }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "id\tparent\tseed\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.seed << '\t' << s.name << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point epoch_;
  std::uint64_t seed_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

struct NameStats {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

/// Total and self seconds per span name over spans [from, spans.size()).
std::map<std::string, NameStats> aggregate(
    const std::vector<Tracer::Span>& spans, std::size_t from) {
  std::vector<std::int64_t> child_ns(spans.size() - from, 0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= from) {
      child_ns[static_cast<std::size_t>(p) - from] +=
          spans[i].end_ns - spans[i].start_ns;
    }
  }
  std::map<std::string, NameStats> out;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    NameStats& s = out[spans[i].name];
    s.total_s += 1e-9 * static_cast<double>(dur);
    s.self_s += 1e-9 * static_cast<double>(dur - child_ns[i - from]);
    ++s.calls;
  }
  return out;
}

// --- per-layer metrics -----------------------------------------------------

/// Every per-layer metric with its unit, in print order.  A traced run
/// prints all of them.  Times of calls that only some workloads make are
/// shares of the seed's traced set-up + solve seconds, so a layer a workload
/// never calls reads 0 as a share or a count, never as a time.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"pp.build_s", "s"},
    {"pp.step_s", "s"},
    {"pp.ns_per_interaction", "ns"},
    {"pp.counts.registry_live", "count"},
    {"pp.counts.registry_allocated", "count"},
    {"pp.counts.fenwick_updates", "count"},
    {"pp.counts.compactions", "count"},
    {"pp.batched.blocks", "count"},
    {"pp.batched.collisions", "count"},
    {"pp.leaping.windows", "count"},
    {"pp.leaping.candidates", "count"},
    {"pp.leaping.envelope_breaches", "count"},
    {"pp.leaping.banded_pieces", "count"},
    {"pp.leaping.leapt_frac", "ratio"},
    {"core.adversary_share", "ratio"},
    {"core.safety_s", "s"},
    {"core.safety.calls", "count"},
    {"core.agent.copy_ns", "ns"},
    {"core.agent.hash_ns", "ns"},
    {"core.delta_ns", "ns"},
    {"core.agent.bytes", "bytes"},
    {"core.state_bits", "bits"},
    {"analysis.fault.events", "count"},
    {"analysis.fault.hook_share", "ratio"},
    {"analysis.recovery_cycles", "count"},
    {"obs.checkpoint.saves", "count"},
    {"obs.checkpoint.bytes", "bytes"},
    {"obs.checkpoint.encode_share", "ratio"},
    {"obs.checkpoint.save_share", "ratio"},
    {"obs.checkpoint.fsync_mb_per_s", "MB/s"},
    {"trace.overhead", "ratio"},
};

using LayerValues = std::map<std::string, double>;

void put_engine_metrics(const obs::EngineMetrics& m, LayerValues* v) {
  (*v)["pp.counts.registry_live"] = static_cast<double>(m.registry_live_states);
  (*v)["pp.counts.registry_allocated"] =
      static_cast<double>(m.registry_allocated_states);
  (*v)["pp.counts.fenwick_updates"] =
      static_cast<double>(m.fenwick_point_updates);
  (*v)["pp.counts.compactions"] = static_cast<double>(m.registry_compactions);
  (*v)["pp.batched.blocks"] =
      static_cast<double>(m.blocks_dense + m.blocks_fenwick + m.blocks_flat);
  (*v)["pp.batched.collisions"] =
      static_cast<double>(m.collision_resolutions);
  (*v)["pp.leaping.windows"] = static_cast<double>(m.leap_windows);
  (*v)["pp.leaping.candidates"] = static_cast<double>(m.leap_candidates);
  (*v)["pp.leaping.envelope_breaches"] =
      static_cast<double>(m.envelope_breaches);
  (*v)["pp.leaping.banded_pieces"] = static_cast<double>(m.banded_pieces);
  (*v)["pp.leaping.leapt_frac"] =
      m.interactions == 0 ? 0.0
                          : static_cast<double>(m.interactions_leapt) /
                                static_cast<double>(m.interactions);
}

/// Fills the span-derived metrics of one seed.  `step_span` is the span
/// whose self time is the engine's: run_until, or the fault runner (whose
/// children are every hook it calls, checkpoint saves included).
/// `stop_span` is the workload's stop predicate at probes.  `traced_s` is
/// the seed's traced set-up + solve seconds, the base of every share.
void put_span_metrics(const std::map<std::string, NameStats>& stats,
                      const char* step_span, const char* stop_span,
                      std::uint64_t interactions, double traced_s,
                      LayerValues* v) {
  const auto get = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? NameStats{} : it->second;
  };
  (*v)["pp.build_s"] = get("pp.build").total_s;
  const double step = get(step_span).self_s;
  (*v)["pp.step_s"] = step;
  (*v)["pp.ns_per_interaction"] =
      interactions == 0 ? 0.0 : 1e9 * step / static_cast<double>(interactions);
  (*v)["core.adversary_share"] =
      get("core.make_adversarial_config").total_s / traced_s;
  (*v)["core.safety_s"] = get(stop_span).total_s;
  (*v)["core.safety.calls"] = static_cast<double>(get(stop_span).calls);
  (*v)["analysis.fault.hook_share"] =
      (get("analysis.fault.corrupt_state").total_s +
       get("analysis.fault.join_state").total_s) /
      traced_s;
  (*v)["obs.checkpoint.encode_share"] =
      get("obs.checkpoint.encode").total_s / traced_s;
  (*v)["obs.checkpoint.save_share"] =
      get("obs.checkpoint.save").total_s / traced_s;
  (*v)["obs.checkpoint.saves"] =
      static_cast<double>(get("obs.checkpoint.save").calls);
}

// --- state micro-timings on mid-run states --------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Heap and inline bytes of one state (vector capacities, allocator
/// overhead excluded).
double state_bytes(int) { return sizeof(int); }
double state_bytes(const core::Agent& a) {
  std::size_t b = sizeof(core::Agent);
  b += a.ar.channel.capacity() * sizeof(std::uint32_t);
  b += a.sv.dc.msgs.capacity() * sizeof(std::vector<core::Msg>);
  for (const auto& bucket : a.sv.dc.msgs) {
    b += bucket.capacity() * sizeof(core::Msg);
  }
  b += a.sv.dc.observations.capacity() * sizeof(std::uint32_t);
  return static_cast<double>(b);
}

constexpr std::size_t kSamplePairs = 256;
/// State samples per seed, at 1/8, 3/8, 5/8 and 7/8 of the run.
constexpr std::uint64_t kSamples = 4;
/// Keeps the timed loops' results observable, so none is optimized away.
volatile std::size_t g_sink = 0;

/// Averages of the per-sample state timings of one seed.
struct StateTimes {
  double copy_ns = 0.0, hash_ns = 0.0, delta_ns = 0.0, bytes = 0.0;
  std::uint64_t samples = 0;

  /// The interaction count at which the next sample is due, for a run of
  /// `length` interactions (0 once every sample is taken).
  std::uint64_t next_due(std::uint64_t length) const {
    if (length == 0 || samples == kSamples) return 0;
    return std::max<std::uint64_t>(1, (2 * samples + 1) * length /
                                          (2 * kSamples));
  }

  void put(LayerValues* v) const {
    if (samples == 0) return;
    const double k = static_cast<double>(samples);
    (*v)["core.agent.copy_ns"] = copy_ns / k;
    (*v)["core.agent.hash_ns"] = hash_ns / k;
    (*v)["core.delta_ns"] = delta_ns / k;
    (*v)["core.agent.bytes"] = bytes / k;
  }
};

/// Times copy-construction, hashing and δ on `picks` (consecutive pairs),
/// states drawn from the workload's own configuration mid-run, so the
/// figures reconcile with pp.ns_per_interaction.  δ runs on copies with
/// its own random stream: the engine's trajectory is never touched.
template <pp::Protocol P>
void time_states(const P& protocol,
                 const std::vector<typename P::State>& picks,
                 std::uint64_t seed, StateTimes* times) {
  using State = typename P::State;
  constexpr int kRepeats = 5;
  util::Rng rng(util::substream(seed, 991 + times->samples));
  std::vector<double> copy, hash, delta;
  std::vector<State> dst;
  dst.reserve(picks.size());
  const double count = static_cast<double>(picks.size());
  for (int rep = 0; rep < kRepeats; ++rep) {
    dst.clear();
    auto t = Clock::now();
    for (const State& a : picks) dst.push_back(a);
    copy.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
        count);
    t = Clock::now();
    std::size_t h = 0;
    for (const State& a : picks) h ^= std::hash<State>{}(a);
    hash.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
        count);
    g_sink = g_sink ^ h;
    t = Clock::now();
    for (std::size_t i = 0; i + 1 < dst.size(); i += 2) {
      protocol.interact(dst[i], dst[i + 1], rng);
    }
    delta.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t).count() /
        (count / 2));
    g_sink = g_sink ^ std::hash<State>{}(dst.front());
  }
  double bytes = 0.0;
  for (const State& a : picks) bytes += state_bytes(a);
  times->copy_ns += median(copy);
  times->hash_ns += median(hash);
  times->delta_ns += median(delta);
  times->bytes += bytes / count;
  ++times->samples;
}

/// States of uniform agents of a counts configuration (agent-weighted, like
/// the scheduler), drawn without touching the registry's own counters.
template <pp::Protocol P>
std::vector<typename P::State> pick_states(const pp::CountsConfiguration<P>& cfg,
                                           util::Rng& rng) {
  std::vector<const typename P::State*> states;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t total = 0;
  cfg.for_each([&](const typename P::State& s, std::uint64_t c) {
    states.push_back(&s);
    total += c;
    cumulative.push_back(total);
  });
  std::vector<typename P::State> picks;
  for (std::size_t i = 0; i < 2 * kSamplePairs; ++i) {
    const std::uint64_t u = rng.below(total);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), u);
    picks.push_back(*states[static_cast<std::size_t>(it - cumulative.begin())]);
  }
  return picks;
}

// --- seeds -----------------------------------------------------------------

struct SeedOutcome {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string failure;  ///< the first output check that failed
  double setup_s = 0.0;
  double solve_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t interactions = 0;
  std::optional<std::uint64_t> fingerprint;
  LayerValues layer;  ///< traced pass only
};

struct Ctx {
  Tracer& tracer;
  std::string run_dir;
  /// Traced pass: the seed's run length in interactions, known from the
  /// untraced pass, which places the agent samples (0 = no samples).
  std::uint64_t run_length = 0;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void fail(SeedOutcome* out, const std::string& why) {
  if (out->ok) {
    out->ok = false;
    out->failure = why;
  }
}

// epidemic-leaping: Lemma A.2 one-way epidemic on the leaping engine.
SeedOutcome run_epidemic(std::uint64_t seed, Ctx& ctx) {
  Tracer& tr = ctx.tracer;
  SeedOutcome out;
  out.seed = seed;
  out.ok = true;
  const std::uint64_t n = kEpidemicN;
  const pp::Epidemic protocol{0xffffffffu};  // n is carried by the counts
  const auto t0 = Clock::now();
  std::optional<pp::LeapingSimulator<pp::Epidemic>> sim;
  {
    Scope s(tr, "pp.build");
    pp::CountsConfiguration<pp::Epidemic> counts(std::vector<int>{1});
    counts.add(0, n - 1);
    sim.emplace(protocol, std::move(counts), seed);
    // Closes the pair-type table, which the engine otherwise builds inside
    // its first step; zero interactions, no random draws.
    sim->step(0);
  }
  const auto t1 = Clock::now();
  const std::uint64_t budget = epidemic_budget(n);
  StateTimes state_times;
  pp::RunResult run;
  {
    Scope s(tr, "pp.run_until");
    run = sim->run_until(
        [&](const pp::CountsConfiguration<pp::Epidemic>& c, std::uint64_t t) {
          const std::uint64_t due = state_times.next_due(ctx.run_length);
          if (due != 0 && t >= due) {
            Scope b(tr, "bench.sample");
            util::Rng rng(util::substream(seed, 990));
            time_states(protocol, pick_states(c, rng), seed, &state_times);
          }
          Scope p(tr, "probe.full_infection");
          return c.count_of(0) == 0;
        },
        budget, n);
  }
  const auto t2 = Clock::now();
  out.interactions = run.interactions;
  if (!run.converged) fail(&out, "epidemic: no full infection within budget");
  const double cap = 7.0 * static_cast<double>(n) * std::log(static_cast<double>(n));
  if (static_cast<double>(run.interactions) >= cap) {
    fail(&out, "epidemic: took 7·n·ln n interactions or more");
  }
  if (sim->config().count_of(1) != n) {
    fail(&out, "epidemic: infected count differs from n");
  }
  if (tr.on()) {
    put_engine_metrics(sim->metrics(), &out.layer);
    state_times.put(&out.layer);
    out.layer["core.state_bits"] = 1.0;  // two states
  }
  const auto t3 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.solve_s = seconds_between(t1, t2);
  out.wall_s = seconds_between(t0, t3);
  return out;
}

// clean-naive / recovery-naive: ElectLeader_r on the naive engine, run to
// the safe predicate, replicating analysis::stabilize's naive path (same
// configuration streams, probe grid n, safe predicate).
SeedOutcome run_elect_naive(bool adversarial, std::uint64_t seed, Ctx& ctx) {
  Tracer& tr = ctx.tracer;
  SeedOutcome out;
  out.seed = seed;
  out.ok = true;
  const core::Params params =
      core::Params::make(adversarial ? kRecoveryN : kCleanN, kElectR,
                         core::MessageMultiplicity::kLight);
  const core::ElectLeader protocol(params);
  const auto t0 = Clock::now();
  std::vector<core::Agent> config;
  if (adversarial) {
    Scope s(tr, "core.make_adversarial_config");
    util::Rng rng(util::substream(seed, 77));
    config = core::make_adversarial_config(
        params, core::Corruption::kCorruptMessages, rng);
  } else {
    Scope s(tr, "core.initial_state");
    config.reserve(params.n);
    for (std::uint32_t i = 0; i < params.n; ++i) {
      config.push_back(protocol.initial_state(i));
    }
  }
  std::optional<pp::Simulator<core::ElectLeader>> sim;
  {
    Scope s(tr, "pp.build");
    pp::Population<core::ElectLeader> population(std::move(config));
    sim.emplace(protocol, std::move(population), seed);
  }
  const auto t1 = Clock::now();
  StateTimes state_times;
  pp::RunResult run;
  {
    Scope s(tr, "pp.run_until");
    run = sim->run_until(
        [&](const pp::Population<core::ElectLeader>& pop, std::uint64_t t) {
          const std::uint64_t due = state_times.next_due(ctx.run_length);
          if (due != 0 && t >= due) {
            Scope b(tr, "bench.sample");
            util::Rng rng(util::substream(seed, 990));
            std::vector<core::Agent> picks;
            for (std::size_t i = 0; i < 2 * kSamplePairs; ++i) {
              picks.push_back(pop[static_cast<std::uint32_t>(
                  rng.below(pop.size()))]);
            }
            time_states(protocol, picks, seed, &state_times);
          }
          Scope p(tr, "core.is_safe_configuration");
          return core::is_safe_configuration(params, pop.states());
        },
        elect_budget(params), params.n);
  }
  const auto t2 = Clock::now();
  out.interactions = run.interactions;
  if (!run.converged) fail(&out, "elect: not safe within budget");
  if (core::leader_count(sim->population().states()) != 1) {
    fail(&out, "elect: leader count is not exactly one");
  }
  if (tr.on()) {
    put_engine_metrics(sim->metrics(), &out.layer);
    state_times.put(&out.layer);
    out.layer["core.state_bits"] = core::bits_elect_leader(params);
  }
  const auto t3 = Clock::now();
  // Digest of the final configuration (order-sensitive FNV-1a over the
  // agents' hashes), computed outside every timed interval.
  std::uint64_t h = 1469598103934665603ull;
  for (const core::Agent& a : sim->population().states()) {
    h ^= std::hash<core::Agent>{}(a);
    h *= 1099511628211ull;
  }
  out.fingerprint = h;
  out.setup_s = seconds_between(t0, t1);
  out.solve_s = seconds_between(t1, t2);
  out.wall_s = seconds_between(t0, t3);
  return out;
}

/// Times of the "checkpoint" events in a fault-runner journal, in seconds
/// since the journal was opened.
std::vector<double> journal_checkpoint_times(const std::string& path) {
  std::vector<double> times;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"checkpoint\"") == std::string::npos) continue;
    const auto at = line.find("\"t_s\":");
    if (at == std::string::npos) continue;
    times.push_back(std::strtod(line.c_str() + at + 6, nullptr));
  }
  return times;
}

/// Rebuilds the fault runner's checkpoint saves as spans.  A save starts
/// when the last hook of its probe returns (the runner then canonicalizes,
/// encodes every state, serializes and writes) and ends at the journal's
/// "checkpoint" event.  The encode spans inside a save become its children.
void add_save_spans(Tracer& tr, std::size_t from, std::int32_t runner,
                    const std::vector<std::int64_t>& save_ends) {
  auto& spans = tr.spans();
  const std::size_t end = spans.size();
  std::size_t i = from;
  for (const std::int64_t save_end : save_ends) {
    std::int64_t start = -1;
    std::vector<std::size_t> encodes;
    for (; i < end && spans[i].start_ns <= save_end; ++i) {
      if (spans[i].parent != runner) continue;
      if (std::string(spans[i].name) == "obs.checkpoint.encode") {
        encodes.push_back(i);
      } else if (encodes.empty()) {
        start = spans[i].end_ns;
      }
    }
    if (start < 0 || encodes.empty()) continue;
    const std::int32_t save = tr.add("obs.checkpoint.save", runner, start,
                                     save_end);
    for (const std::size_t e : encodes) spans[e].parent = save;
  }
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// soak-batched: bench_e2_churn's ElectLeader fault plan on the batched
// engine through analysis::run_fault_plan_counts, with the model
// analysis::run_fault_plan builds, plus checkpoints.
SeedOutcome run_soak(std::uint64_t seed, Ctx& ctx) {
  using Cfg = pp::CountsConfiguration<core::ElectLeader>;
  Tracer& tr = ctx.tracer;
  SeedOutcome out;
  out.seed = seed;
  out.ok = true;
  const core::Params params = core::Params::make(kSoakN, kSoakR);
  const core::ElectLeader protocol(params);
  const std::string stem = ctx.run_dir + "/soak-" + std::to_string(seed);
  const std::string ckpt = stem + ".ckpt";
  remove_quietly(ckpt);

  const auto t0 = Clock::now();
  std::vector<core::Agent> safe;
  {
    Scope s(tr, "core.make_safe_config");
    safe = core::make_safe_config(params);
  }
  std::optional<Cfg> start;
  {
    Scope s(tr, "pp.build");
    start.emplace(safe);
  }
  const std::string period = std::to_string(kSoakChurnPeriod);
  const analysis::FaultPlan plan = analysis::parse_fault_plan(
      "corrupt:recovery:8,leave:periodic:" + period + ":4,join:periodic:" +
          period + ":4",
      kSoakHorizon, kSoakN);

  StateTimes state_times;
  // Registry gauges at every probe: saves canonicalize the registry, which
  // restarts its counters, so the final snapshot alone would miss them.
  std::uint64_t probes = 0, peak_allocated = 0, live_at_peak = 0;
  std::uint64_t fenwick_updates = 0, compactions = 0;
  std::uint64_t last_fenwick = 0, last_compactions = 0;
  bool registry_bounded = true;
  analysis::FaultModel<core::ElectLeader> model;
  model.corrupt_state = [&](util::Rng& rng) {
    Scope s(tr, "analysis.fault.corrupt_state");
    return core::random_agent(params, rng);
  };
  model.join_state = [&] {
    Scope s(tr, "analysis.fault.join_state");
    return protocol.initial_state(0);
  };
  model.safe = [&](const Cfg& c) {
    ++probes;
    const std::uint64_t live = c.num_live_states();
    const std::uint64_t allocated = c.num_allocated_states();
    registry_bounded =
        registry_bounded && allocated <= 2 * live + (1ull << 16) + 64;
    if (tr.on()) {
      if (allocated >= peak_allocated) {
        peak_allocated = allocated;
        live_at_peak = live;
      }
      if (c.fenwick_updates() < last_fenwick) fenwick_updates += last_fenwick;
      if (c.compactions() < last_compactions) compactions += last_compactions;
      last_fenwick = c.fenwick_updates();
      last_compactions = c.compactions();
      const std::uint64_t due = state_times.next_due(ctx.run_length);
      if (due != 0 && probes * kSoakN >= due) {
        Scope b(tr, "bench.sample");
        util::Rng rng(util::substream(seed, 990));
        time_states(protocol, pick_states(c, rng), seed, &state_times);
      }
    }
    Scope s(tr, "core.is_safe_configuration");
    return core::is_safe_configuration(params, c);
  };
  model.unique_leader = [&](const Cfg& c) {
    Scope s(tr, "core.leader_count");
    return c.count_if(core::ElectLeader::is_leader) == 1;
  };
  model.encode = [&](const core::Agent& a) {
    Scope s(tr, "obs.checkpoint.encode");
    return core::snapshot_write_agent(a);
  };
  model.decode = [](const std::string& text) {
    return core::snapshot_read_agent(text);
  };
  model.label = "elect_leader";

  analysis::FaultRunOptions opts;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every = kSoakCheckpointEvery;
  opts.resume = false;
  // Traced pass: the runner's journal stamps the end of every checkpoint
  // save ("checkpoint" events), which no hook observes.
  std::optional<obs::Journal> journal;
  std::int64_t journal_epoch_ns = 0;
  const std::string journal_path = stem + ".journal.jsonl";
  if (tr.on()) {
    obs::Journal::Options jo;
    jo.path = journal_path;
    jo.every_interactions = ~std::uint64_t{0};
    journal.emplace(std::move(jo));
    journal_epoch_ns = tr.now_ns();
    opts.journal = &*journal;
  }
  std::optional<Cfg> final_cfg;
  if (tr.on()) final_cfg.emplace(std::vector<core::Agent>{});
  const std::size_t span_from = tr.spans().size();
  const auto t1 = Clock::now();
  analysis::FaultReport report;
  std::int32_t runner = -1;
  {
    runner = tr.open("analysis.run_fault_plan_counts");
    report = analysis::run_fault_plan_counts(
        protocol, std::move(*start), plan, seed, model, opts,
        final_cfg ? &*final_cfg : nullptr);
    tr.close(runner);
  }
  const auto t2 = Clock::now();

  out.interactions = report.interactions;
  out.fingerprint = report.registry_fingerprint;
  if (!report.completed || report.interactions != kSoakHorizon) {
    fail(&out, "soak: horizon not completed");
  }
  if (report.recovery_times.empty()) fail(&out, "soak: no recovery cycle");
  const std::uint64_t live = report.metrics.registry_live_states;
  const std::uint64_t allocated = report.metrics.registry_allocated_states;
  if (!registry_bounded || allocated > 2 * live + (1ull << 16) + 64) {
    fail(&out, "soak: registry allocation exceeds 2·live + 2^16 + 64");
  }

  if (tr.on()) {
    std::vector<std::int64_t> save_ends;
    for (const double t : journal_checkpoint_times(journal_path)) {
      save_ends.push_back(journal_epoch_ns +
                          static_cast<std::int64_t>(std::llround(t * 1e9)));
    }
    journal.reset();
    add_save_spans(tr, span_from, runner, save_ends);
    put_engine_metrics(report.metrics, &out.layer);
    out.layer["pp.counts.registry_live"] = static_cast<double>(live_at_peak);
    out.layer["pp.counts.registry_allocated"] =
        static_cast<double>(peak_allocated);
    // A save after the last probe restarted the counters once more.
    const auto total = [](std::uint64_t before, std::uint64_t last,
                          std::uint64_t final_count) {
      return static_cast<double>(
          before + (final_count < last ? last + final_count : final_count));
    };
    out.layer["pp.counts.fenwick_updates"] = total(
        fenwick_updates, last_fenwick, report.metrics.fenwick_point_updates);
    out.layer["pp.counts.compactions"] = total(
        compactions, last_compactions, report.metrics.registry_compactions);
    state_times.put(&out.layer);
    out.layer["core.state_bits"] = core::bits_elect_leader(params);
    out.layer["analysis.fault.events"] = static_cast<double>(report.events);
    out.layer["analysis.recovery_cycles"] =
        static_cast<double>(report.recovery_times.size());
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(ckpt, ec);
    out.layer["obs.checkpoint.bytes"] = ec ? 0.0 : static_cast<double>(bytes);

    // Durable-write throughput, on its own: replay the save of the final
    // state (make_checkpoint once, checkpoint_save three times) and divide
    // the checkpoint's bytes by the median save latency.
    pp::BatchedSimulator<core::ElectLeader> replay(protocol,
                                                   std::move(*final_cfg), seed);
    std::optional<obs::CheckpointDoc> doc;
    {
      Scope s(tr, "obs.make_checkpoint");
      doc = obs::make_checkpoint(replay, model.label,
                                 [](const core::Agent& a) {
                                   return core::snapshot_write_agent(a);
                                 });
    }
    std::vector<double> saves;
    const std::string replay_path = stem + ".replay.ckpt";
    for (int k = 0; k < 3; ++k) {
      const auto a = Clock::now();
      {
        Scope s(tr, "obs.checkpoint_save");
        if (!obs::checkpoint_save(replay_path, *doc)) {
          fail(&out, "soak: checkpoint replay save failed");
        }
      }
      saves.push_back(seconds_between(a, Clock::now()));
    }
    remove_quietly(replay_path);
    out.layer["obs.checkpoint.fsync_mb_per_s"] =
        ec || median(saves) <= 0.0
            ? 0.0
            : static_cast<double>(bytes) / median(saves) / 1e6;
  }
  const auto t3 = Clock::now();
  remove_quietly(ckpt);
  remove_quietly(ckpt + ".tmp");
  remove_quietly(journal_path);

  out.setup_s = seconds_between(t0, t1);
  out.solve_s = seconds_between(t1, t2);
  out.wall_s = seconds_between(t0, t3);
  return out;
}

// --- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string run_dir;
  std::string git_sha = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=<epidemic-leaping|"
               "clean-naive|recovery-naive|soak-batched> --seed=<n> "
               "--seconds=<s> --trace=<0|1> --run-dir=<dir> "
               "[--git-sha=<sha>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-') {
    usage("--" + key + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage("unexpected argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "seed") {
      a.seed = parse_u64(key, value);
      have_seed = true;
    } else if (key == "seconds") {
      a.seconds = static_cast<double>(parse_u64(key, value));
      have_seconds = true;
    } else if (key == "trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "run-dir") {
      a.run_dir = value;
    } else if (key == "git-sha") {
      a.git_sha = value;
    } else {
      usage("unknown flag --" + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      a.run_dir.empty()) {
    usage("missing a required flag");
  }
  if (a.seconds < 1.0) usage("--seconds must be at least 1");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

struct Workload {
  SeedOutcome (*run)(std::uint64_t seed, Ctx& ctx);
  const char* step_span;  ///< span whose self time is the engine's
  const char* stop_span;  ///< the stop predicate at probes
};

SeedOutcome run_clean(std::uint64_t seed, Ctx& ctx) {
  return run_elect_naive(false, seed, ctx);
}
SeedOutcome run_recovery(std::uint64_t seed, Ctx& ctx) {
  return run_elect_naive(true, seed, ctx);
}

void print_digest(const char* pass, const std::string& workload,
                  std::size_t index, const SeedOutcome& o) {
  std::printf("digest %s %s seed[%zu]=%llu interactions=%llu", pass,
              workload.c_str(), index,
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.interactions));
  if (o.fingerprint) {
    std::printf(" fingerprint=0x%016llx",
                static_cast<unsigned long long>(*o.fingerprint));
  }
  std::printf(" %s\n", o.ok ? "ok" : ("FAILED: " + o.failure).c_str());
  std::printf("time %s %s seed[%zu] setup_s=%.6f solve_s=%.6f wall_s=%.6f\n",
              pass, workload.c_str(), index, o.setup_s, o.solve_s, o.wall_s);
}

bool same_trajectory(const SeedOutcome& a, const SeedOutcome& b) {
  return a.interactions == b.interactions && a.fingerprint == b.fingerprint;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::map<std::string, Workload> workloads = {
      {"epidemic-leaping",
       {&run_epidemic, "pp.run_until", "probe.full_infection"}},
      {"clean-naive",
       {&run_clean, "pp.run_until", "core.is_safe_configuration"}},
      {"recovery-naive",
       {&run_recovery, "pp.run_until", "core.is_safe_configuration"}},
      {"soak-batched",
       {&run_soak, "analysis.run_fault_plan_counts",
        "core.is_safe_configuration"}},
  };
  const auto wl = workloads.find(args.workload);
  if (wl == workloads.end()) usage("unknown workload '" + args.workload + "'");
  std::error_code ec;
  std::filesystem::create_directories(args.run_dir, ec);

  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf("perfbench workload=%s base_seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf(
      "provenance {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"threads\": 1, "
      "\"valid\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(args.git_sha).c_str(), release ? "true" : "false");
  if (!release) {
    std::printf("warning: not a Release build; these numbers are invalid\n");
  }
  std::fflush(stdout);

  // Untraced pass: every seed the budget allows (a traced run keeps about
  // half its budget for the traced rerun of the same seeds).
  Tracer off(false);
  Ctx plain{off, args.run_dir, 0};
  const double budget = args.trace ? 0.45 * args.seconds : args.seconds;
  std::vector<SeedOutcome> untraced;
  const auto run_start = Clock::now();
  do {
    const std::uint64_t seed = util::substream(args.seed, untraced.size());
    untraced.push_back(wl->second.run(seed, plain));
    print_digest("untraced", args.workload, untraced.size() - 1,
                 untraced.back());
    std::fflush(stdout);
  } while (seconds_between(run_start, Clock::now()) < budget);

  std::size_t failed = 0;
  for (const SeedOutcome& o : untraced) failed += o.ok ? 0 : 1;
  std::size_t attempted = untraced.size();
  bool correct = failed == 0 && release;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;

  if (!args.trace) {
    std::vector<double> setup, solve, wall;
    double interactions = 0.0, solve_total = 0.0;
    for (const SeedOutcome& o : untraced) {
      setup.push_back(o.setup_s);
      solve.push_back(o.solve_s);
      wall.push_back(o.wall_s);
      interactions += static_cast<double>(o.interactions);
      solve_total += o.solve_s;
    }
    metrics = {
        {"setup_s", {median(setup), "s"}},
        {"solve_s", {median(solve), "s"}},
        {"wall_s", {median(wall), "s"}},
        {"mint_per_s", {interactions / solve_total / 1e6, "Mint/s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
    std::printf("seeds = %zu\n", untraced.size());
    for (const auto& [name, vu] : metrics) {
      std::printf("metric %s = %.17g %s\n", name.c_str(), vu.first,
                  vu.second);
    }
    std::printf("metric failed_frac = %.17g (%zu of %zu seeds)\n",
                static_cast<double>(failed) /
                    static_cast<double>(untraced.size()),
                failed, untraced.size());
    // The highest percentile with at least 10 seeds beyond it.
    if (solve.size() > 10) {
      std::sort(solve.begin(), solve.end());
      const std::size_t rank = solve.size() - 10;  // seeds at or below
      std::printf("metric solve_s_p%.0f = %.17g s (%zu seeds, 10 beyond)\n",
                  std::floor(100.0 * static_cast<double>(rank) /
                             static_cast<double>(solve.size())),
                  solve[rank - 1], solve.size());
    }
  } else {
    // Traced pass over exactly the same seeds.
    Tracer tracer(true);
    std::vector<SeedOutcome> traced;
    for (std::size_t i = 0; i < untraced.size(); ++i) {
      tracer.set_seed(untraced[i].seed);
      Ctx ctx{tracer, args.run_dir, untraced[i].interactions};
      const std::size_t from = tracer.spans().size();
      SeedOutcome o = wl->second.run(untraced[i].seed, ctx);
      const auto stats = aggregate(tracer.spans(), from);
      put_span_metrics(stats, wl->second.step_span, wl->second.stop_span,
                       o.interactions, o.setup_s + o.solve_s, &o.layer);
      traced.push_back(std::move(o));
      print_digest("traced", args.workload, i, traced.back());
      std::fflush(stdout);
    }
    attempted += traced.size();
    bool same = true;
    double wall_untraced = 0.0, wall_traced = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      failed += traced[i].ok ? 0 : 1;
      same = same && same_trajectory(untraced[i], traced[i]);
      // The process's first seed pays its cold start (page faults, empty
      // allocator arenas) untraced only, so it stays out of the overhead.
      if (i == 0 && traced.size() > 1) continue;
      wall_untraced += untraced[i].setup_s + untraced[i].solve_s;
      wall_traced += traced[i].setup_s + traced[i].solve_s;
    }
    std::printf("check traced trajectory == untraced trajectory: %s\n",
                same ? "ok" : "MISMATCH");
    correct = correct && failed == 0 && same;

    const std::string trace_path =
        args.run_dir + "/trace-" + args.workload + ".tsv";
    if (!tracer.write(trace_path)) {
      std::printf("warning: could not write %s\n", trace_path.c_str());
    }
    std::printf("seeds = %zu (each run untraced, then traced)\n",
                traced.size());
    for (const auto& [name, unit] : kLayerMetrics) {
      std::vector<double> per_seed;
      for (const SeedOutcome& o : traced) {
        const auto it = o.layer.find(name);
        per_seed.push_back(it == o.layer.end() ? 0.0 : it->second);
      }
      const double v = std::string(name) == "trace.overhead"
                           ? wall_traced / wall_untraced
                           : median(per_seed);
      metrics.push_back({name, {v, unit}});
      std::printf("metric %s = %.17g %s\n", name, v, unit);
    }
    if (traced.front().layer.count("core.agent.bytes")) {
      std::printf("core.agent.bytes %.1f B/agent (%.1f bits) next to "
                  "core::state_size log|Q| = %.1f bits\n",
                  traced.front().layer.at("core.agent.bytes"),
                  8.0 * traced.front().layer.at("core.agent.bytes"),
                  traced.front().layer.at("core.state_bits"));
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.c_str(),
                metrics[i].second.first, metrics[i].second.second);
  }
  std::printf("}}\n");
  return 0;
}
