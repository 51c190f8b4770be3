// Simulation loop with periodic predicate probing.
//
// Population-protocol complexity is counted in pairwise interactions;
// "parallel time" = interactions / n (paper §1).  The simulator advances
// the configuration one scheduled interaction at a time and periodically
// evaluates a caller-supplied predicate (e.g. "is this configuration
// safe?").  `run_until` returns the first probe at which the predicate
// holds, giving stabilization measurements with ±probe_every granularity.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"
#include "pp/scheduler.hpp"

namespace ssle::pp {

struct RunResult {
  /// Interactions executed when the predicate first held (probe granular).
  std::uint64_t interactions = 0;
  bool converged = false;

  double parallel_time(std::uint32_t n) const {
    return n == 0 ? 0.0
                  : static_cast<double>(interactions) / static_cast<double>(n);
  }
};

/// Scheduler concept: yields the next interacting ordered pair, drawn from
/// agents 0 .. population_size() − 1.
template <typename S>
concept Scheduler = requires(S s, const S& cs) {
  { s.next() } -> std::same_as<Pair>;
  { cs.population_size() } -> std::convertible_to<std::uint64_t>;
};

template <Protocol P, Scheduler Sched = UniformScheduler>
class Simulator {
 public:
  /// Agents are indexed with 32 bits.
  static constexpr std::uint64_t kMaxAgents = 0xFFFFFFFFull;

  using Predicate =
      std::function<bool(const Population<P>&, std::uint64_t /*interactions*/)>;

  /// Generic constructor with an explicit scheduler (e.g. a GraphScheduler
  /// restricting interactions to the edges of a communication graph).
  Simulator(const P& protocol, Population<P> population, Sched scheduler,
            std::uint64_t seed)
      : protocol_(protocol),
        population_(std::move(population)),
        scheduler_(std::move(scheduler)),
        agent_rng_(util::substream(seed, 2)) {
    require_population("naive", population_.states().size(), kMaxAgents);
    require_scheduler_agents("naive", scheduler_.population_size(),
                             population_.states().size());
  }

  Simulator(const P& protocol, Population<P> population, std::uint64_t seed)
    requires std::same_as<Sched, UniformScheduler>
      : protocol_(protocol),
        population_(std::move(population)),
        scheduler_(population_.size(), util::substream(seed, 1)),
        agent_rng_(util::substream(seed, 2)) {
    require_population("naive", population_.states().size(), kMaxAgents);
  }

  Simulator(const P& protocol, std::uint64_t seed)
    requires std::same_as<Sched, UniformScheduler>
      : Simulator(protocol, Population<P>(protocol), seed) {}

  /// Executes exactly `count` interactions.
  ///
  /// A pp::SilentLane protocol runs on a packed lane: one u32 key per
  /// agent, and a silent pair (both keys above 1) only lowers two keys.
  /// Every other pair writes its two keys back into the states, runs
  /// interact() and re-keys them.  The states' keys are brought up to date
  /// only when the population is read (population(), run_until's probe,
  /// population edits, checkpoints); a non-const read drops the lane, since
  /// the caller may edit the states.  Building the lane and reading it back
  /// each cost O(n), so a step takes the lane only when it runs at least n
  /// interactions or the lane already holds keys the states lack.  While no
  /// agent has a key the lane costs two key reads per pair.  The draws and
  /// the transitions are those of the one-pair loop.
  void step(std::uint64_t count = 1) {
    if constexpr (SilentLane<P>) {
      if ((lane_live_ && !lane_flushed_) || count >= population_.size()) {
        step_lane(count);
        interactions_ += count;
        return;
      }
      lane_live_ = false;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const Pair pair = scheduler_.next();
      protocol_.interact(population_[pair.initiator],
                         population_[pair.responder], agent_rng_);
    }
    interactions_ += count;
  }

  /// Runs until `done` holds at a probe, or `max_interactions` elapsed.
  /// Probes are evaluated at interaction counts that are multiples of
  /// `probe_every` (and once before the first interaction, catching
  /// configurations that already satisfy the predicate).
  RunResult run_until(const Predicate& done, std::uint64_t max_interactions,
                      std::uint64_t probe_every = 0) {
    if (probe_every == 0) {
      probe_every = std::max<std::uint64_t>(1, population_.size());
    }
    if (done(std::as_const(*this).population(), interactions_)) {
      return {interactions_, true};
    }
    const std::uint64_t limit = budget_limit(interactions_, max_interactions);
    while (interactions_ < limit) {
      const std::uint64_t chunk = std::min<std::uint64_t>(
          probe_every, limit - interactions_);
      step(chunk);
      if (done(std::as_const(*this).population(), interactions_)) {
        return {interactions_, true};
      }
    }
    return {interactions_, false};
  }

  std::uint64_t interactions() const { return interactions_; }

  /// Uniform engine-metrics snapshot (obs/metrics.hpp).  The naive engine
  /// iterates every interaction over the agent array and has no counts
  /// registry, so only the interaction counters are meaningful.
  obs::EngineMetrics metrics() const {
    obs::EngineMetrics m;
    m.engine = "naive";
    m.population = population_.size();
    m.interactions = interactions_;
    m.interactions_iterated = interactions_;
    return m;
  }

  /// The agents, up to date; the lane is dropped, since the caller may
  /// edit them.
  Population<P>& population() {
    flush_lane();
    lane_live_ = false;
    return population_;
  }
  /// The agents, up to date; the lane is kept.
  const Population<P>& population() const {
    flush_lane();
    return population_;
  }
  const P& protocol() const { return protocol_; }

  // Population edits (fault plans) and checkpoint state, uniform scheduler
  // only: edits keep its cached n in step, and a population leaving
  // [2, kMaxAgents] exits 2 (field: n), as the constructor does.
  void add_agent(typename P::State s) {
    population().states().push_back(std::move(s));
    resize_scheduler();
  }
  /// Swap-remove: the last agent takes index i.
  void remove_agent(std::uint32_t i) {
    auto& agents = population().states();
    if (i + 1 != agents.size()) agents[i] = std::move(agents.back());
    agents.pop_back();
    resize_scheduler();
  }
  void set_agents(std::vector<typename P::State> agents) {
    population().states() = std::move(agents);
    resize_scheduler();
  }
  /// [scheduler, transition agent_rng_], the order set_rng_states takes.
  std::vector<std::array<std::uint64_t, 4>> rng_states() const {
    return {scheduler_.rng().state(), agent_rng_.state()};
  }
  bool set_rng_states(const std::vector<std::array<std::uint64_t, 4>>& s) {
    if (s.size() != 2) return false;
    scheduler_.rng().set_state(s[0]);
    agent_rng_.set_state(s[1]);
    return true;
  }
  void set_interactions(std::uint64_t t) { interactions_ = t; }

 private:
  void resize_scheduler() {
    require_population("naive", population_.states().size(), kMaxAgents);
    scheduler_.set_population_size(population_.size());
  }

  // --- The silent lane (SilentLane protocols only) --------------------------

  void step_lane(std::uint64_t count) {
    if (!lane_live_) {
      const auto& agents = population_.states();
      lane_.resize(agents.size());
      lane_keyed_ = 0;
      for (std::size_t i = 0; i < agents.size(); ++i) {
        lane_[i] = P::lane_key(agents[i]);
        lane_keyed_ += lane_[i] != 0;
      }
      lane_live_ = true;
    }
    lane_flushed_ = false;
    if constexpr (std::is_trivially_copyable_v<Sched>) {
      // A local copy keeps the scheduler's state in registers across the
      // out-of-line calls.
      Sched scheduler = scheduler_;
      run_lane(scheduler, count);
      scheduler_ = scheduler;
    } else {
      run_lane(scheduler_, count);
    }
  }

  void run_lane(Sched& scheduler, std::uint64_t count) {
    std::uint32_t* const lane = lane_.data();
    while (count != 0) {
      if (lane_keyed_ == 0) {
        // No agent has a key: the one-pair loop, re-keying each pair.
        while (count != 0) {
          --count;
          const Pair pair = scheduler.next();
          auto& u = population_[pair.initiator];
          auto& v = population_[pair.responder];
          protocol_.interact(u, v, agent_rng_);
          const std::uint32_t ku = P::lane_key(u);
          const std::uint32_t kv = P::lane_key(v);
          if ((ku | kv) != 0) {
            lane[pair.initiator] = ku;
            lane[pair.responder] = kv;
            lane_keyed_ = (ku != 0) + (kv != 0);
            break;
          }
        }
        continue;
      }
      while (count != 0) {
        --count;
        const Pair pair = scheduler.next();
        const std::uint32_t ku = lane[pair.initiator];
        const std::uint32_t kv = lane[pair.responder];
        if (ku > 1 && kv > 1) {
          lane[pair.initiator] = ku - 1;
          lane[pair.responder] = kv - 1;
          continue;
        }
        interact_keyed(pair);
        if (lane_keyed_ == 0) break;
      }
    }
  }

  /// A pair that is not silent: keys back into the states, δ, re-key.
  [[gnu::noinline]] void interact_keyed(Pair pair) {
    std::uint32_t& ku = lane_[pair.initiator];
    std::uint32_t& kv = lane_[pair.responder];
    auto& u = population_[pair.initiator];
    auto& v = population_[pair.responder];
    if (ku != 0) P::set_lane_key(u, ku);
    if (kv != 0) P::set_lane_key(v, kv);
    lane_keyed_ -= (ku != 0) + (kv != 0);
    protocol_.interact(u, v, agent_rng_);
    ku = P::lane_key(u);
    kv = P::lane_key(v);
    lane_keyed_ += (ku != 0) + (kv != 0);
  }

  /// Writes the lane's keys into the states.  Const, because reading the
  /// population is: the agents and this flag are mutable for it.
  void flush_lane() const {
    if constexpr (SilentLane<P>) {
      if (!lane_live_ || lane_flushed_) return;
      if (lane_keyed_ != 0) {
        for (std::size_t i = 0; i < lane_.size(); ++i) {
          if (lane_[i] != 0) {
            P::set_lane_key(population_[static_cast<std::uint32_t>(i)],
                            lane_[i]);
          }
        }
      }
      lane_flushed_ = true;
    }
  }

  P protocol_;
  mutable Population<P> population_;  // flush_lane() writes keys back
  Sched scheduler_;
  util::Rng agent_rng_;
  std::uint64_t interactions_ = 0;
  std::vector<std::uint32_t> lane_;  ///< one key per agent while live
  std::size_t lane_keyed_ = 0;       ///< lane entries that are non-zero
  bool lane_live_ = false;           ///< lane_ holds every agent's key
  mutable bool lane_flushed_ = true; ///< the states hold the lane's keys
};

}  // namespace ssle::pp
