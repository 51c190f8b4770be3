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
  void step(std::uint64_t count = 1) {
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
    if (done(population_, interactions_)) {
      return {interactions_, true};
    }
    const std::uint64_t limit = budget_limit(interactions_, max_interactions);
    while (interactions_ < limit) {
      const std::uint64_t chunk = std::min<std::uint64_t>(
          probe_every, limit - interactions_);
      step(chunk);
      if (done(population_, interactions_)) {
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

  Population<P>& population() { return population_; }
  const Population<P>& population() const { return population_; }
  const P& protocol() const { return protocol_; }

  // Population edits (fault plans) and checkpoint state, uniform scheduler
  // only: edits keep its cached n in step, and a population leaving
  // [2, kMaxAgents] exits 2 (field: n), as the constructor does.
  void add_agent(typename P::State s) {
    population_.states().push_back(std::move(s));
    resize_scheduler();
  }
  /// Swap-remove: the last agent takes index i.
  void remove_agent(std::uint32_t i) {
    auto& agents = population_.states();
    if (i + 1 != agents.size()) agents[i] = std::move(agents.back());
    agents.pop_back();
    resize_scheduler();
  }
  void set_agents(std::vector<typename P::State> agents) {
    population_.states() = std::move(agents);
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

  P protocol_;
  Population<P> population_;
  Sched scheduler_;
  util::Rng agent_rng_;
  std::uint64_t interactions_ = 0;
};

}  // namespace ssle::pp
