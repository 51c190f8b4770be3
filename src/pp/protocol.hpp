// Protocol concept for the simulation engine.
//
// A population protocol supplies:
//   * `using State = ...`               — the per-agent state type,
//   * `State initial_state(agent) const` — the clean initial state,
//   * `void interact(State& initiator, State& responder, util::Rng&) const`
//                                        — the transition function δ.
//
// The transition function may consume randomness (the paper assumes agents
// can sample almost-u.a.r. values; Appendix B shows how to derandomize,
// which we implement separately in core/synthetic_coin).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/rng.hpp"

namespace ssle::pp {

template <typename P>
concept Protocol = requires(const P& p, typename P::State& s,
                            typename P::State& t, util::Rng& rng,
                            std::uint32_t agent) {
  { p.initial_state(agent) } -> std::same_as<typename P::State>;
  { p.interact(s, t, rng) };
  { p.population_size() } -> std::convertible_to<std::uint32_t>;
};

/// True when P declares its transition function deterministic — δ is a pure
/// function (State × State) → (State × State) that never draws from the
/// engine Rng — by defining `static constexpr bool kDeterministicInteract
/// = true`.  The batched engine then (a) applies one transition result to
/// a whole block of same-type pairs and (b) memoizes transitions as an
/// (id, id) → (id, id) lookup over interned class ids, skipping the δ call,
/// both state copies and both hashes on the hot path.  Declaring this on a
/// protocol whose δ *does* draw from the Rng silently biases results.
template <typename P>
inline constexpr bool kDeterministicDelta = [] {
  if constexpr (requires {
                  { P::kDeterministicInteract } -> std::convertible_to<bool>;
                }) {
    return static_cast<bool>(P::kDeterministicInteract);
  } else {
    return false;
  }
}();

/// Concept form of the opt-in, for overload gating.
template <typename P>
concept DeterministicDelta = Protocol<P> && kDeterministicDelta<P>;

/// True when P declares its reachable state space narrow — the set of
/// distinct states reachable (under δ) from any initial configuration is
/// bounded by a small q independent of n — by defining
/// `static constexpr bool kNarrowRegistry = true`.  The leap engine
/// (pp/leaping_simulator.hpp) precomputes the full q × q pair-type table by
/// closure over δ, so it requires this bound to hold: protocols whose
/// registry grows with n (ranks, identifiers, q ≈ n random starts) must
/// not declare it — their closure would not terminate in bounded space,
/// and pair-type leaping cannot pay there anyway (almost every pair type
/// is live, so there are no long null runs to jump).
template <typename P>
inline constexpr bool kNarrowRegistry = [] {
  if constexpr (requires {
                  { P::kNarrowRegistry } -> std::convertible_to<bool>;
                }) {
    return static_cast<bool>(P::kNarrowRegistry);
  } else {
    return false;
  }
}();

/// Leap eligibility: deterministic δ (pair types have fixed outputs, so a
/// pair type is durably "null" or "active") AND a narrow registry (the
/// O(q²) pair-type table is affordable and closes).  The leap engine
/// static_asserts this; `analysis::stabilize_derandomized(Engine::kLeaping,
/// …)` routes its ineligible protocol to the batched engine instead.
template <typename P>
concept LeapEligible = DeterministicDelta<P> && kNarrowRegistry<P>;

/// Opt-in for the naive engine's packed lane (pp::Simulator::step).  P
/// declares `static std::uint32_t lane_key(const State&)` and
/// `static void set_lane_key(State&, std::uint32_t)`, with this contract:
/// when both agents' keys are above 1, interact() only lowers each key by
/// one (through set_lane_key) and draws nothing; set_lane_key, called only
/// on a state whose key is non-zero, changes nothing but the key.  The
/// engine then runs those silent pairs on an array of keys and leaves the
/// states alone until another pair meets them or the population is read.
template <typename P>
concept SilentLane = Protocol<P> && requires(const typename P::State& cs,
                                             typename P::State& s,
                                             std::uint32_t key) {
  { P::lane_key(cs) } -> std::same_as<std::uint32_t>;
  { P::set_lane_key(s, key) };
};

/// The interaction count at which a `run_until` budget of `budget`
/// interactions, started at `interactions`, runs out.  Saturates at
/// 2^64 − 1, so an "unbounded" budget of ~0 never wraps below the start.
inline std::uint64_t budget_limit(std::uint64_t interactions,
                                  std::uint64_t budget) {
  const std::uint64_t room = ~std::uint64_t{0} - interactions;
  return budget > room ? ~std::uint64_t{0} : interactions + budget;
}

/// Engine-constructor precondition: the uniform scheduler draws two
/// distinct agents, so every engine starts from n >= 2 agents, and the
/// naive engine, which indexes agents with 32 bits, from n <= `max_n`.
/// A violation exits with status 2 naming the field.
inline void require_population(const char* engine, std::uint64_t n,
                               std::uint64_t max_n = ~std::uint64_t{0}) {
  if (n >= 2 && n <= max_n) return;
  std::fprintf(stderr,
               "error: the %s engine needs a population of 2 <= n <= %llu "
               "agents, got n=%llu (field: n)\n",
               engine, static_cast<unsigned long long>(max_n),
               static_cast<unsigned long long>(n));
  std::exit(2);
}

/// Engine-constructor precondition for an explicit scheduler: it must draw
/// agents from exactly the population's index range, or the engine would
/// index past the agent array (or leave agents that never interact).  A
/// mismatch exits with status 2 naming the field.
inline void require_scheduler_agents(const char* engine,
                                     std::uint64_t scheduler_agents,
                                     std::uint64_t n) {
  if (scheduler_agents == n) return;
  std::fprintf(stderr,
               "error: the %s engine's scheduler draws from %llu agents but "
               "the population has %llu (field: scheduler.agents)\n",
               engine, static_cast<unsigned long long>(scheduler_agents),
               static_cast<unsigned long long>(n));
  std::exit(2);
}

}  // namespace ssle::pp
