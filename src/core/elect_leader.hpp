// ElectLeader_r — the paper's main protocol (§4, Protocol 1).
//
// A thin wrapper dispatching on the role field:
//   Resetting → PropagateReset (App. C),
//   Ranking   → AssignRanks_r (App. D) + countdown management,
//   Verifying → StableVerify_r (§5).
// The leader is the agent with rank 1 (§3: "taking the agent with rank 1
// to be the leader").
//
// Satisfies the pp::Protocol concept; the clean initial configuration is
// the dormant/awakening one (all agents freshly Reset), matching the
// starting point of Lemma 6.2.
#pragma once

#include <cstdint>

#include "core/agent.hpp"
#include "core/params.hpp"
#include "util/rng.hpp"

namespace ssle::core {

class ElectLeader {
 public:
  using State = Agent;

  explicit ElectLeader(Params params) : params_(std::move(params)) {}

  std::uint32_t population_size() const { return params_.n; }
  const Params& params() const { return params_; }

  /// Clean start: a freshly reset ranker (role Ranking, qAR = q0,AR,
  /// countdown = C_max) — the awakening configuration of App. C.
  State initial_state(std::uint32_t agent) const;

  /// Protocol 1.  Almost every interaction of a clean start meets two
  /// ranked rankers whose countdowns are still running (C_max outlasts
  /// AssignRanks, Lemma 6.2), and for them δ only ticks both countdowns:
  /// no reset, AssignRanks is silent and no countdown reaches 0.  That is
  /// the silent pair of pp::SilentLane, both lane keys above 1; it is
  /// decided inline, and every other pair takes interact_general().
  void interact(State& u, State& v, util::Rng& rng) const {
    const std::uint32_t ku = lane_key(u);
    const std::uint32_t kv = lane_key(v);
    if (ku > 1 && kv > 1) {
      set_lane_key(u, ku - 1);
      set_lane_key(v, kv - 1);
      return;
    }
    interact_general(u, v, rng);
  }

  /// pp::SilentLane: the countdown of a ranked ranker, else 0.
  static std::uint32_t lane_key(const State& s) {
    return s.role == Role::kRanking && s.ar.type == ArType::kRanked
               ? s.countdown
               : 0;
  }
  /// Writes a lane key back; only called on states whose key is non-zero.
  static void set_lane_key(State& s, std::uint32_t key) { s.countdown = key; }

  /// Protocol 1 for any pair, without the inline shortcut; interact()
  /// must equal it on every pair of states.
  void interact_general(State& u, State& v, util::Rng& rng) const;

  // --- Output map ----------------------------------------------------------
  /// True iff the agent is currently marked as the leader.
  static bool is_leader(const State& a) {
    return a.role == Role::kVerifying && a.rank == 1;
  }

 private:
  Params params_;
};

}  // namespace ssle::core
