#include "core/elect_leader.hpp"

#include <algorithm>

#include "core/assign_ranks.hpp"
#include "core/propagate_reset.hpp"
#include "core/stable_verify.hpp"

namespace ssle::core {

ElectLeader::State ElectLeader::initial_state(std::uint32_t agent) const {
  (void)agent;
  Agent a;
  reset_agent(params_, a);
  return a;
}

void ElectLeader::interact_general(State& u, State& v,
                                   util::Rng& rng) const {
  // Protocol 1 lines 1–2: resetters run PropagateReset (which may turn the
  // partner into a resetter, or resetters into rankers); then fall through.
  if (u.role == Role::kResetting) {
    propagate_reset(params_, u, v);
  } else if (v.role == Role::kResetting) {
    propagate_reset(params_, v, u);
  }

  // Lines 3–5: two rankers execute AssignRanks_r and tick their countdowns.
  if (u.role == Role::kRanking && v.role == Role::kRanking) {
    assign_ranks(params_, u.ar, v.ar, rng);
    if (u.countdown > 0) --u.countdown;
    if (v.countdown > 0) --v.countdown;
  }

  // Lines 6–8: rankers become verifiers when the countdown expires or by
  // epidemic from a verifier, carrying their computed rank into the global
  // rank field and entering StableVerify at q0,SV.
  for (auto [self, other] : {std::pair<Agent*, Agent*>{&u, &v},
                             std::pair<Agent*, Agent*>{&v, &u}}) {
    if (self->role == Role::kRanking &&
        (self->countdown == 0 || other->role == Role::kVerifying)) {
      self->role = Role::kVerifying;
      // The state space restricts rank to [n] (Fig. 1); clamp enforces this
      // for ranks computed from adversarially initialized channels.
      self->rank = std::clamp<std::uint32_t>(self->ar.rank, 1, params_.n);
      sv_reset(params_, self->rank, self->sv);
      self->ar = ArState{};
    }
  }

  // Lines 9–10: two verifiers execute StableVerify_r.
  if (u.role == Role::kVerifying && v.role == Role::kVerifying) {
    stable_verify(params_, u, v, rng);
  }
}

}  // namespace ssle::core
