#include "core/stable_verify.hpp"

#include "core/detect_collision.hpp"
#include "core/propagate_reset.hpp"

namespace ssle::core {

void sv_reset(const Params& params, std::uint32_t rank, SvState& s) {
  s.generation = 0;
  // Fresh verifiers start *on probation* (§3.2: a positive timer means
  // "only a short period of time has passed since the beginning of the
  // process", in which case errors cause a safe full reset).
  s.probation_timer = params.probation_max;
  dc_reset(params, rank, s.dc);
}

SvState sv_initial_state(const Params& params, std::uint32_t rank) {
  SvState s;
  sv_reset(params, rank, s);
  return s;
}

namespace {

/// Soft reset of a single agent (Protocol 2 line 7 / line 11): advance to
/// `generation`, re-enter DetectCollision at q0,DC in the agent's own
/// buffers, go on probation.
void soft_reset(const Params& params, Agent& a, std::uint32_t generation) {
  a.sv.generation = generation % Params::kGenerations;
  dc_reset(params, a.rank, a.sv.dc);
  a.sv.probation_timer = params.probation_max;
}

}  // namespace

VerifyStats stable_verify_counted(const Params& params, Agent& u, Agent& v,
                                  util::Rng& rng) {
  VerifyStats stats;

  // Lines 1–2: probation timers tick down on every interaction.
  for (Agent* a : {&u, &v}) {
    if (a->sv.probation_timer > 0) --a->sv.probation_timer;
  }

  // Lines 3–4: same-generation verifiers execute DetectCollision_r.
  if (u.sv.generation == v.sv.generation) {
    detect_collision(params, u.rank, u.sv.dc, v.rank, v.sv.dc, rng);

    // Lines 5–9: react to ⊤.
    for (Agent* a : {&u, &v}) {
      if (!a->sv.dc.error) continue;
      if (params.soft_reset_enabled && a->sv.probation_timer == 0) {
        soft_reset(params, *a, a->sv.generation + 1);
        ++stats.soft_resets;
      } else {
        trigger_reset(params, *a);
        ++stats.hard_resets;
      }
    }
    return stats;
  }

  // Lines 10–12: adopt the successor generation via epidemic when off
  // probation.
  const std::uint32_t gu = u.sv.generation;
  const std::uint32_t gv = v.sv.generation;
  for (auto [self, other_gen] :
       {std::pair<Agent*, std::uint32_t>{&u, gv},
        std::pair<Agent*, std::uint32_t>{&v, gu}}) {
    const bool one_behind =
        (self->sv.generation + 1) % Params::kGenerations == other_gen;
    if (self->sv.probation_timer == 0 && one_behind) {
      soft_reset(params, *self, other_gen);
      ++stats.soft_resets;
      return stats;
    }
  }

  // Line 13: generations differ but no soft reset was permissible.
  trigger_reset(params, u);
  ++stats.hard_resets;
  return stats;
}

void stable_verify(const Params& params, Agent& u, Agent& v, util::Rng& rng) {
  stable_verify_counted(params, u, v, rng);
}

}  // namespace ssle::core
