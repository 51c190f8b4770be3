// StableVerify_r — verification wrapper with soft/hard reset arbitration
// (paper §5, Protocol 2; high-level description §3.2).
//
// Verifiers run DetectCollision_r when (and only when) their generations
// match.  When DetectCollision raises ⊤:
//   * probationTimer == 0  → *soft reset*: advance generation (mod 6),
//     re-initialize only the collision-detection state, go on probation;
//   * probationTimer > 0   → *hard reset* (TriggerReset).
// An agent one generation behind a partner adopts the newer generation
// (soft reset by epidemic) if off probation; otherwise — or if generations
// differ by ≥ 2 — a hard reset is triggered (Protocol 2 line 13).
#pragma once

#include "core/agent.hpp"
#include "core/params.hpp"
#include "util/rng.hpp"

namespace ssle::core {

/// The clean q0,SV state for an agent of the given rank: generation 0,
/// probation P_max (fresh verifiers are on probation, §3.2), and
/// DetectCollision at q0,DC.  §6 (Lemma 6.2): fresh verifiers on a correct
/// ranking never raise ⊤, so the timers tick down into C_safe.
SvState sv_initial_state(const Params& params, std::uint32_t rank);

/// Rewrites `s` to sv_initial_state(params, rank) in place, reusing its
/// buffers.
void sv_reset(const Params& params, std::uint32_t rank, SvState& s);

/// Protocol 2.  One StableVerify_r interaction between verifiers u and v.
/// Hard resets are performed via trigger_reset on the corresponding Agent.
void stable_verify(const Params& params, Agent& u, Agent& v, util::Rng& rng);

/// Statistics hooks: number of soft/hard resets performed by stable_verify
/// since construction of the protocol object (collected by ElectLeader).
struct VerifyStats {
  std::uint64_t soft_resets = 0;
  std::uint64_t hard_resets = 0;
};

/// Implementation used by stable_verify; exposed for direct unit testing.
/// Returns counts of soft/hard resets performed during this interaction.
VerifyStats stable_verify_counted(const Params& params, Agent& u, Agent& v,
                                  util::Rng& rng);

}  // namespace ssle::core
