// DetectCollision_r — the paper's novel message-based collision detection
// (§3.1, §5.1, Protocols 3, 12, 13, 14; analysis App. E).
//
// Within a rank group of size m, every rank governs ids_per_rank messages
// (ID space [ids_per_rank]); only agents whose rank matches a message may
// re-stamp its content, and they remember what they stamped (observations).
// An error state ⊤ is raised when
//   (a) two agents of the same rank meet,
//   (b) two copies of the same (rank, ID) message meet, or
//   (c) a circulating message disagrees with its governor's observation —
//       the signature mechanism makes this happen quickly when two agents
//       share a rank (Lemma E.5–E.7).
// Messages are spread by the deterministic halving BalanceLoad
// (Protocol 14, coupled to Tight & Simple Load Balancing in Lemma E.6).
#pragma once

#include <cstdint>

#include "core/agent.hpp"
#include "core/params.hpp"
#include "util/rng.hpp"

namespace ssle::core {

/// The clean initial state q0,DC for an agent of the given rank (§5.1):
/// signature = counter = 1, all observations = 1, and the agent holds the
/// contiguous slice of 2m (faithful) IDs of *every* rank of its group that
/// the paper pre-mixes ("the initial round of messages ... is hardcoded
/// ... and messages are pre-mixed among agents").
DcState dc_initial_state(const Params& params, std::uint32_t rank);

/// Rewrites `s` to dc_initial_state(params, rank) in place, reusing its
/// buffers: a soft reset allocates nothing once an agent has verified.
void dc_reset(const Params& params, std::uint32_t rank, DcState& s);

/// Protocol 3.  Runs one DetectCollision_r interaction between agents of
/// rank `rank_u` / `rank_v` with collision-detection states `u` / `v`.
/// No-op if the ranks belong to different groups.  May set u/v.error (⊤).
void detect_collision(const Params& params, std::uint32_t rank_u, DcState& u,
                      std::uint32_t rank_v, DcState& v, util::Rng& rng);

/// Protocol 12.  Checks v's circulating messages governed by u's rank
/// against u's observations; sets both to ⊤ on mismatch.
void check_message_consistency(const Params& params, std::uint32_t rank_u,
                               DcState& u, DcState& v);

/// Protocol 13.  Advances u's refresh counter (possibly resampling the
/// signature) and re-stamps all messages governed by u's rank held by u and
/// v with u's current signature, updating u's observations.
void update_messages(const Params& params, std::uint32_t rank_u, DcState& u,
                     DcState& v, util::Rng& rng);

/// Protocol 14.  Deterministically splits, per (rank, content) class, the
/// messages held by u and v so their counts differ by at most one.
void balance_load(const Params& params, std::uint32_t rank_u, DcState& u,
                  DcState& v);

/// Total number of messages (over all ranks of u's group) held by u.
std::uint64_t dc_message_count(const DcState& u);

/// True iff the interaction (a)/(b) tests of Protocol 3 would fire:
/// identical rank or a shared (rank, ID) message.  Exposed for tests.
bool dc_obvious_collision(const Params& params, std::uint32_t rank_u,
                          const DcState& u, std::uint32_t rank_v,
                          const DcState& v);

}  // namespace ssle::core
