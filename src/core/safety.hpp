// Configuration-level predicates for ElectLeader_r: output correctness,
// and a checkable core of the safe set C_safe (Lemma 6.1).
//
// C_safe as defined in the paper involves reachability of the collision-
// detection sub-configuration from q0,DC, which is not efficiently
// checkable.  `is_safe_configuration` instead checks a *sufficient* subset:
//   (a) all agents are verifiers and the ranking is a permutation of [n],
//   (b) all agents share one generation,
//   (c) the message system is self-consistent: every circulating (rank, ID)
//       message exists at most once, and its content equals the governor's
//       observation for that ID, and no DetectCollision state is ⊤.
// From such a configuration, observations (1)–(5) of App. E.1 / Lemma E.2
// give that no ⊤ is ever generated, so (by the case analysis of Lemma 6.1)
// the configuration is safe: the ranking — hence the unique leader — is
// permanent.  Clean executions enter this set, so using it as the
// stabilization probe is sound and tight up to probe granularity.
#pragma once

#include <cstdint>

#include "core/agent.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "pp/counts.hpp"
#include "pp/population.hpp"

namespace ssle::core {

/// Number of agents currently marked as leader (verifier with rank 1).
std::uint32_t leader_count(const std::vector<Agent>& config);

/// True iff every agent is a verifier and ranks form a permutation of [n].
bool ranking_correct(const Params& params, const std::vector<Agent>& config);

/// True iff all agents are verifiers with equal generation fields.
bool single_generation(const std::vector<Agent>& config);

/// Message-system consistency over the whole population: uniqueness of all
/// circulating (rank, ID) messages, owner-observation agreement, no ⊤.
bool message_system_consistent(const Params& params,
                               const std::vector<Agent>& config);

/// The checkable-sufficient C_safe predicate described above.
bool is_safe_configuration(const Params& params,
                           const std::vector<Agent>& config);

/// Counts-native probe for the batched engine: decides exactly the same
/// predicate as is_safe_configuration(params, counts.to_states()), but
/// runs the multiset-checkable parts first — population size, every agent
/// a verifier, every live state's count exactly 1 (in a safe
/// configuration all ranks are distinct, so no full state repeats), ranks
/// a permutation of [n], one shared generation — and only pays for the
/// O(n) expansion that the message-system scan needs once those cheap
/// checks pass.  During the unsafe bulk of a run, probes therefore cost
/// O(q) counter reads instead of n deep Agent copies per probe.
bool is_safe_configuration(const Params& params,
                           const pp::CountsConfiguration<ElectLeader>& counts);

}  // namespace ssle::core
