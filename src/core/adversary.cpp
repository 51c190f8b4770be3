#include "core/adversary.hpp"

#include <algorithm>

#include "core/assign_ranks.hpp"
#include "core/detect_collision.hpp"
#include "core/fast_leader_elect.hpp"
#include "core/stable_verify.hpp"

namespace ssle::core {

std::vector<Corruption> all_corruptions() {
  return {Corruption::kNone,          Corruption::kDuplicateRanks,
          Corruption::kNoLeader,      Corruption::kCorruptMessages,
          Corruption::kLostMessages,  Corruption::kMixedGenerations,
          Corruption::kMidRanking,    Corruption::kAllResetting,
          Corruption::kRandomStates};
}

std::string corruption_name(Corruption c) {
  switch (c) {
    case Corruption::kNone: return "none";
    case Corruption::kDuplicateRanks: return "duplicate_ranks";
    case Corruption::kNoLeader: return "no_leader";
    case Corruption::kCorruptMessages: return "corrupt_messages";
    case Corruption::kLostMessages: return "lost_messages";
    case Corruption::kMixedGenerations: return "mixed_generations";
    case Corruption::kMidRanking: return "mid_ranking";
    case Corruption::kAllResetting: return "all_resetting";
    case Corruption::kRandomStates: return "random_states";
  }
  return "?";
}

namespace {

/// Agent i of the safe configuration: a verifier of rank i + 1 at q0,SV.
void make_safe_agent(const Params& params, std::uint32_t i, Agent& a) {
  a.role = Role::kVerifying;
  a.rank = i + 1;
  a.countdown = 0;
  sv_reset(params, a.rank, a.sv);
  a.sv.probation_timer = 0;  // long past the initial probation
}

/// Corrupts the contents of a fraction of the circulating messages `a`
/// holds for *other* ranks (the governor's own copies stay tied to its
/// observations by the state-space restriction).
void corrupt_messages(const Params& params, Agent& a, util::Rng& rng) {
  MsgStore& msgs = a.sv.dc.msgs;
  if (msgs.empty()) return;
  const std::uint64_t wrong_contents =
      params.signature_space(params.group_of(a.rank)) - 1;
  const auto corrupt = [&](Msg* first, Msg* last) {
    for (Msg* msg = first; msg != last; ++msg) {
      if (rng.below(4) == 0) {
        msg->content =
            static_cast<std::uint32_t>(2 + rng.below(wrong_contents));
      }
    }
  };
  // Buckets are contiguous, so the other ranks' messages are the slots
  // before and after the agent's own bucket.
  Msg* const first = msgs[0].begin();
  Msg* const last = msgs[msgs.size() - 1].end();
  const std::size_t own_bucket = params.rank_in_group(a.rank) - 1;
  if (own_bucket < msgs.size()) {
    const auto own = msgs[own_bucket];
    corrupt(first, own.begin());
    corrupt(own.end(), last);
  } else {
    corrupt(first, last);
  }
}

}  // namespace

std::vector<Agent> make_safe_config(const Params& params) {
  std::vector<Agent> config(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    make_safe_agent(params, i, config[i]);
  }
  return config;
}

namespace {

/// Re-establishes the own-messages-match-observations state-space
/// restriction after ad-hoc edits.
void enforce_observation_invariant(const Params& params, Agent& a) {
  if (a.role != Role::kVerifying || a.sv.dc.error) return;
  const std::uint32_t bucket = params.rank_in_group(a.rank) - 1;
  if (bucket >= a.sv.dc.msgs.size()) return;
  for (const Msg& msg : a.sv.dc.msgs[bucket]) {
    if (msg.id >= 1 && msg.id <= a.sv.dc.observations.size()) {
      a.sv.dc.observations[msg.id - 1] = msg.content;
    }
  }
}

DcState random_dc_state(const Params& params, std::uint32_t rank,
                        util::Rng& rng) {
  // Start from q0 and randomize signature, counter, contents and holdings.
  DcState s = dc_initial_state(params, rank);
  const std::uint32_t group = params.group_of(rank);
  s.signature = static_cast<std::uint32_t>(
      1 + rng.below(params.signature_space(group)));
  s.counter = static_cast<std::uint32_t>(
      1 + rng.below(params.signature_period(group)));
  for (auto& o : s.observations) {
    o = static_cast<std::uint32_t>(1 + rng.below(params.signature_space(group)));
  }
  // Randomly drop, keep or re-stamp each held message.
  s.msgs.retain([&](std::size_t, Msg& msg) {
    const auto action = rng.below(3);
    if (action == 0) return false;  // drop
    if (action == 1) {
      msg.content = static_cast<std::uint32_t>(
          1 + rng.below(params.signature_space(group)));
    }
    return true;
  });
  s.error = rng.below(16) == 0;  // occasionally start at ⊤ directly
  return s;
}

ArState random_ar_state(const Params& params, util::Rng& rng) {
  ArState s = ar_initial_state(params);
  switch (rng.below(6)) {
    case 0:  // leader election, possibly mid-run
      s.le.drawn = rng.coin();
      if (s.le.drawn) {
        s.le.identifier = 1 + rng.below(params.identifier_space);
        s.le.min_identifier = 1 + rng.below(params.identifier_space);
        s.le.le_count =
            static_cast<std::uint32_t>(rng.below(params.le_count_max + 1));
      }
      break;
    case 1:  // sheriff with a random badge range
      s.type = ArType::kSheriff;
      s.low_badge = static_cast<std::uint32_t>(1 + rng.below(params.r));
      s.high_badge = static_cast<std::uint32_t>(
          s.low_badge + rng.below(params.r - s.low_badge + 1));
      s.channel.assign(params.r, 0);
      break;
    case 2:  // deputy
      s.type = ArType::kDeputy;
      s.deputy_id = static_cast<std::uint32_t>(1 + rng.below(params.r));
      s.counter = static_cast<std::uint32_t>(1 + rng.below(params.label_pool));
      s.channel.assign(params.r, 0);
      s.channel.set(s.deputy_id - 1, s.counter);
      break;
    case 3:  // recipient, possibly labelled
      s.type = ArType::kRecipient;
      s.channel.assign(params.r, 0);
      if (rng.coin()) {
        s.label = {static_cast<std::uint32_t>(1 + rng.below(params.r)),
                   static_cast<std::uint32_t>(1 + rng.below(params.label_pool))};
      }
      break;
    case 4:  // sleeper
      s.type = ArType::kSleeper;
      s.channel.assign(params.r, 0);
      s.sleep_timer =
          static_cast<std::uint32_t>(1 + rng.below(params.sleep_max));
      s.label = {static_cast<std::uint32_t>(1 + rng.below(params.r)),
                 static_cast<std::uint32_t>(1 + rng.below(params.label_pool))};
      break;
    case 5:  // already ranked (possibly colliding with others)
      s.type = ArType::kRanked;
      s.rank = static_cast<std::uint32_t>(1 + rng.below(params.n));
      break;
  }
  for (std::size_t i = 0; i < s.channel.size(); ++i) {
    s.channel.set(
        i, static_cast<std::uint32_t>(rng.below(params.label_pool + 1)));
  }
  return s;
}

}  // namespace

Agent random_agent(const Params& params, util::Rng& rng) {
  Agent a;
  a.rank = static_cast<std::uint32_t>(1 + rng.below(params.n));
  a.countdown = static_cast<std::uint32_t>(rng.below(params.countdown_max + 1));
  switch (rng.below(3)) {
    case 0:
      a.role = Role::kResetting;
      a.reset.reset_count =
          static_cast<std::uint32_t>(rng.below(params.reset_count_max + 1));
      a.reset.delay_timer =
          static_cast<std::uint32_t>(rng.below(params.delay_timer_max + 1));
      break;
    case 1:
      a.role = Role::kRanking;
      a.ar = random_ar_state(params, rng);
      break;
    case 2:
      a.role = Role::kVerifying;
      a.sv.generation =
          static_cast<std::uint32_t>(rng.below(Params::kGenerations));
      a.sv.probation_timer =
          static_cast<std::uint32_t>(rng.below(params.probation_max + 1));
      a.sv.dc = random_dc_state(params, a.rank, rng);
      enforce_observation_invariant(params, a);
      break;
  }
  return a;
}

std::vector<Agent> make_adversarial_config(const Params& params, Corruption c,
                                           util::Rng& rng) {
  switch (c) {
    case Corruption::kNone:
      return make_safe_config(params);

    case Corruption::kDuplicateRanks: {
      auto config = make_safe_config(params);
      // Duplicate a random small number of ranks (≥ 1 collision).
      const std::uint32_t dups = static_cast<std::uint32_t>(
          1 + rng.below(std::max<std::uint32_t>(1, params.n / 8)));
      for (std::uint32_t d = 0; d < dups; ++d) {
        const auto from = static_cast<std::uint32_t>(rng.below(params.n));
        const auto to = static_cast<std::uint32_t>(rng.below(params.n));
        if (from == to) continue;
        config[to].rank = config[from].rank;
        sv_reset(params, config[to].rank, config[to].sv);
        config[to].sv.probation_timer = 0;
      }
      return config;
    }

    case Corruption::kNoLeader: {
      auto config = make_safe_config(params);
      // Shift every rank up by one; rank 1 disappears, rank 2 duplicates.
      for (Agent& a : config) {
        a.rank = std::min(a.rank + 1, params.n);
        sv_reset(params, a.rank, a.sv);
        a.sv.probation_timer = 0;
      }
      return config;
    }

    case Corruption::kCorruptMessages: {
      // The safe configuration, each agent corrupted while it is still in
      // cache (the same draws, in the same order, as a second pass).
      std::vector<Agent> config(params.n);
      for (std::uint32_t i = 0; i < params.n; ++i) {
        make_safe_agent(params, i, config[i]);
        corrupt_messages(params, config[i], rng);
      }
      return config;
    }

    case Corruption::kLostMessages: {
      auto config = make_safe_config(params);
      for (Agent& a : config) {
        a.sv.dc.msgs.retain(
            [&](std::size_t, const Msg&) { return rng.below(4) != 0; });
        enforce_observation_invariant(params, a);
      }
      return config;
    }

    case Corruption::kMixedGenerations: {
      auto config = make_safe_config(params);
      for (Agent& a : config) {
        a.sv.generation =
            static_cast<std::uint32_t>(rng.below(Params::kGenerations));
        a.sv.probation_timer =
            static_cast<std::uint32_t>(rng.below(params.probation_max + 1));
      }
      return config;
    }

    case Corruption::kMidRanking: {
      std::vector<Agent> config(params.n);
      for (Agent& a : config) {
        a.role = Role::kRanking;
        a.rank = static_cast<std::uint32_t>(1 + rng.below(params.n));
        a.countdown =
            static_cast<std::uint32_t>(1 + rng.below(params.countdown_max));
        a.ar = random_ar_state(params, rng);
      }
      return config;
    }

    case Corruption::kAllResetting: {
      std::vector<Agent> config(params.n);
      for (Agent& a : config) {
        a.role = Role::kResetting;
        a.rank = static_cast<std::uint32_t>(1 + rng.below(params.n));
        a.reset.reset_count =
            static_cast<std::uint32_t>(rng.below(params.reset_count_max + 1));
        a.reset.delay_timer =
            static_cast<std::uint32_t>(rng.below(params.delay_timer_max + 1));
      }
      return config;
    }

    case Corruption::kRandomStates: {
      std::vector<Agent> config(params.n);
      for (Agent& a : config) a = random_agent(params, rng);
      return config;
    }
  }
  return make_safe_config(params);
}

}  // namespace ssle::core
