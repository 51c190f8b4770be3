#include "core/assign_ranks.hpp"

#include "core/fast_leader_elect.hpp"

namespace ssle::core {

namespace {

bool in_le(const ArState& s) { return s.type == ArType::kLeaderElection; }

bool has_channel(const ArState& s) {
  switch (s.type) {
    case ArType::kSheriff:
    case ArType::kDeputy:
    case ArType::kRecipient:
    case ArType::kSleeper:
      return true;
    case ArType::kLeaderElection:
    case ArType::kRanked:
      return false;
  }
  return false;
}

/// Leaves leader election as the sheriff with the full badge roster
/// ("any sheriff elected ... is initiated to have a full roster of badges
/// from {1, ..., r} and its channel field all set to 0", Lemma D.3).
void become_sheriff(const Params& params, ArState& s) {
  s.type = ArType::kSheriff;
  s.low_badge = 1;
  s.high_badge = params.r;
  s.channel.assign(params.r, 0);
  s.label = {};
  // Degenerate r = 1: the sheriff itself is the only deputy.
  if (s.low_badge == s.high_badge) {
    s.type = ArType::kDeputy;
    s.deputy_id = s.low_badge;
    s.counter = 1;
    s.channel.set(s.deputy_id - 1, 1);
  }
}

void become_recipient(const Params& params, ArState& s,
                      const ArState* spurred_by) {
  s.type = ArType::kRecipient;
  s.label = {};
  // Observation D.1(a): the new channel is all-zero or equal to that of the
  // agent who spurred the change.
  if (spurred_by != nullptr && has_channel(*spurred_by)) {
    s.channel = spurred_by->channel;
  } else {
    s.channel.assign(params.r, 0);
  }
}

void become_sleeper(ArState& s) {
  if (s.type == ArType::kSleeper || s.type == ArType::kRanked) return;
  // A deputy's implicit label is (id, 1); a sheriff has none (cannot occur
  // in a correct execution once Σ channel = n).
  if (s.type == ArType::kDeputy) s.label = {s.deputy_id, 1};
  s.type = ArType::kSleeper;
  s.sleep_timer = 1;
}

void become_ranked(ArState& s) {
  s.rank = rank_from_label(s);
  s.type = ArType::kRanked;
  // "After assigning itself a rank, an agent discards its remaining states."
  s.channel.clear();
  s.le = {};
  s.low_badge = s.high_badge = 0;
  s.deputy_id = s.counter = 0;
  s.sleep_timer = 0;
}

}  // namespace

ArState ar_initial_state(const Params& params) {
  (void)params;
  ArState s;
  s.type = ArType::kLeaderElection;
  s.le = fle_initial_state();
  s.rank = 1;
  return s;
}

std::uint32_t rank_from_label(const ArState& s) {
  if (!s.label.valid() || s.label.deputy > s.channel.size()) return 1;
  std::uint64_t rank = s.label.index;
  for (std::uint32_t i = 0; i + 1 < s.label.deputy; ++i) rank += s.channel[i];
  return static_cast<std::uint32_t>(rank);
}

void elect_sheriff(const Params& params, ArState& u, ArState& v,
                   util::Rng& rng) {
  if (in_le(u) && in_le(v)) {
    fle_interact(params, u.le, v.le, rng);
    for (ArState* s : {&u, &v}) {
      if (!fle_done(s->le)) continue;
      if (s->le.leader_bit) {
        become_sheriff(params, *s);
      } else {
        become_recipient(params, *s, nullptr);
      }
    }
    return;
  }
  // Exactly one agent is still in leader election (Protocol 8 lines 3–4:
  // meeting an agent that already left the black box).  Its own LECount
  // still ticks on every interaction (App. D.2).  A provable loser — its
  // minimum identifier beats its own — leaves immediately as a recipient;
  // the minimum holder keeps waiting so the unique sheriff is never lost.
  ArState& x = in_le(u) ? u : v;
  ArState& other = in_le(u) ? v : u;
  fle_activate(params, x.le, rng);
  if (!x.le.leader_done && x.le.le_count > 0) --x.le.le_count;
  if (x.le.le_count == 0) x.le.leader_done = true;
  if (x.le.leader_done) {
    x.le.leader_bit = (x.le.identifier == x.le.min_identifier);
    if (x.le.leader_bit) {
      become_sheriff(params, x);
    } else {
      become_recipient(params, x, &other);
    }
    return;
  }
  if (x.le.min_identifier < x.le.identifier) {
    become_recipient(params, x, &other);
  }
}

void deputize(const Params& params, ArState& u, ArState& v) {
  ArState& w = (u.type == ArType::kSheriff) ? u : v;  // the sheriff
  ArState& x = (u.type == ArType::kSheriff) ? v : u;  // the recipient

  x.type = ArType::kSheriff;
  x.label = {};
  if (x.channel.size() != params.r) x.channel.assign(params.r, 0);
  x.high_badge = w.high_badge;
  w.high_badge = (w.high_badge + w.low_badge) / 2;
  x.low_badge = w.high_badge + 1;

  for (ArState* z : {&x, &w}) {
    if (z->high_badge == z->low_badge) {
      z->type = ArType::kDeputy;
      z->deputy_id = z->low_badge;
      z->counter = 1;
      if (z->deputy_id >= 1 && z->deputy_id <= z->channel.size()) {
        z->channel.set(z->deputy_id - 1, 1);
      }
    }
  }
}

void labeling(const Params& params, ArState& u, ArState& v) {
  ArState& w = (u.type == ArType::kDeputy) ? u : v;  // the deputy
  ArState& x = (u.type == ArType::kDeputy) ? v : u;  // unlabelled recipient

  // Labels may only be handed out once all r deputies are known to exist
  // (Protocol 10 line 1: Σ channel ≥ r).
  if (w.channel.sum() < params.r) return;
  if (w.counter < params.label_pool) {
    ++w.counter;
    if (w.deputy_id >= 1 && w.deputy_id <= w.channel.size()) {
      w.channel.set(w.deputy_id - 1, w.counter);
    }
    x.label = {w.deputy_id, w.counter};
  }
}

void ar_sleep(const Params& params, ArState& u, ArState& v) {
  ArState& x = (u.type == ArType::kSleeper) ? u : v;  // a sleeping agent
  ArState& w = (u.type == ArType::kSleeper) ? v : u;  // the other

  if (w.type == ArType::kRanked) {
    become_ranked(x);
    return;
  }
  const bool u_expired = u.type == ArType::kSleeper &&
                         u.sleep_timer >= params.sleep_max;
  const bool v_expired = v.type == ArType::kSleeper &&
                         v.sleep_timer >= params.sleep_max;
  if (u_expired || v_expired) {
    become_ranked(u);
    become_ranked(v);
    return;
  }
  // Sleep spreads: the non-sleeping partner also goes to sleep.
  become_sleeper(w);
  for (ArState* s : {&u, &v}) {
    if (s->type == ArType::kSleeper) ++s->sleep_timer;
  }
}

void assign_ranks(const Params& params, ArState& u, ArState& v,
                  util::Rng& rng) {
  // Protocol 7 line 1: leader election dominates.
  if (in_le(u) || in_le(v)) {
    elect_sheriff(params, u, v, rng);
    return;
  }

  if (u.type == ArType::kSleeper || v.type == ArType::kSleeper) {
    ar_sleep(params, u, v);
  } else if ((u.type == ArType::kSheriff && v.type == ArType::kRecipient) ||
             (v.type == ArType::kSheriff && u.type == ArType::kRecipient)) {
    deputize(params, u, v);
  } else if ((u.type == ArType::kDeputy && v.type == ArType::kRecipient &&
              !v.label.valid()) ||
             (v.type == ArType::kDeputy && u.type == ArType::kRecipient &&
              !u.label.valid())) {
    labeling(params, u, v);
  }

  // Protocol 7 lines 8–9: channel max-epidemic.  Both agents then hold
  // the merged channel, and its sum, kept with the buffer, feeds the sleep
  // check below.
  if (has_channel(u) && has_channel(v)) {
    if (u.channel.size() != v.channel.size()) {
      // Only possible from an adversarial configuration; normalize.
      u.channel.resize(params.r);
      v.channel.resize(params.r);
    }
    Channel::merge_max(u.channel, v.channel);
  }

  // Protocol 7 lines 10–11: all n labels assigned → go to sleep.
  for (ArState* s : {&u, &v}) {
    if (has_channel(*s) && s->type != ArType::kSleeper &&
        s->channel.sum() == params.n) {
      become_sleeper(*s);
    }
  }
}

}  // namespace ssle::core
