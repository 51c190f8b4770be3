#include "core/detect_collision.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

namespace ssle::core {

namespace {

/// Index of `rank` within its group, 0-based, for msgs bucket addressing.
std::uint32_t bucket_of(const Params& params, std::uint32_t rank) {
  return params.rank_in_group(rank) - 1;
}

/// One (rank, content) class of a BalanceLoad bucket.
struct ContentClass {
  std::uint32_t content = 0;
  std::uint32_t size = 0;       ///< members in the merged bucket
  std::uint32_t ceil_half = 0;  ///< members that go to the lighter agent
  bool u_first = false;         ///< u was the lighter agent
  std::uint32_t u_at = 0;       ///< next slot of this class in u's bucket
  std::uint32_t v_at = 0;       ///< next slot of this class in v's bucket
  std::uint32_t placed = 0;     ///< members placed so far
};

/// balance_load's working memory, reused across calls on each thread.
struct BalanceScratch {
  MsgStore u, v;  ///< the two stores as they were on entry
  std::vector<Msg> merged;
  std::vector<std::uint32_t> class_of;  ///< class index per merged message
  std::vector<ContentClass> classes;
};

/// Stamps every message of `bucket` with u's signature and records it in
/// u's observations.
void restamp(MsgStore::Bucket bucket, DcState& u) {
  for (Msg& msg : bucket) {
    msg.content = u.signature;
    const std::uint32_t j = msg.id - 1;
    if (j < u.observations.size()) u.observations[j] = u.signature;
  }
}

/// Appends bucket k of `from` to `to` as its bucket k.
void copy_bucket(const MsgStore& from, std::size_t k, MsgStore& to) {
  const auto bucket = from[k];
  std::copy(bucket.begin(), bucket.end(), to.extend(bucket.size()));
  to.close_bucket(k);
}

}  // namespace

void dc_reset(const Params& params, std::uint32_t rank, DcState& s) {
  const std::uint32_t group = params.group_of(rank);
  const std::uint32_t m = params.group_size(group);
  const std::uint32_t ids = params.ids_per_rank(group);
  const std::uint32_t pos = params.rank_in_group(rank);  // 1-based

  s.error = false;
  s.signature = 1;
  s.counter = 1;
  s.observations.assign(ids, 1);

  // Pre-mixed slice: agent at position pos holds IDs
  // [(pos-1)·slice + 1, pos·slice] of every rank of its group, where
  // slice = ids / m (the last position also takes the remainder IDs).
  const std::uint32_t slice = ids / m;
  const std::uint32_t lo = (pos - 1) * slice + 1;
  const std::uint32_t hi = (pos == m) ? ids : pos * slice;
  s.msgs.assign_runs(m, lo, hi + 1 - lo, 1);
}

DcState dc_initial_state(const Params& params, std::uint32_t rank) {
  DcState s;
  dc_reset(params, rank, s);
  return s;
}

bool dc_obvious_collision(const Params& params, std::uint32_t rank_u,
                          const DcState& u, std::uint32_t rank_v,
                          const DcState& v) {
  if (rank_u == rank_v) return true;
  const std::size_t m =
      std::min<std::size_t>({params.group_size(params.group_of(rank_u)),
                             u.msgs.size(), v.msgs.size()});
  // Two copies of the same circulating message (same governing rank, same
  // ID) held by u and v simultaneously.
  for (std::size_t k = 0; k < m; ++k) {
    const auto a = u.msgs[k];
    const auto b = v.msgs[k];
    const Msg* i = a.begin();
    const Msg* j = b.begin();
    while (i != a.end() && j != b.end()) {
      if (i->id == j->id) return true;
      if (i->id < j->id) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return false;
}

void check_message_consistency(const Params& params, std::uint32_t rank_u,
                               DcState& u, DcState& v) {
  const std::uint32_t k = bucket_of(params, rank_u);
  if (k >= v.msgs.size()) return;
  for (const Msg& msg : v.msgs[k]) {
    const std::uint32_t j = msg.id - 1;
    if (j < u.observations.size() && msg.content != u.observations[j]) {
      u.error = true;
      v.error = true;
      return;
    }
  }
}

void update_messages(const Params& params, std::uint32_t rank_u, DcState& u,
                     DcState& v, util::Rng& rng) {
  const std::uint32_t group = params.group_of(rank_u);
  const std::uint32_t k = bucket_of(params, rank_u);

  // Protocol 13 lines 1–8: refresh the signature every c_sig·log m of u's
  // own interactions and restamp u's held copies of its own messages.
  ++u.counter;
  if (u.counter >= params.signature_period(group)) {
    u.signature = static_cast<std::uint32_t>(
        1 + rng.below(params.signature_space(group)));
    u.counter = 1;
    if (k < u.msgs.size()) restamp(u.msgs[k], u);
  }

  // Protocol 13 lines 9–12: restamp v's messages governed by u's rank with
  // u's current signature, recording the new contents in u's observations.
  if (k < v.msgs.size()) restamp(v.msgs[k], u);
}

void balance_load(const Params& params, std::uint32_t rank_u, DcState& u,
                  DcState& v) {
  const std::size_t m = params.group_size(params.group_of(rank_u));
  thread_local BalanceScratch s;
  s.u = u.msgs;
  s.v = v.msgs;
  const std::size_t u_buckets = s.u.size();
  const std::size_t v_buckets = s.v.size();
  const std::size_t balanced = std::min({m, u_buckets, v_buckets});
  u.msgs.clear(u_buckets);
  v.msgs.clear(v_buckets);
  std::uint64_t u_total = 0;
  std::uint64_t v_total = 0;

  // Processed per rank of the group; inside a rank, runs of equal content
  // in the ID-sorted merged list form the (rank, content) classes of
  // Protocol 14, which are split ⌈·/2⌉ / ⌊·/2⌋ between the two agents,
  // the ceiling going to the currently lighter agent.
  for (std::size_t k = 0; k < balanced; ++k) {
    const auto a = s.u[k];
    const auto b = s.v[k];
    s.merged.clear();
    std::merge(a.begin(), a.end(), b.begin(), b.end(),
               std::back_inserter(s.merged));

    // Classes are numbered in order of first appearance (deterministic).
    s.classes.clear();
    s.class_of.resize(s.merged.size());
    for (std::size_t i = 0; i < s.merged.size(); ++i) {
      const std::uint32_t content = s.merged[i].content;
      std::size_t c = 0;
      while (c < s.classes.size() && s.classes[c].content != content) ++c;
      if (c == s.classes.size()) s.classes.push_back({.content = content});
      ++s.classes[c].size;
      s.class_of[i] = static_cast<std::uint32_t>(c);
    }

    // "one agent receives the first half and the other the second half";
    // the larger share goes to whichever agent currently holds fewer
    // messages (keeps per-agent totals balanced, cf. §3.1).  Each agent's
    // bucket lists its classes in class order, members in ID order.
    std::uint32_t u_len = 0;
    std::uint32_t v_len = 0;
    for (ContentClass& c : s.classes) {
      c.ceil_half = (c.size + 1) / 2;
      c.u_first = u_total <= v_total;
      const std::uint32_t to_u = c.u_first ? c.ceil_half : c.size - c.ceil_half;
      c.u_at = u_len;
      c.v_at = v_len;
      u_len += to_u;
      v_len += c.size - to_u;
      u_total += to_u;
      v_total += c.size - to_u;
    }
    Msg* out_u = u.msgs.extend(u_len);
    Msg* out_v = v.msgs.extend(v_len);
    for (std::size_t i = 0; i < s.merged.size(); ++i) {
      ContentClass& c = s.classes[s.class_of[i]];
      const bool first_half = c.placed++ < c.ceil_half;
      if (first_half == c.u_first) {
        out_u[c.u_at++] = s.merged[i];
      } else {
        out_v[c.v_at++] = s.merged[i];
      }
    }
    std::sort(out_u, out_u + u_len);
    std::sort(out_v, out_v + v_len);
    u.msgs.close_bucket(k);
    v.msgs.close_bucket(k);
  }
  // Buckets past the group size (adversarial states) keep their messages.
  for (std::size_t k = balanced; k < u_buckets; ++k) {
    copy_bucket(s.u, k, u.msgs);
  }
  for (std::size_t k = balanced; k < v_buckets; ++k) {
    copy_bucket(s.v, k, v.msgs);
  }
}

std::uint64_t dc_message_count(const DcState& u) {
  return u.msgs.message_count();
}

void detect_collision(const Params& params, std::uint32_t rank_u, DcState& u,
                      std::uint32_t rank_v, DcState& v, util::Rng& rng) {
  // Protocol 3 line 1–2: only same-group agents interact non-trivially.
  if (params.group_of(rank_u) != params.group_of(rank_v)) return;
  if (u.error || v.error) {
    // ⊤ is absorbing within DetectCollision; the StableVerify wrapper is
    // responsible for reacting to it (Protocol 2 lines 5–8).
    u.error = v.error = true;
    return;
  }

  // Lines 3–4: obvious collision — shared rank or duplicated message.
  if (dc_obvious_collision(params, rank_u, u, rank_v, v)) {
    u.error = v.error = true;
    return;
  }

  // Line 5: mutual consistency checks (may raise ⊤).
  check_message_consistency(params, rank_u, u, v);
  check_message_consistency(params, rank_v, v, u);
  if (u.error || v.error) {
    u.error = v.error = true;
    return;
  }

  // Lines 6–7: restamp + spread.
  update_messages(params, rank_u, u, v, rng);
  update_messages(params, rank_v, v, u, rng);
  if (params.load_balancing_enabled) {
    balance_load(params, rank_u, u, v);
  }
}

}  // namespace ssle::core
