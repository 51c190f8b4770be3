#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "core/detect_collision.hpp"
#include "pp/scheduler.hpp"

namespace ssle::core {
namespace {

/// Multiset of (bucket, id, content) held by a state.
std::multiset<std::tuple<std::size_t, std::uint32_t, std::uint32_t>>
message_multiset(const DcState& a, const DcState& b) {
  std::multiset<std::tuple<std::size_t, std::uint32_t, std::uint32_t>> out;
  for (const DcState* s : {&a, &b}) {
    for (std::size_t k = 0; k < s->msgs.size(); ++k) {
      for (const Msg& m : s->msgs[k]) out.insert({k, m.id, m.content});
    }
  }
  return out;
}

TEST(BalanceLoad, ConservesMessagesExactly) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  const auto before = message_multiset(a, b);
  balance_load(p, 1, a, b);
  EXPECT_EQ(before, message_multiset(a, b));
}

TEST(BalanceLoad, SplitsEachContentClassWithinOne) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  // Restamp a's bucket-0 messages with two distinct contents.
  for (std::size_t i = 0; i < a.msgs[0].size(); ++i) {
    a.msgs[0][i].content = (i % 2 == 0) ? 7 : 9;
  }
  balance_load(p, 1, a, b);
  // Per (bucket, content) class the two agents' counts differ by ≤ 1.
  for (std::uint32_t content : {1u, 7u, 9u}) {
    for (std::size_t k = 0; k < a.msgs.size(); ++k) {
      const auto count = [&](const DcState& s) {
        return std::count_if(s.msgs[k].begin(), s.msgs[k].end(),
                             [&](const Msg& m) { return m.content == content; });
      };
      EXPECT_LE(std::abs(count(a) - count(b)), 1)
          << "content=" << content << " bucket=" << k;
    }
  }
}

TEST(BalanceLoad, KeepsBucketsSortedAndUnique) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  balance_load(p, 1, a, b);
  for (const DcState* s : {&a, &b}) {
    for (const auto& bucket : s->msgs) {
      for (std::size_t i = 1; i < bucket.size(); ++i) {
        EXPECT_LT(bucket[i - 1].id, bucket[i].id);
      }
    }
  }
}

TEST(BalanceLoad, EmptyAgentsNoCrash) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  a.msgs.clear(a.msgs.size());
  b.msgs.clear(b.msgs.size());
  balance_load(p, 1, a, b);
  EXPECT_EQ(dc_message_count(a), 0u);
  EXPECT_EQ(dc_message_count(b), 0u);
}

TEST(BalanceLoad, OneSidedLoadHalves) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  // Give everything to a.
  for (std::size_t k = 0; k < a.msgs.size(); ++k) {
    for (const Msg& m : b.msgs[k]) a.msgs.insert(k, m);
  }
  b.msgs.clear(b.msgs.size());
  const auto total = dc_message_count(a);
  balance_load(p, 1, a, b);
  EXPECT_EQ(dc_message_count(a) + dc_message_count(b), total);
  // All classes are uniform-content (content 1), so counts split evenly.
  EXPECT_LE(dc_message_count(a) > dc_message_count(b)
                ? dc_message_count(a) - dc_message_count(b)
                : dc_message_count(b) - dc_message_count(a),
            a.msgs.size());  // ≤ 1 per bucket
}

// --- Lemma E.6 behaviour: freshly stamped messages reach everyone ----------

TEST(BalanceLoad, SpreadDynamics) {
  // m agents, one rank's 2m² messages, one content class: after O(m log m)
  // pairwise balancing interactions every agent holds ≥ 1 message.
  const std::uint32_t m = 16;
  const Params p = Params::make(2 * m, m);  // one group of size 2m? no:
  // groups of size m when r = m and n = 2m → num_groups = 2.
  const std::uint32_t group = 0;
  const std::uint32_t rank = p.group_begin(group);

  // All messages start at agent 0.
  std::vector<DcState> agents(m);
  for (auto& s : agents) {
    s = dc_initial_state(p, rank);
    s.msgs.clear(s.msgs.size());
  }
  const std::uint32_t ids = p.ids_per_rank(group);
  for (std::uint32_t j = 1; j <= ids; ++j) {
    agents[0].msgs.insert(0, {j, 1});
  }

  pp::UniformScheduler sched(m, 3);
  std::uint64_t t = 0;
  auto all_nonempty = [&] {
    return std::all_of(agents.begin(), agents.end(), [](const DcState& s) {
      return !s.msgs[0].empty();
    });
  };
  const std::uint64_t budget = 200ull * m * Params::log2ceil(m);
  while (t < budget && !all_nonempty()) {
    const auto [x, y] = sched.next();
    balance_load(p, rank, agents[x], agents[y]);
    ++t;
  }
  EXPECT_TRUE(all_nonempty());
  // Keep balancing for another O(m log m) stretch; loads then equalize to
  // within a small additive gap (Tight & Simple Load Balancing, Lemma E.6).
  for (std::uint64_t extra = 0; extra < budget; ++extra) {
    const auto [x, y] = sched.next();
    balance_load(p, rank, agents[x], agents[y]);
  }
  std::uint64_t mn = ~0ull, mx = 0;
  for (const auto& s : agents) {
    mn = std::min(mn, dc_message_count(s));
    mx = std::max(mx, dc_message_count(s));
  }
  EXPECT_LE(mx - mn, Params::log2ceil(m) + 2);
}

}  // namespace
}  // namespace ssle::core
