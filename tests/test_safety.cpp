#include "core/safety.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/adversary.hpp"
#include "core/stable_verify.hpp"
#include "util/rng.hpp"

namespace ssle::core {
namespace {

TEST(Safety, SafeConfigIsSafe) {
  const Params p = Params::make(16, 8);
  const auto config = make_safe_config(p);
  EXPECT_TRUE(ranking_correct(p, config));
  EXPECT_TRUE(single_generation(config));
  EXPECT_TRUE(message_system_consistent(p, config));
  EXPECT_TRUE(is_safe_configuration(p, config));
  EXPECT_EQ(leader_count(config), 1u);
}

TEST(Safety, DuplicateRankBreaksRanking) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  config[3].rank = config[5].rank;
  EXPECT_FALSE(ranking_correct(p, config));
  EXPECT_FALSE(is_safe_configuration(p, config));
}

TEST(Safety, RankerBreaksSafety) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  config[0].role = Role::kRanking;
  EXPECT_FALSE(ranking_correct(p, config));
  EXPECT_FALSE(single_generation(config));
}

TEST(Safety, MixedGenerationsBreakSingleGeneration) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  config[7].sv.generation = 1;
  EXPECT_TRUE(ranking_correct(p, config));
  EXPECT_FALSE(single_generation(config));
  EXPECT_FALSE(is_safe_configuration(p, config));
}

TEST(Safety, CorruptedMessageBreaksConsistency) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  // Corrupt a circulating message held by agent 0 for some *other* rank.
  auto& dc = config[0].sv.dc;
  bool corrupted = false;
  const std::uint32_t own_bucket = p.rank_in_group(config[0].rank) - 1;
  for (std::size_t k = 0; k < dc.msgs.size() && !corrupted; ++k) {
    if (k == own_bucket || dc.msgs[k].empty()) continue;
    dc.msgs[k].front().content = 424242;
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  EXPECT_FALSE(message_system_consistent(p, config));
  EXPECT_FALSE(is_safe_configuration(p, config));
}

TEST(Safety, DuplicatedMessageBreaksConsistency) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  // Copy a message from agent 0 to agent 1 (same group by construction of
  // adjacent ranks — pick two agents in one group).
  const std::uint32_t g0 = p.group_of(config[0].rank);
  std::size_t partner = 1;
  while (partner < config.size() &&
         p.group_of(config[partner].rank) != g0) {
    ++partner;
  }
  ASSERT_LT(partner, config.size());
  auto& from = config[0].sv.dc.msgs;
  auto& to = config[partner].sv.dc.msgs;
  ASSERT_FALSE(from[0].empty());
  to.insert(0, from[0].front());
  EXPECT_FALSE(message_system_consistent(p, config));
}

TEST(Safety, ErrorStateBreaksConsistency) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  config[2].sv.dc.error = true;
  EXPECT_FALSE(message_system_consistent(p, config));
}

// ---------------------------------------------------------------------------
// Oracle: the flat-bitmap message_system_consistent against the per-rank
// vector<bool> probe over nested message arrays that it replaced.
// ---------------------------------------------------------------------------

using Nested = std::vector<std::vector<Msg>>;

Nested to_nested(const MsgStore& store) {
  Nested out;
  for (const auto& bucket : store) {
    out.emplace_back(bucket.begin(), bucket.end());
  }
  return out;
}

bool reference_consistent(const Params& params,
                          const std::vector<Agent>& config) {
  std::vector<const std::vector<std::uint32_t>*> obs(params.n + 1, nullptr);
  for (const Agent& a : config) {
    if (a.role != Role::kVerifying || a.sv.dc.error) return false;
    if (a.rank >= 1 && a.rank <= params.n) obs[a.rank] = &a.sv.dc.observations;
  }
  std::vector<std::vector<bool>> seen(params.n);
  for (const Agent& a : config) {
    const Nested msgs = to_nested(a.sv.dc.msgs);
    const std::uint32_t group = params.group_of(a.rank);
    const std::uint32_t begin = params.group_begin(group);
    for (std::size_t k = 0; k < msgs.size(); ++k) {
      const std::uint32_t rank = begin + static_cast<std::uint32_t>(k);
      if (rank > params.n) return false;
      auto& bitmap = seen[rank - 1];
      if (bitmap.empty()) bitmap.assign(params.ids_per_rank(group) + 1, false);
      for (const Msg& msg : msgs[k]) {
        if (msg.id == 0 || msg.id >= bitmap.size()) return false;
        if (bitmap[msg.id]) return false;
        bitmap[msg.id] = true;
        const auto* governor = obs[rank];
        if (governor == nullptr || msg.id > governor->size()) return false;
        if ((*governor)[msg.id - 1] != msg.content) return false;
      }
    }
  }
  return true;
}

void expect_same_verdict(const Params& p, const std::vector<Agent>& config,
                         const std::string& what) {
  EXPECT_EQ(message_system_consistent(p, config),
            reference_consistent(p, config))
      << what;
}

/// Index of the agent holding `rank` in a safe configuration.
std::size_t holder(const std::vector<Agent>& config, std::uint32_t rank) {
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (config[i].rank == rank) return i;
  }
  return config.size();
}

TEST(SafetyOracle, MatchesNestedProbeOnEveryCorruptionClass) {
  for (const auto mult :
       {MessageMultiplicity::kFaithful, MessageMultiplicity::kLight}) {
    for (const auto [n, r] : {std::pair{64u, 8u}, std::pair{21u, 8u},
                              std::pair{16u, 8u}, std::pair{12u, 1u}}) {
      const Params p = Params::make(n, r, mult);
      util::Rng rng(n * 31 + r);
      for (const Corruption c : all_corruptions()) {
        const auto config = make_adversarial_config(p, c, rng);
        expect_same_verdict(p, config, corruption_name(c));
        // Force every agent to verify so the scan reaches the messages.
        auto verifying = config;
        for (Agent& a : verifying) {
          a.role = Role::kVerifying;
          a.sv.dc.error = false;
        }
        expect_same_verdict(p, verifying, corruption_name(c) + "/verifying");
      }
    }
  }
}

TEST(SafetyOracle, MatchesNestedProbeOnTargetedMutations) {
  const Params p = Params::make(21, 8, MessageMultiplicity::kLight);
  const auto safe = make_safe_config(p);
  ASSERT_TRUE(reference_consistent(p, safe));
  expect_same_verdict(p, safe, "safe");
  const std::uint32_t g0 = p.group_of(1);
  const std::uint32_t ids = p.ids_per_rank(g0);

  const auto mutate = [&](const char* what, auto edit) {
    auto config = safe;
    edit(config);
    expect_same_verdict(p, config, what);
    return reference_consistent(p, config);
  };
  EXPECT_FALSE(mutate("duplicate across agents", [](auto& c) {
    c[1].sv.dc.msgs.insert(0, c[0].sv.dc.msgs[0].front());
  }));
  EXPECT_FALSE(mutate("duplicate within one bucket", [](auto& c) {
    c[1].sv.dc.msgs.insert(0, c[1].sv.dc.msgs[0].front());
  }));
  EXPECT_FALSE(mutate("id 0", [](auto& c) {
    c[2].sv.dc.msgs.insert(0, Msg{0, 1});
  }));
  EXPECT_FALSE(mutate("id past the ID space", [&](auto& c) {
    c[2].sv.dc.msgs.insert(0, Msg{ids + 1, 1});
  }));
  EXPECT_FALSE(mutate("content off its governor", [](auto& c) {
    c[3].sv.dc.msgs[1].front().content = 77;
  }));
  EXPECT_FALSE(mutate("error state", [](auto& c) { c[4].sv.dc.error = true; }));
  EXPECT_TRUE(mutate("empty extra bucket inside n", [](auto& c) {
    Nested msgs = to_nested(c[0].sv.dc.msgs);
    msgs.emplace_back();
    c[0].sv.dc.msgs = MsgStore(msgs);
  }));
  EXPECT_FALSE(mutate("extra bucket past rank n", [&](auto& c) {
    auto& last = c[holder(c, p.n)];
    Nested msgs = to_nested(last.sv.dc.msgs);
    msgs.resize(msgs.size() + 2);
    last.sv.dc.msgs = MsgStore(msgs);
  }));
}

TEST(SafetyOracle, BitmapWidthComesFromTheFirstAgentOfTheRank) {
  // n = 21, r = 8: groups of 11 and 10 ranks, so the first group's ID space
  // (44) is wider than the second's (40).  The last agent of group 0 gets
  // a 12th bucket, which addresses rank 12, the first rank of group 1, and
  // holds message 43 of it; rank 12's governor is given observations wide
  // enough to vouch for it.  Whether 43 fits rank 12's bitmap depends on
  // which agent reaches rank 12 first.
  const Params p = Params::make(21, 8, MessageMultiplicity::kLight);
  ASSERT_EQ(p.num_groups(), 2u);
  ASSERT_GT(p.ids_per_rank(0), p.ids_per_rank(1) + 3);
  const std::uint32_t rank12 = p.group_begin(1);
  auto config = make_safe_config(p);
  Agent& governor = config[holder(config, rank12)];
  governor.sv.dc.observations.resize(p.ids_per_rank(0), 1);
  Agent& stray = config[holder(config, rank12 - 1)];
  Nested msgs = to_nested(stray.sv.dc.msgs);
  msgs.push_back({Msg{p.ids_per_rank(1) + 3, 1}});
  stray.sv.dc.msgs = MsgStore(msgs);

  // Config order: the group-0 agent reaches rank 12 before its governor.
  expect_same_verdict(p, config, "group 0 first");
  EXPECT_TRUE(reference_consistent(p, config));

  // Move the stray agent behind every group-1 agent: rank 12's bitmap is
  // now sized by group 1, and message 43 no longer fits.
  const std::size_t at = holder(config, rank12 - 1);
  std::rotate(config.begin() + static_cast<std::ptrdiff_t>(at),
              config.begin() + static_cast<std::ptrdiff_t>(at) + 1,
              config.end());
  expect_same_verdict(p, config, "group 1 first");
  EXPECT_FALSE(reference_consistent(p, config));
}

TEST(Safety, LeaderCountCountsOnlyVerifierRankOne) {
  const Params p = Params::make(8, 4);
  auto config = make_safe_config(p);
  EXPECT_EQ(leader_count(config), 1u);
  config[0].role = Role::kRanking;  // rank-1 agent not verifying
  EXPECT_EQ(leader_count(config), 0u);
  config[0].role = Role::kVerifying;
  config[1].rank = 1;  // second leader
  EXPECT_EQ(leader_count(config), 2u);
}

TEST(Safety, WrongPopulationSizeRejected) {
  const Params p = Params::make(16, 8);
  auto config = make_safe_config(p);
  config.pop_back();
  EXPECT_FALSE(ranking_correct(p, config));
}

}  // namespace
}  // namespace ssle::core
