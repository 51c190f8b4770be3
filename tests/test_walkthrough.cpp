// Deterministic walkthrough of one AssignRanks_r execution for n = 4,
// r = 2, driving every interaction by hand.  Serves as executable
// documentation of the App. D pipeline:
//   sheriff election → deputization → channel broadcast → labeling →
//   sleep → ranks.
#include <gtest/gtest.h>

#include "core/assign_ranks.hpp"
#include "core/fast_leader_elect.hpp"

namespace ssle::core {
namespace {

class Walkthrough : public ::testing::Test {
 protected:
  void SetUp() override {
    params = Params::make(4, 2);
    for (auto& a : agents) a = ar_initial_state(params);
  }

  /// Drives u and v through one AssignRanks interaction.
  void meet(int u, int v) {
    util::Rng rng(fixed_seed++);
    assign_ranks(params, agents[u], agents[v], rng);
  }

  int count_of(ArType type) const {
    int k = 0;
    for (const auto& a : agents) k += a.type == type;
    return k;
  }

  int index_of(ArType type) const {
    for (int i = 0; i < 4; ++i) {
      if (agents[i].type == type) return i;
    }
    return -1;
  }

  Params params;
  ArState agents[4];
  std::uint64_t fixed_seed = 1;
};

TEST_F(Walkthrough, FullPipelineByHand) {
  // --- Phase 1: leader election.  All agents must mix while in the black
  // box so the minimum identifier reaches everyone before the countdowns
  // expire (the c > 14 condition of Lemma D.10); then exactly one agent
  // leaves as the sheriff and the rest as recipients.
  for (int round = 0; round < 400 && count_of(ArType::kLeaderElection) > 0;
       ++round) {
    meet(0, 1);
    meet(2, 3);
    meet(0, 2);
    meet(1, 3);
    meet(0, 3);
    meet(1, 2);
  }
  ASSERT_EQ(count_of(ArType::kLeaderElection), 0);
  ASSERT_EQ(count_of(ArType::kSheriff), 1);
  ASSERT_EQ(count_of(ArType::kRecipient), 3);
  const int s = index_of(ArType::kSheriff);

  // The sheriff holds the full badge roster {1, 2}.
  EXPECT_EQ(agents[s].low_badge, 1u);
  EXPECT_EQ(agents[s].high_badge, 2u);

  // --- Phase 2: deputization.  The sheriff meets one recipient; badges
  // {1,2} split into {1} and {2} — both become deputies immediately.
  const int d2 = (s + 1) % 4;  // an arbitrary recipient
  meet(s, d2);
  EXPECT_EQ(agents[s].type, ArType::kDeputy);
  EXPECT_EQ(agents[s].deputy_id, 1u);
  EXPECT_EQ(agents[d2].type, ArType::kDeputy);
  EXPECT_EQ(agents[d2].deputy_id, 2u);
  // Each deputy counts its own (implicit) label.
  EXPECT_EQ(agents[s].counter, 1u);
  EXPECT_EQ(agents[d2].counter, 1u);

  // --- Phase 3: channel broadcast.  The deputies exchange counts so both
  // see Σ channel = 2 = r, unlocking labeling (Protocol 10 line 1).
  meet(s, d2);
  EXPECT_EQ(agents[s].channel, (Channel{1, 1}));
  EXPECT_EQ(agents[d2].channel, (Channel{1, 1}));

  // --- Phase 4: labeling.  Deputy 1 labels the two remaining recipients.
  const int r1 = index_of(ArType::kRecipient);
  meet(s, r1);
  EXPECT_EQ(agents[r1].label, (Label{1, 2}));
  int r2 = -1;
  for (int i = 0; i < 4; ++i) {
    if (agents[i].type == ArType::kRecipient && !agents[i].label.valid()) {
      r2 = i;
    }
  }
  ASSERT_NE(r2, -1);
  meet(s, r2);
  EXPECT_EQ(agents[r2].label, (Label{1, 3}));
  EXPECT_EQ(agents[s].counter, 3u);

  // --- Phase 5: once Σ channel = n = 4, agents fall asleep.
  meet(s, d2);  // deputies sync: channel = {3, 1} → Σ = 4 → sleep
  EXPECT_EQ(agents[s].type, ArType::kSleeper);
  EXPECT_EQ(agents[d2].type, ArType::kSleeper);

  // Sleep spreads to the recipients on contact (they inherit the complete
  // channel in the same interaction, Protocol 7 lines 8–9).
  meet(s, r1);
  meet(d2, r2);
  EXPECT_EQ(agents[r1].type, ArType::kSleeper);
  EXPECT_EQ(agents[r2].type, ArType::kSleeper);
  EXPECT_EQ(agents[r1].channel, (Channel{3, 1}));

  // --- Phase 6: after c_sleep·log n own interactions the sleepers wake
  // and take their lexicographic ranks: deputy1 → 1, r1 → 2, r2 → 3,
  // deputy2 → channel[1] sum + 1 = 4.
  for (std::uint32_t step = 0; step < 4 * params.sleep_max; ++step) {
    meet(s, r1);
    meet(d2, r2);
    meet(s, r2);
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(agents[i].type, ArType::kRanked) << "agent " << i;
  }
  EXPECT_EQ(agents[s].rank, 1u);   // label (1,1)
  EXPECT_EQ(agents[r1].rank, 2u);  // label (1,2)
  EXPECT_EQ(agents[r2].rank, 3u);  // label (1,3)
  EXPECT_EQ(agents[d2].rank, 4u);  // label (2,1) → 3 + 1
}

TEST_F(Walkthrough, SecondSheriffScenarioIsPossibleUnderBadMixing) {
  // Executable documentation of *why* the protocol needs verification:
  // if an agent never hears the minimum identifier while in the black box
  // (pathological scheduling), it can also declare itself sheriff.  The
  // resulting double ranking is exactly what DetectCollision_r catches.
  for (int round = 0; round < 400; ++round) {
    meet(0, 1);  // agents 2, 3 never meet another LE agent...
    if (agents[0].type != ArType::kLeaderElection &&
        agents[1].type != ArType::kLeaderElection) {
      break;
    }
  }
  const int settled = agents[0].type == ArType::kSheriff ? 0 : 1;
  for (int round = 0; round < 400 &&
                      agents[2].type == ArType::kLeaderElection;
       ++round) {
    meet(2, settled);  // ...only settled non-LE agents
  }
  // Agent 2 believed its own identifier was the minimum it ever saw.
  EXPECT_EQ(count_of(ArType::kSheriff) + count_of(ArType::kDeputy), 2);
}

}  // namespace
}  // namespace ssle::core
