#include "core/detect_collision.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "pp/scheduler.hpp"

namespace ssle::core {
namespace {

/// Standalone DetectCollision harness: agents = (rank, DcState), running
/// the module directly (as Lemma E.1 analyses it).
struct DcHarness {
  Params params;
  std::vector<std::uint32_t> ranks;
  std::vector<DcState> states;
  pp::UniformScheduler sched;
  util::Rng rng;

  DcHarness(const Params& p, std::vector<std::uint32_t> rank_vector,
            std::uint64_t seed)
      : params(p),
        ranks(std::move(rank_vector)),
        sched(static_cast<std::uint32_t>(ranks.size()), seed),
        rng(util::substream(seed, 4)) {
    for (const auto rank : ranks) {
      states.push_back(dc_initial_state(params, rank));
    }
  }

  void step(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto [a, b] = sched.next();
      detect_collision(params, ranks[a], states[a], ranks[b], states[b], rng);
    }
  }

  bool any_error() const {
    for (const auto& s : states) {
      if (s.error) return true;
    }
    return false;
  }

  /// Runs until ⊤ appears or budget exhausted; returns interactions used.
  std::uint64_t run_until_error(std::uint64_t budget) {
    std::uint64_t t = 0;
    while (t < budget && !any_error()) {
      step(1);
      ++t;
    }
    return t;
  }
};

std::vector<std::uint32_t> identity_ranking(std::uint32_t n) {
  std::vector<std::uint32_t> ranks(n);
  for (std::uint32_t i = 0; i < n; ++i) ranks[i] = i + 1;
  return ranks;
}

TEST(DcInitialState, HoldsPreMixedSlices) {
  const Params p = Params::make(8, 4);  // groups of size 4
  const DcState s = dc_initial_state(p, 2);
  const std::uint32_t m = p.group_size(p.group_of(2));
  ASSERT_EQ(s.msgs.size(), m);
  // Every bucket holds the agent's contiguous slice, content 1.
  const std::uint32_t ids = p.ids_per_rank(p.group_of(2));
  const std::uint32_t slice = ids / m;
  for (const auto& bucket : s.msgs) {
    ASSERT_EQ(bucket.size(), slice);
    for (const auto& msg : bucket) EXPECT_EQ(msg.content, 1u);
  }
  EXPECT_EQ(s.signature, 1u);
  EXPECT_EQ(s.counter, 1u);
  for (const auto o : s.observations) EXPECT_EQ(o, 1u);
}

TEST(DcInitialState, SlicesPartitionTheIdSpace) {
  const Params p = Params::make(12, 4);
  const std::uint32_t group = p.group_of(1);
  const std::uint32_t m = p.group_size(group);
  const std::uint32_t ids = p.ids_per_rank(group);
  // Union of all agents' slices for rank 1 covers [1, ids] exactly once.
  std::vector<int> seen(ids + 1, 0);
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    const std::uint32_t rank = p.group_begin(group) + pos;
    const DcState s = dc_initial_state(p, rank);
    for (const auto& msg : s.msgs[0]) ++seen[msg.id];
  }
  for (std::uint32_t j = 1; j <= ids; ++j) EXPECT_EQ(seen[j], 1) << j;
}

TEST(DetectCollision, DifferentGroupsNoOp) {
  const Params p = Params::make(8, 2);  // several groups
  ASSERT_GT(p.num_groups(), 1u);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 8);
  const DcState a0 = a;
  const DcState b0 = b;
  util::Rng rng(1);
  detect_collision(p, 1, a, 8, b, rng);
  EXPECT_EQ(a, a0);
  EXPECT_EQ(b, b0);
}

TEST(DetectCollision, SameRankImmediateError) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 3);
  DcState b = dc_initial_state(p, 3);
  // Remove duplicated message overlap so only the rank check can fire.
  util::Rng rng(1);
  detect_collision(p, 3, a, 3, b, rng);
  EXPECT_TRUE(a.error);
  EXPECT_TRUE(b.error);
}

TEST(DetectCollision, DuplicateMessageImmediateError) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  // Plant a copy of one of a's messages into b.
  b.msgs.insert(0, a.msgs[0].front());
  util::Rng rng(1);
  detect_collision(p, 1, a, 2, b, rng);
  EXPECT_TRUE(a.error);
  EXPECT_TRUE(b.error);
}

TEST(DetectCollision, InconsistentContentRaisesError) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);  // governor of rank 1's messages
  DcState b = dc_initial_state(p, 2);
  // Corrupt one of b's circulating rank-1 messages.
  ASSERT_FALSE(b.msgs[0].empty());
  b.msgs[0].front().content = 999;
  util::Rng rng(1);
  detect_collision(p, 1, a, 2, b, rng);
  EXPECT_TRUE(a.error);
  EXPECT_TRUE(b.error);
}

TEST(DetectCollision, ErrorStateIsAbsorbing) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  a.error = true;
  util::Rng rng(1);
  detect_collision(p, 1, a, 2, b, rng);
  EXPECT_TRUE(a.error);
  EXPECT_TRUE(b.error);  // ⊤ spreads to the partner
}

TEST(UpdateMessages, RefreshesSignatureOnSchedule) {
  const Params p = Params::make(8, 4);
  DcState a = dc_initial_state(p, 1);
  DcState b = dc_initial_state(p, 2);
  util::Rng rng(5);
  const std::uint32_t period = p.signature_period(p.group_of(1));
  for (std::uint32_t i = 0; i < period + 2; ++i) {
    update_messages(p, 1, a, b, rng);
  }
  EXPECT_NE(a.signature, 1u);  // resampled (space is ≥ 2^20, so ≠ 1 whp)
  // a's own held rank-1 messages and observations match the signature.
  for (const auto& msg : a.msgs[0]) {
    EXPECT_EQ(msg.content, a.signature);
    EXPECT_EQ(a.observations[msg.id - 1], a.signature);
  }
  // b's rank-1 messages were restamped too.
  for (const auto& msg : b.msgs[0]) {
    EXPECT_EQ(msg.content, a.signature);
    EXPECT_EQ(a.observations[msg.id - 1], a.signature);
  }
}

TEST(DcMessageCount, CountsAllBuckets) {
  const Params p = Params::make(8, 4);
  const DcState s = dc_initial_state(p, 1);
  const std::uint32_t group = p.group_of(1);
  EXPECT_EQ(dc_message_count(s),
            static_cast<std::uint64_t>(p.group_size(group)) *
                (p.ids_per_rank(group) / p.group_size(group)));
}

// --- Lemma E.1(a): soundness — no ⊤ from correct init on correct ranking --

class DcSoundness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(DcSoundness, NoFalsePositiveEver) {
  const auto [n, r] = GetParam();
  const Params p = Params::make(n, r);
  DcHarness h(p, identity_ranking(n), 1234);
  h.step(120000);
  EXPECT_FALSE(h.any_error()) << "n=" << n << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DcSoundness,
    ::testing::Values(std::tuple{8u, 1u}, std::tuple{8u, 4u},
                      std::tuple{16u, 8u}, std::tuple{24u, 6u},
                      std::tuple{32u, 16u}, std::tuple{33u, 16u},
                      std::tuple{64u, 8u}));

// --- Lemma E.1(b): robust completeness -------------------------------------

class DcCompleteness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(DcCompleteness, PlantedDuplicateDetected) {
  const auto [n, r] = GetParam();
  const Params p = Params::make(n, r);
  auto ranks = identity_ranking(n);
  ranks[0] = ranks[1];  // plant one duplicate pair
  int detected = 0;
  constexpr int kTrials = 5;
  const std::uint64_t L = Params::log2ceil(n);
  const std::uint64_t budget = 800ull * (n * n / p.r) * L + 400000;
  for (int trial = 0; trial < kTrials; ++trial) {
    DcHarness h(p, ranks, 999 + trial);
    h.run_until_error(budget);
    detected += h.any_error();
  }
  EXPECT_EQ(detected, kTrials) << "n=" << n << " r=" << r;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DcCompleteness,
    ::testing::Values(std::tuple{8u, 4u}, std::tuple{16u, 8u},
                      std::tuple{16u, 4u}, std::tuple{32u, 16u},
                      std::tuple{32u, 4u}, std::tuple{64u, 32u}));

TEST(DcCompletenessExtra, ManyDuplicatesDetectedFast) {
  // Lemma E.3: with ≥ m duplicated agents detection is O(m log m) group
  // interactions — direct meetings dominate.
  const Params p = Params::make(32, 16);
  std::vector<std::uint32_t> ranks(32, 5);  // everyone shares rank 5
  DcHarness h(p, ranks, 77);
  const std::uint64_t t = h.run_until_error(100000);
  EXPECT_TRUE(h.any_error());
  EXPECT_LT(t, 5000u);
}

TEST(DcCompletenessExtra, LightMultiplicityAlsoDetects) {
  const Params p = Params::make(32, 16, MessageMultiplicity::kLight);
  auto ranks = identity_ranking(32);
  ranks[3] = ranks[20];
  DcHarness h(p, ranks, 31);
  h.run_until_error(4000000);
  EXPECT_TRUE(h.any_error());
}

// --- Message conservation under the full module ----------------------------

TEST(DetectCollision, MessagesConservedWhileErrorFree) {
  const Params p = Params::make(16, 8);
  DcHarness h(p, identity_ranking(16), 5);
  std::map<std::uint32_t, std::uint64_t> initial_per_rank;
  const std::uint64_t total_before = [&] {
    std::uint64_t t = 0;
    for (const auto& s : h.states) t += dc_message_count(s);
    return t;
  }();
  h.step(50000);
  ASSERT_FALSE(h.any_error());
  std::uint64_t total_after = 0;
  for (const auto& s : h.states) total_after += dc_message_count(s);
  EXPECT_EQ(total_before, total_after);
}

}  // namespace
}  // namespace ssle::core
