// std::hash<core::Agent> consistency: equal agents hash equal (required
// for the CountsConfiguration registry), and perturbing any field — at
// every nesting level — changes the hash.  Golden pins hold the hash and
// the snapshot text fixed across layout changes.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <unordered_set>

#include "baselines/cai_izumi_wada.hpp"
#include "baselines/fight_leader.hpp"
#include "baselines/loose_leader.hpp"
#include "core/adversary.hpp"
#include "core/agent.hpp"
#include "core/detect_collision.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/snapshot.hpp"
#include "pp/counts.hpp"
#include "util/rng.hpp"

namespace ssle::core {
namespace {

std::size_t h(const Agent& a) { return std::hash<Agent>{}(a); }

Agent busy_agent() {
  Agent a;
  a.role = Role::kVerifying;
  a.countdown = 9;
  a.rank = 4;
  a.reset.reset_count = 2;
  a.reset.delay_timer = 5;
  a.ar.type = ArType::kDeputy;
  a.ar.le.drawn = true;
  a.ar.le.identifier = 123456;
  a.ar.le.min_identifier = 777;
  a.ar.le.le_count = 3;
  a.ar.le.leader_done = true;
  a.ar.le.leader_bit = false;
  a.ar.low_badge = 1;
  a.ar.high_badge = 6;
  a.ar.deputy_id = 2;
  a.ar.counter = 11;
  a.ar.label = Label{2, 7};
  a.ar.sleep_timer = 4;
  a.ar.channel = {0, 3, 1};
  a.ar.rank = 4;
  a.sv.generation = 3;
  a.sv.probation_timer = 17;
  a.sv.dc.error = false;
  a.sv.dc.signature = 42;
  a.sv.dc.counter = 8;
  a.sv.dc.msgs = MsgStore({{Msg{1, 10}, Msg{2, 20}}, {}});
  a.sv.dc.observations = {10, 0, 30};
  return a;
}

TEST(AgentHash, EqualAgentsHashEqual) {
  const Agent a = busy_agent();
  const Agent b = busy_agent();
  ASSERT_EQ(a, b);
  EXPECT_EQ(h(a), h(b));
}

TEST(AgentHash, SatisfiesTheHashableStateConcept) {
  static_assert(pp::HashableState<Agent>);
  static_assert(pp::HashableState<baselines::CaiIzumiWada::State>);
  static_assert(pp::HashableState<baselines::FightLeaderElection::State>);
  static_assert(pp::HashableState<baselines::LooseLeaderElection::State>);
}

TEST(AgentHash, TopLevelFieldPerturbationsChangeTheHash) {
  const Agent base = busy_agent();
  Agent x = base;
  x.role = Role::kResetting;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.countdown += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.rank += 1;
  EXPECT_NE(h(base), h(x));
}

TEST(AgentHash, NestedResetAndArPerturbationsChangeTheHash) {
  const Agent base = busy_agent();
  Agent x = base;
  x.reset.reset_count += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.reset.delay_timer += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.type = ArType::kSheriff;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.le.identifier += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.le.drawn = !x.ar.le.drawn;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.label.index += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.channel.set(1, x.ar.channel[1] + 1);
  EXPECT_NE(h(base), h(x));
  x = base;
  x.ar.channel = {0, 3, 1, 0};  // length must matter, not just contents
  EXPECT_NE(h(base), h(x));
}

TEST(AgentHash, NestedSvAndDcPerturbationsChangeTheHash) {
  const Agent base = busy_agent();
  Agent x = base;
  x.sv.generation += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.probation_timer += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.dc.error = true;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.dc.signature += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.dc.msgs[0][1].content += 1;
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.dc.msgs.insert(1, Msg{9, 9});
  EXPECT_NE(h(base), h(x));
  x = base;
  x.sv.dc.observations[2] += 1;
  EXPECT_NE(h(base), h(x));
}

TEST(AgentHash, InitialStatesHashDistinctlyAcrossPerturbedRanks) {
  // Distinct live states from a real protocol should spread over the hash
  // space well enough for the registry's unordered_map.
  const Params params = Params::make(32, 8);
  ElectLeader protocol(params);
  std::unordered_set<std::size_t> hashes;
  for (std::uint32_t i = 0; i < 32; ++i) {
    Agent a = protocol.initial_state(i);
    a.rank = i + 1;
    a.ar.le.identifier = 1000 + i;
    hashes.insert(h(a));
  }
  EXPECT_EQ(hashes.size(), 32u);
}

// ---------------------------------------------------------------------------
// Golden pins.  The values below were recorded from the nested-vector
// message layout that preceded MsgStore.  They pin std::hash<Agent> (the
// registry fingerprints in checkpoints and benchmark digests depend on it)
// and the snapshot text (v1 checkpoints must keep resuming) across layout
// changes.
// ---------------------------------------------------------------------------

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_text(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr MessageMultiplicity kMults[] = {MessageMultiplicity::kFaithful,
                                          MessageMultiplicity::kLight};

struct ConfigPin {
  int mult;  ///< index into kMults
  const char* corruption;
  std::uint64_t hashes;  ///< FNV-1a over the agents' hash_value
  std::uint64_t text;    ///< FNV-1a over the agents' snapshot text
};

constexpr ConfigPin kConfigPins[] = {
    {0, "none", 0xdc70e05224639aecull, 0xbccc7991092bd877ull},
    {0, "duplicate_ranks", 0xd9273fe76027e514ull, 0x4f332903ca0cc1f7ull},
    {0, "no_leader", 0xf59be4630b12dabbull, 0x84909518f317dbccull},
    {0, "corrupt_messages", 0xc34fd9a010a6252full, 0x5371e5f590f6c330ull},
    {0, "lost_messages", 0x76e57f022fb3976bull, 0xe1fa89c9b2aa2d6aull},
    {0, "mixed_generations", 0xc6efe941ea7ec5d3ull, 0x4036f152328a7dc3ull},
    {0, "mid_ranking", 0x6f4bb815dcc8f531ull, 0xa555a4347eda140cull},
    {0, "all_resetting", 0xca1b65937e365acfull, 0x34c0c49e6769f442ull},
    {0, "random_states", 0x6bfdca286bf12b81ull, 0xda51b1c83bcd9921ull},
    {1, "none", 0x455eb1869c05a188ull, 0xafd4dcd77fe0e01dull},
    {1, "duplicate_ranks", 0xfd0d76dfcfe4525cull, 0xe36617b53ee1be41ull},
    {1, "no_leader", 0xc8f3708bb092607dull, 0x89c6dcb9d25b44e0ull},
    {1, "corrupt_messages", 0x4a32a54ba5e93613ull, 0xe161e50bc1015d42ull},
    {1, "lost_messages", 0xd3dee610641fa37dull, 0x5b68f7a82a646b4eull},
    {1, "mixed_generations", 0x075aaeca2acd232cull, 0x5014c0786d736b93ull},
    {1, "mid_ranking", 0xe9c7e41c0bbd0a58ull, 0xb75d8faa29e6a0f0ull},
    {1, "all_resetting", 0xed6ff5f484a76a86ull, 0xd3f0337c066bbce8ull},
    {1, "random_states", 0xe7f225d76e64047cull, 0x481f3ae9899a3357ull},
};

struct AgentPin {
  int mult;
  int draw;
  std::uint64_t hash;
  std::uint64_t text;
};

constexpr AgentPin kRandomAgentPins[] = {
    {0, 0, 0xc63bb52b56ec2b42ull, 0x6bbfa4a075e4ee70ull},
    {0, 1, 0x0c32f17d22e8e480ull, 0xc8fa8d2f60e105deull},
    {0, 2, 0x656ba67b6bdee029ull, 0x07d7faab21fc5755ull},
    {0, 3, 0x09864312f302744cull, 0x25bf05ca2574fa31ull},
    {0, 4, 0x656ba667c3619a5eull, 0x65e299897ec871e2ull},
    {0, 5, 0x656ba4517163d07eull, 0x6627fee6f8514847ull},
    {1, 0, 0x656ba450ec9e61ecull, 0xf862571b03205bf1ull},
    {1, 1, 0x656ba451a341f951ull, 0xb469ca705b93de02ull},
    {1, 2, 0x656ba67bd25fdcb0ull, 0x52732fee4316daf2ull},
    {1, 3, 0x656ba678ac8650fbull, 0x2bab241ab189ec60ull},
    {1, 4, 0x4979ab2d7d33f70full, 0x823b27247756bc5aull},
    {1, 5, 0x9b2155c1359e6fafull, 0x94eaaaffa2b5119cull},
};

TEST(AgentGolden, EveryCorruptionClassHashesAndSnapshotsAsRecorded) {
  static_assert(sizeof(std::size_t) == 8, "pins are 64-bit hash values");
  std::size_t pin = 0;
  for (int mi = 0; mi < 2; ++mi) {
    const Params params = Params::make(64, 8, kMults[mi]);
    std::uint64_t stream = 0;
    for (const Corruption c : all_corruptions()) {
      util::Rng rng(util::substream(12, 16 * mi + stream++));
      const auto config = make_adversarial_config(params, c, rng);
      std::uint64_t hashes = kFnvBasis, text = kFnvBasis;
      for (const Agent& a : config) {
        hashes = fnv_u64(hashes, hash_value(a));
        text = fnv_text(text, snapshot_write_agent(a));
      }
      ASSERT_LT(pin, std::size(kConfigPins));
      const ConfigPin& want = kConfigPins[pin++];
      ASSERT_EQ(want.mult, mi);
      ASSERT_EQ(want.corruption, corruption_name(c));
      EXPECT_EQ(hashes, want.hashes) << want.corruption << " mult=" << mi;
      EXPECT_EQ(text, want.text) << want.corruption << " mult=" << mi;
    }
  }
  EXPECT_EQ(pin, std::size(kConfigPins));
}

TEST(AgentGolden, RandomAgentsHashAndSnapshotAsRecorded) {
  std::size_t pin = 0;
  int verifiers = 0;
  for (int mi = 0; mi < 2; ++mi) {
    const Params params = Params::make(64, 8, kMults[mi]);
    util::Rng rng(util::substream(99, mi));
    for (int draw = 0; draw < 6; ++draw) {
      const Agent a = random_agent(params, rng);
      if (a.role == Role::kVerifying) ++verifiers;
      const AgentPin& want = kRandomAgentPins[pin++];
      EXPECT_EQ(hash_value(a), want.hash) << "mult=" << mi << " draw=" << draw;
      EXPECT_EQ(fnv_text(kFnvBasis, snapshot_write_agent(a)), want.text)
          << "mult=" << mi << " draw=" << draw;
      // The text resumes to the same agent.
      EXPECT_EQ(snapshot_read_agent(snapshot_write_agent(a)), a);
    }
  }
  EXPECT_GT(verifiers, 0);  // the draws exercise message stores
}

TEST(AgentGolden, LayoutStaysCompact) {
  EXPECT_LE(sizeof(Agent), 184u);
  // A fresh verifier's DetectCollision state is two heap blocks: the
  // message store and the observations.  The store's header packs the
  // bucket count and one end index per bucket two to a slot.
  const Params params = Params::make(64, 8, MessageMultiplicity::kLight);
  const DcState dc = dc_initial_state(params, 5);
  const std::uint32_t m = params.group_size(params.group_of(5));
  EXPECT_EQ(dc.msgs.size(), m);
  EXPECT_EQ(dc.msgs.heap_bytes(),
            ((m + 2) / 2 + dc.msgs.message_count()) * sizeof(Msg));
  // A verifier of the recovery workload (n = 10^5, r = 64, light) in a
  // group of 64: 64 buckets of 4 messages behind a 33-slot header, 2 312
  // bytes.
  const Params wide = Params::make(100000, 64, MessageMultiplicity::kLight);
  const DcState big = dc_initial_state(wide, wide.n);
  EXPECT_EQ(big.msgs.size(), 64u);
  EXPECT_EQ(big.msgs.message_count(), 256u);
  EXPECT_EQ(big.msgs.heap_bytes(), (33u + 256u) * sizeof(Msg));
  // perfbench's per-bucket accounting stays an upper bound on the buffer.
  std::size_t reported = dc.msgs.capacity() * sizeof(std::vector<Msg>);
  for (const auto& bucket : dc.msgs) {
    reported += bucket.capacity() * sizeof(Msg);
  }
  EXPECT_GE(reported, dc.msgs.heap_bytes());
}

TEST(AgentHash, CountsConfigurationUsesTheHashIndexForAgents) {
  // With std::hash<Agent> in place the registry takes the O(1) path; this
  // checks the index stays consistent through add/remove/compact.
  const Params params = Params::make(16, 4);
  ElectLeader protocol(params);
  pp::CountsConfiguration<ElectLeader> config(protocol);
  EXPECT_EQ(config.population_size(), 16u);
  ASSERT_EQ(config.num_states(), 1u);  // clean start: all agents identical

  Agent ranked = protocol.initial_state(0);
  ranked.rank = 3;
  const auto idx = config.add(ranked, 5);
  EXPECT_EQ(config.count_of(ranked), 5u);
  config.remove_at(idx, 5);
  config.compact();
  EXPECT_EQ(config.count_of(ranked), 0u);
  EXPECT_EQ(config.population_size(), 16u);
  EXPECT_EQ(config.count_of(protocol.initial_state(1)), 16u);
}

}  // namespace
}  // namespace ssle::core
