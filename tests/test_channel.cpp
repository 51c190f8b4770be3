// core::Channel, the shared copy-on-write channel of AssignRanks_r: a
// randomized differential test against a std::vector model that reaches
// every merge branch, the sharing rules one by one, equality and hashing
// by contents, the snapshot round trip, and copies of shared channels on
// parallel_sweep's threads (the atomic reference count).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/agent.hpp"
#include "core/channel.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/snapshot.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace ssle::core {
namespace {

using Model = std::vector<std::uint32_t>;

Model contents(const Channel& c) { return Model(c.begin(), c.end()); }

std::uint64_t model_sum(const Model& m) {
  return std::accumulate(m.begin(), m.end(), std::uint64_t{0});
}

std::size_t ar_hash(const Channel& c) {
  ArState s;
  s.type = ArType::kRecipient;
  s.channel = c;
  return hash_value(s);
}

/// Round-trips the channel through an agent's snapshot stanza.
Channel through_snapshot(const Channel& c) {
  Agent a;
  a.ar.type = ArType::kRecipient;
  a.ar.channel = c;
  const auto back = snapshot_read_agent(snapshot_write_agent(a));
  EXPECT_TRUE(back.has_value());
  return back ? back->ar.channel : Channel{};
}

enum Branch { kSameBuffer, kEqualContents, kBothUnique, kOneUnique,
              kBothShared, kBranches };

Branch branch_of(const Channel& a, const Channel& b) {
  if (a.shares_buffer_with(b)) return kSameBuffer;
  if (a == b) return kEqualContents;
  if (a.unique() && b.unique()) return kBothUnique;
  if (a.unique() || b.unique()) return kOneUnique;
  return kBothShared;
}

TEST(Channel, MatchesAVectorModelThroughRandomEdits) {
  constexpr std::size_t kSlots = 8;
  constexpr std::size_t kWidth = 4;
  std::vector<Channel> ch(kSlots);
  std::vector<Model> model(kSlots);
  std::array<int, kBranches> seen{};
  util::Rng rng(2024);
  // Small values make equal contents and dominated merges common.
  const auto value = [&] { return static_cast<std::uint32_t>(rng.below(3)); };

  for (int step = 0; step < 20000; ++step) {
    const std::size_t i = rng.below(kSlots);
    const std::size_t j = rng.below(kSlots);
    switch (rng.below(8)) {
      case 0:
      case 1:  // share
        ch[i] = ch[j];
        model[i] = model[j];
        break;
      case 2: {  // fill
        const std::uint32_t v = value();
        ch[i].assign(kWidth, v);
        model[i].assign(kWidth, v);
        break;
      }
      case 3:  // point write
        if (!model[i].empty()) {
          const std::size_t k = rng.below(model[i].size());
          const std::uint32_t v = value();
          ch[i].set(k, v);
          model[i][k] = v;
        }
        break;
      case 4:
      case 5:  // merge
        if (model[i].size() == kWidth && model[j].size() == kWidth) {
          const Branch b = branch_of(ch[i], ch[j]);
          ++seen[b];
          const bool both_unique = b == kBothUnique;
          Channel::merge_max(ch[i], ch[j]);
          for (std::size_t k = 0; k < kWidth; ++k) {
            model[i][k] = model[j][k] = std::max(model[i][k], model[j][k]);
          }
          // Only two unique buffers are merged in place; every other
          // merge leaves both sides on one buffer.
          if (i != j) EXPECT_EQ(ch[i].shares_buffer_with(ch[j]), !both_unique);
        }
        break;
      case 6: {  // resize, to the merge width or past it
        const std::size_t size = rng.below(2) ? kWidth : kWidth + 2;
        ch[i].resize(size);
        model[i].resize(size, 0);
        break;
      }
      case 7:  // drop
        ch[i].clear();
        model[i].clear();
        break;
    }
    for (std::size_t a = 0; a < kSlots; ++a) {
      ASSERT_EQ(contents(ch[a]), model[a]) << "slot " << a << " step " << step;
      ASSERT_EQ(ch[a].size(), model[a].size());
      ASSERT_EQ(ch[a].empty(), model[a].empty());
      ASSERT_EQ(ch[a].sum(), model_sum(model[a]));
      for (std::size_t b = 0; b < kSlots; ++b) {
        ASSERT_EQ(ch[a] == ch[b], model[a] == model[b]);
        if (model[a] == model[b]) ASSERT_EQ(ar_hash(ch[a]), ar_hash(ch[b]));
      }
    }
    if (step % 1000 == 0) {
      for (std::size_t a = 0; a < kSlots; ++a) {
        EXPECT_EQ(contents(through_snapshot(ch[a])), model[a]);
      }
    }
  }
  for (int b = 0; b < kBranches; ++b) EXPECT_GT(seen[b], 0) << "branch " << b;
}

TEST(Channel, WritesToASharedBufferStayPrivate) {
  const Channel original{1, 2, 3};
  Channel a = original;
  Channel b = original;
  ASSERT_TRUE(a.shares_buffer_with(b));
  EXPECT_FALSE(a.unique());
  a.set(0, 9);
  EXPECT_EQ(contents(a), (Model{9, 2, 3}));
  EXPECT_EQ(contents(b), (Model{1, 2, 3}));
  EXPECT_EQ(contents(original), (Model{1, 2, 3}));
  EXPECT_TRUE(a.unique());
  EXPECT_EQ(a.sum(), 14u);
  EXPECT_EQ(original.sum(), 6u);
  a.assign(3, 0);  // unique: refilled in place, sharers untouched
  b.resize(5);
  EXPECT_EQ(contents(original), (Model{1, 2, 3}));
  EXPECT_EQ(contents(b), (Model{1, 2, 3, 0, 0}));
}

TEST(Channel, MergeSharesExactlyAsTheBranchRulesSay) {
  // Equal contents: both take the buffer more agents hold.
  const Channel popular{2, 2};
  Channel p1 = popular;
  Channel lone{2, 2};
  Channel::merge_max(lone, p1);
  EXPECT_EQ(lone.sum(), 4u);
  EXPECT_TRUE(lone.shares_buffer_with(popular));
  EXPECT_TRUE(p1.shares_buffer_with(popular));

  // Both unique: in place, still two buffers.
  Channel u{1, 0};
  Channel v{0, 3};
  Channel::merge_max(u, v);
  EXPECT_EQ(u.sum(), 4u);
  EXPECT_FALSE(u.shares_buffer_with(v));
  EXPECT_TRUE(u.unique() && v.unique());
  EXPECT_EQ(contents(u), (Model{1, 3}));
  EXPECT_EQ(contents(v), (Model{1, 3}));

  // One unique: the merge goes into it, and the shared side moves over;
  // the shared side's other holder keeps its contents.
  const Channel keep{5, 0};
  Channel shared = keep;
  Channel mine{0, 7};
  Channel::merge_max(shared, mine);
  EXPECT_EQ(shared.sum(), 12u);
  EXPECT_TRUE(shared.shares_buffer_with(mine));
  EXPECT_EQ(contents(mine), (Model{5, 7}));
  EXPECT_EQ(contents(keep), (Model{5, 0}));

  // Both shared: one new buffer for the pair, the old holders untouched.
  const Channel x0{4, 1};
  const Channel y0{1, 4};
  Channel x = x0;
  Channel y = y0;
  Channel::merge_max(x, y);
  EXPECT_EQ(x.sum(), 8u);
  EXPECT_TRUE(x.shares_buffer_with(y));
  EXPECT_FALSE(x.shares_buffer_with(x0));
  EXPECT_FALSE(x.shares_buffer_with(y0));
  EXPECT_EQ(contents(x), (Model{4, 4}));
  EXPECT_EQ(contents(x0), (Model{4, 1}));
  EXPECT_EQ(contents(y0), (Model{1, 4}));

  // One buffer already: nothing moves.
  Channel::merge_max(x, y);
  EXPECT_EQ(x.sum(), 8u);
  EXPECT_TRUE(x.shares_buffer_with(y));
}

TEST(Channel, EqualContentsCompareAndHashEqualAcrossBuffers) {
  const Channel a{0, 3, 1};
  const Channel b{0, 3, 1};
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(ar_hash(a), ar_hash(b));
  EXPECT_NE(a, (Channel{0, 3, 1, 0}));  // the length counts
  EXPECT_NE(ar_hash(a), ar_hash(Channel{0, 3, 1, 0}));
  EXPECT_EQ(Channel{}, Channel(nullptr, 0));
  Channel empty;
  empty.assign(0, 7);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.sum(), 0u);
}

TEST(Channel, SnapshotRoundTripKeepsContentsNotSharing) {
  const Channel a{0, 4294967295u, 17};
  const Channel back = through_snapshot(a);
  EXPECT_EQ(back, a);
  EXPECT_EQ(back.sum(), a.sum());
  EXPECT_FALSE(back.shares_buffer_with(a));
  EXPECT_TRUE(through_snapshot(Channel{}).empty());
}

/// Rankers in mid-AssignRanks whose channels all share a few buffers.
std::vector<Agent> sharing_population(const Params& p) {
  const ElectLeader protocol(p);
  std::vector<Agent> agents;
  Channel zero;
  zero.assign(p.r, 0);
  Channel ones;
  ones.assign(p.r, 1);
  for (std::uint32_t i = 0; i < p.n; ++i) {
    Agent a = protocol.initial_state(i);
    a.ar.type = i % 3 == 0 ? ArType::kDeputy : ArType::kRecipient;
    if (a.ar.type == ArType::kDeputy) {
      a.ar.deputy_id = 1 + i % p.r;
      a.ar.counter = 1;
    }
    a.ar.channel = i % 2 == 0 ? zero : ones;
    agents.push_back(a);
  }
  return agents;
}

TEST(ChannelThreads, SharedChannelsCopiedAcrossParallelSweepThreads) {
  // Every trial copies the same agents, whose channels share two buffers,
  // and runs the naive engine on its copy: the copies, merges and
  // destructions on different threads all touch the shared counts.
  const Params p = Params::make(48, 8, MessageMultiplicity::kLight);
  const ElectLeader protocol(p);
  const std::vector<Agent> shared = sharing_population(p);
  const auto measure = [&](std::uint64_t seed) {
    std::vector<Agent> mine = shared;
    pp::Simulator<ElectLeader> sim(
        protocol, pp::Population<ElectLeader>(std::move(mine)), seed);
    sim.step(20000);
    std::size_t h = 0;
    for (const Agent& a : sim.population().states()) {
      util::hash_mix(h, hash_value(a));
    }
    return static_cast<double>(h % 1000003);
  };
  const auto serial = analysis::sweep(11, 8, measure);
  const auto parallel = analysis::parallel_sweep(11, 8, measure, 4);
  EXPECT_EQ(parallel.samples, serial.samples);
  EXPECT_EQ(serial.failures, 0u);
}

}  // namespace
}  // namespace ssle::core
