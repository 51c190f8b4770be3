// MsgStore, the verifier's message buffer (core/agent.hpp): a randomized
// differential test against a nested vector<vector<Msg>>, and dc_reset's
// one-pass layout against the bucket-by-bucket rewrite it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/agent.hpp"
#include "core/detect_collision.hpp"
#include "core/params.hpp"
#include "util/rng.hpp"

namespace ssle::core {
namespace {

using Nested = std::vector<std::vector<Msg>>;

std::size_t hash_of(const MsgStore& msgs) {
  DcState s;
  s.msgs = msgs;
  return hash_value(s);
}

/// The same content built through clear + insert instead of the rewrite
/// the nested constructor uses.
MsgStore built_by_inserts(const Nested& ref) {
  MsgStore store;
  store.clear(ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k) {
    for (const Msg& msg : ref[k]) store.insert(k, msg);
  }
  return store;
}

/// Checks every read `store` offers against `ref`, and that stores of the
/// same content built by other edit sequences compare and hash equal.
void expect_matches(const MsgStore& store, const Nested& ref) {
  ASSERT_EQ(store.size(), ref.size());
  EXPECT_EQ(store.empty(), ref.empty());
  std::size_t total = 0;
  std::size_t reserved = store.capacity();
  std::size_t k = 0;
  for (const auto bucket : store) {
    ASSERT_EQ(std::vector<Msg>(bucket.begin(), bucket.end()), ref[k]) << k;
    ASSERT_EQ(bucket.size(), ref[k].size());
    total += bucket.size();
    reserved += bucket.capacity();
    ++k;
  }
  EXPECT_EQ(k, ref.size());
  EXPECT_EQ(store.message_count(), total);
  EXPECT_EQ(reserved * sizeof(Msg), store.heap_bytes());

  const MsgStore rebuilt(ref);
  const MsgStore inserted = built_by_inserts(ref);
  EXPECT_EQ(store, rebuilt);
  EXPECT_EQ(store, inserted);
  EXPECT_EQ(hash_of(store), hash_of(rebuilt));
  EXPECT_EQ(hash_of(store), hash_of(inserted));
  const std::size_t header = ref.empty() ? 0 : (ref.size() + 2) / 2;
  EXPECT_EQ(rebuilt.heap_bytes(), (header + total) * sizeof(Msg));
}

/// A bucket of up to `max_len` messages with strictly increasing IDs.
std::vector<Msg> random_bucket(util::Rng& rng, std::size_t max_len) {
  std::vector<Msg> bucket(rng.below(max_len + 1));
  std::uint32_t id = 0;
  for (Msg& msg : bucket) {
    id += static_cast<std::uint32_t>(1 + rng.below(3));
    msg = {id, static_cast<std::uint32_t>(1 + rng.below(5))};
  }
  return bucket;
}

TEST(MsgStore, MatchesANestedReferenceUnderRandomEdits) {
  // Odd and even bucket counts: an even count leaves the header's last
  // half-slot spare.
  constexpr std::uint32_t kBucketCounts[] = {0, 1, 2, 3, 4, 5, 8, 9, 64, 65};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    MsgStore store;
    Nested ref;
    for (int op = 0; op < 300; ++op) {
      const std::size_t m = ref.size();
      switch (rng.below(6)) {
        case 0: {  // rewrite: clear, then extend/close_bucket per bucket
          const std::uint32_t buckets = kBucketCounts[rng.below(10)];
          Nested next(buckets);
          std::size_t total = 0;
          for (auto& bucket : next) {
            bucket = random_bucket(rng, 6);
            total += bucket.size();
          }
          store.clear(buckets, rng.coin() ? total : 0);
          for (std::size_t k = 0; k < buckets; ++k) {
            std::copy(next[k].begin(), next[k].end(),
                      store.extend(next[k].size()));
            store.close_bucket(k);
          }
          ref = std::move(next);
          break;
        }
        case 1: {  // insert after every message with an ID <= its own
          if (m == 0) break;
          const std::size_t k = rng.below(m);
          const Msg msg{static_cast<std::uint32_t>(rng.below(20)),
                        static_cast<std::uint32_t>(rng.below(5))};
          store.insert(k, msg);
          ref[k].insert(std::upper_bound(ref[k].begin(), ref[k].end(), msg),
                        msg);
          break;
        }
        case 2: {  // retain: drop, keep or re-stamp each message, in order
          std::vector<std::uint64_t> actions;
          store.retain([&](std::size_t, Msg& msg) {
            actions.push_back(rng.below(3));
            if (actions.back() == 2) msg.content += 7;
            return actions.back() != 0;
          });
          std::size_t i = 0;
          for (auto& bucket : ref) {
            std::vector<Msg> kept;
            for (Msg msg : bucket) {
              const std::uint64_t action = actions.at(i++);
              if (action == 2) msg.content += 7;
              if (action != 0) kept.push_back(msg);
            }
            bucket = std::move(kept);
          }
          EXPECT_EQ(i, actions.size());
          break;
        }
        case 3: {  // edit a message through a bucket view
          if (m == 0) break;
          const std::size_t k = rng.below(m);
          if (ref[k].empty()) break;
          const std::size_t i = rng.below(ref[k].size());
          const auto content = static_cast<std::uint32_t>(rng.below(9));
          store[k][i].content = content;
          ref[k][i].content = content;
          break;
        }
        case 4: {  // one-pass layout of equal-width ID runs
          const std::uint32_t buckets = kBucketCounts[rng.below(10)];
          const auto first_id = static_cast<std::uint32_t>(1 + rng.below(9));
          const auto width = static_cast<std::uint32_t>(rng.below(5));
          const auto content = static_cast<std::uint32_t>(1 + rng.below(3));
          store.assign_runs(buckets, first_id, width, content);
          ref.assign(buckets, {});
          for (auto& bucket : ref) {
            for (std::uint32_t i = 0; i < width; ++i) {
              bucket.push_back({first_id + i, content});
            }
          }
          break;
        }
        case 5: {  // copy, then keep editing the copy
          const MsgStore copy = store;
          store = copy;
          break;
        }
      }
      expect_matches(store, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

/// dc_reset's message layout written the long way: clear, then one
/// extend/close_bucket round per bucket.
void reset_bucket_by_bucket(const Params& params, std::uint32_t rank,
                            MsgStore& msgs) {
  const std::uint32_t group = params.group_of(rank);
  const std::uint32_t m = params.group_size(group);
  const std::uint32_t ids = params.ids_per_rank(group);
  const std::uint32_t pos = params.rank_in_group(rank);
  const std::uint32_t slice = ids / m;
  const std::uint32_t lo = (pos - 1) * slice + 1;
  const std::uint32_t hi = pos == m ? ids : pos * slice;
  msgs.clear(m, static_cast<std::size_t>(m) * (hi + 1 - lo));
  for (std::uint32_t k = 0; k < m; ++k) {
    Msg* out = msgs.extend(hi + 1 - lo);
    for (std::uint32_t j = lo; j <= hi; ++j) *out++ = {j, 1};
    msgs.close_bucket(k);
  }
}

TEST(MsgStore, OnePassResetMatchesTheBucketByBucketRewrite) {
  // Every rank of groups of unequal size (n % r != 0), both
  // multiplicities, into a fresh store and over stores that held more and
  // fewer messages (a soft reset reuses the buffer).  Both
  // multiplicities give ids_per_rank a multiple of m, so the last
  // position's remainder is empty; it is still the last slice.
  const MsgStore larger(Nested(70, std::vector<Msg>(9, Msg{3, 3})));
  const MsgStore smaller(Nested{{Msg{1, 2}}});
  for (const auto mult :
       {MessageMultiplicity::kFaithful, MessageMultiplicity::kLight}) {
    for (const auto& [n, r] : {std::pair{13u, 4u}, std::pair{70u, 16u},
                               std::pair{50u, 8u}}) {
      const Params params = Params::make(n, r, mult);
      ASSERT_NE(params.group_size(0),
                params.group_size(params.num_groups() - 1))
          << "n = " << n << ", r = " << r << " has equal groups";
      for (std::uint32_t rank = 1; rank <= n; ++rank) {
        for (const MsgStore& before : {MsgStore(), larger, smaller}) {
          DcState s;
          s.msgs = before;
          dc_reset(params, rank, s);
          MsgStore expected = before;
          reset_bucket_by_bucket(params, rank, expected);
          ASSERT_EQ(s.msgs, expected) << "rank " << rank;
          ASSERT_EQ(s.msgs.heap_bytes(), expected.heap_bytes())
              << "rank " << rank;
        }
        const std::uint32_t group = params.group_of(rank);
        const std::uint32_t m = params.group_size(group);
        if (params.rank_in_group(rank) == m) {
          const DcState last = dc_initial_state(params, rank);
          EXPECT_EQ(last.msgs[m - 1].back().id, params.ids_per_rank(group));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ssle::core
