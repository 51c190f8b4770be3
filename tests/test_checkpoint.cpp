// Checkpoint document codec + crash-safe resume bit-identity.
//
// The load-bearing claim (ISSUE 10 acceptance): checkpoint → restore into a
// fresh engine → continue, and the continuation is BIT-IDENTICAL to the
// saver's own continuation — registries counter-for-counter, RNG states
// word-for-word.  The document tests pin the strict parser (versioning,
// hex words, truncation) and the restore guards (engine/protocol/population
// mismatches, including checkpoints of engines that no longer exist).  The
// naive engine's agent-array checkpoint is held to the same continuation
// test.
#include "obs/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/churn.hpp"
#include "analysis/measure.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/snapshot.hpp"

namespace ssle::obs {
namespace {

using analysis::Engine;
using core::Params;

CheckpointDoc sample_doc() {
  CheckpointDoc doc;
  doc.engine = "batched";
  doc.protocol = "toy";
  doc.n = 7;
  doc.interactions = 123456789;
  // Words above int64 range: the hex codec must not degrade them.
  doc.rngs.push_back({0xdeadbeefcafef00dull, 1, 2, 0xffffffffffffffffull});
  doc.rngs.push_back({3, 4, 5, 6});
  doc.shards.push_back({{"a", 3}, {"b", 4}});
  auto cursor = util::Json::object();
  cursor.set("t", 17);
  doc.cursor = std::move(cursor);
  return doc;
}

TEST(CheckpointDoc, JsonRoundTrip) {
  const CheckpointDoc doc = sample_doc();
  const auto back = checkpoint_parse(checkpoint_dump(doc));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->engine, doc.engine);
  EXPECT_EQ(back->protocol, doc.protocol);
  EXPECT_EQ(back->n, doc.n);
  EXPECT_EQ(back->interactions, doc.interactions);
  EXPECT_EQ(back->rngs, doc.rngs);
  EXPECT_EQ(back->shards, doc.shards);
  ASSERT_TRUE(back->cursor.has_value());
}

TEST(CheckpointDoc, RejectsWrongKindAndVersion) {
  const CheckpointDoc doc = sample_doc();
  auto j = checkpoint_to_json(doc);
  j.set("kind", "something-else");
  EXPECT_FALSE(checkpoint_from_json(j).has_value());
  auto j2 = checkpoint_to_json(doc);
  j2.set("v", kCheckpointVersion + 1);
  EXPECT_FALSE(checkpoint_from_json(j2).has_value());
}

TEST(CheckpointDoc, RejectsTruncatedText) {
  const std::string text = checkpoint_dump(sample_doc());
  EXPECT_TRUE(checkpoint_parse(text).has_value());
  EXPECT_FALSE(checkpoint_parse(text.substr(0, text.size() / 2)).has_value());
  EXPECT_FALSE(checkpoint_parse("").has_value());
}

TEST(CheckpointDoc, HexCodecRoundTripsFullRange) {
  for (const std::uint64_t w :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x7fffffffffffffff},
        std::uint64_t{0x8000000000000000}, ~std::uint64_t{0}}) {
    const auto back = parse_hex_u64(hex_u64(w));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, w);
  }
  EXPECT_FALSE(parse_hex_u64("").has_value());
  EXPECT_FALSE(parse_hex_u64("12345").has_value());        // no 0x prefix
  EXPECT_FALSE(parse_hex_u64("0xnothex").has_value());
  EXPECT_FALSE(parse_hex_u64("0x12 4").has_value());
}

TEST(CheckpointDoc, RngStateCodecRejectsMalformedAndAllZero) {
  const std::array<std::uint64_t, 4> state{9, 8, 7, 0xabcdef0123456789ull};
  const auto back = rng_state_from_json(rng_state_to_json(state));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, state);
  // xoshiro's all-zero fixed point must never restore.
  EXPECT_FALSE(
      rng_state_from_json(rng_state_to_json({0, 0, 0, 0})).has_value());
  auto three = util::Json::array();
  three.push(hex_u64(1));
  three.push(hex_u64(2));
  three.push(hex_u64(3));
  EXPECT_FALSE(rng_state_from_json(three).has_value());
}

// --- engine-level restore guards ------------------------------------------

using Batched = pp::BatchedSimulator<core::ElectLeader>;

Batched::Config safe_config(const Params& p) {
  return Batched::Config(core::make_safe_config(p));
}

TEST(CheckpointRestore, GuardsRejectMismatchedDocuments) {
  const Params p = Params::make(16, 8);
  const core::ElectLeader protocol(p);
  Batched sim(protocol, safe_config(p), 42);
  sim.step(500);
  CheckpointDoc doc =
      make_checkpoint(sim, "elect_leader", core::snapshot_write_agent);

  const auto fresh = [&] {
    return Batched(protocol, safe_config(p), 1);
  };
  {
    Batched r = fresh();
    EXPECT_TRUE(
        restore_checkpoint(r, doc, "elect_leader", core::snapshot_read_agent));
  }
  {  // protocol label mismatch
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, doc, "other_protocol", core::snapshot_read_agent));
  }
  {  // engine kind mismatch
    CheckpointDoc bad = doc;
    bad.engine = "sharded:2";
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, bad, "elect_leader", core::snapshot_read_agent));
  }
  {  // population total inconsistent with the shard lists
    CheckpointDoc bad = doc;
    bad.n += 1;
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, bad, "elect_leader", core::snapshot_read_agent));
  }
  {  // a one-agent population, which no engine can step
    CheckpointDoc bad = doc;
    bad.shards[0] = {{bad.shards[0][0].first, 1}};
    bad.n = 1;
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, bad, "elect_leader", core::snapshot_read_agent));
  }
  {  // zero-count registry entry
    CheckpointDoc bad = doc;
    bad.shards[0][0].second = 0;
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, bad, "elect_leader", core::snapshot_read_agent));
  }
  {  // undecodable state stanza
    CheckpointDoc bad = doc;
    bad.shards[0][0].first = "not an agent stanza";
    Batched r = fresh();
    EXPECT_FALSE(
        restore_checkpoint(r, bad, "elect_leader", core::snapshot_read_agent));
  }
}

// --- bit-identical continuation -------------------------------------------

std::string tmp_path(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "ckpt_" + info->name() + "_" + name + ".json";
}

TEST(CheckpointRestore, BatchedContinuationIsBitIdentical) {
  const Params p = Params::make(64, 8);
  const core::ElectLeader protocol(p);
  Batched saver(protocol, safe_config(p), 7);
  saver.step(2500);

  const std::string path = tmp_path("batched");
  CheckpointDoc doc =
      make_checkpoint(saver, "elect_leader", core::snapshot_write_agent);
  ASSERT_TRUE(checkpoint_save(path, doc));
  const auto loaded = checkpoint_load(path);
  ASSERT_TRUE(loaded.has_value());

  Batched resumer(protocol, safe_config(p), 999);
  ASSERT_TRUE(restore_checkpoint(resumer, *loaded, "elect_leader",
                                 core::snapshot_read_agent));
  EXPECT_EQ(resumer.interactions(), saver.interactions());

  // Saver (continuing past its own checkpoint) and resumer must now follow
  // literally the same trajectory: compare full re-serializations — the
  // registry counter-for-counter, every RNG word, the interaction count.
  for (int leg = 0; leg < 4; ++leg) {
    saver.step(1000);
    resumer.step(1000);
    EXPECT_EQ(
        checkpoint_dump(make_checkpoint(saver, "elect_leader",
                                        core::snapshot_write_agent)),
        checkpoint_dump(make_checkpoint(resumer, "elect_leader",
                                        core::snapshot_write_agent)))
        << "diverged on leg " << leg;
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestore, NaiveContinuationIsBitIdentical) {
  // The naive engine's state is its agent array in index order; a resumer
  // built from a different population and seed must continue exactly as
  // the saver does, through population edits too.
  using Naive = pp::Simulator<core::ElectLeader>;
  const Params p = Params::make(64, 8);
  const core::ElectLeader protocol(p);
  const auto agents = core::make_safe_config(p);
  Naive saver(protocol, pp::Population<core::ElectLeader>(agents), 7);
  saver.step(2500);
  saver.remove_agent(3);
  saver.add_agent(protocol.initial_state(0));

  const std::string path = tmp_path("naive");
  const CheckpointDoc saved =
      make_checkpoint(saver, "elect_leader", core::snapshot_write_agent);
  ASSERT_TRUE(checkpoint_save(path, saved));
  const auto loaded = checkpoint_load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->engine, "naive");

  Naive resumer(protocol, pp::Population<core::ElectLeader>(agents), 999);
  resumer.remove_agent(0);
  ASSERT_TRUE(restore_checkpoint(resumer, *loaded, "elect_leader",
                                 core::snapshot_read_agent));
  EXPECT_EQ(resumer.interactions(), saver.interactions());
  Batched batched(protocol, safe_config(p), 1);
  EXPECT_FALSE(restore_checkpoint(batched, *loaded, "elect_leader",
                                  core::snapshot_read_agent));
  CheckpointDoc one_agent = *loaded;
  one_agent.shards[0].resize(1);
  one_agent.n = 1;
  EXPECT_FALSE(restore_checkpoint(resumer, one_agent, "elect_leader",
                                  core::snapshot_read_agent));

  for (int leg = 0; leg < 4; ++leg) {
    saver.step(1000);
    resumer.step(1000);
    EXPECT_EQ(
        checkpoint_dump(make_checkpoint(saver, "elect_leader",
                                        core::snapshot_write_agent)),
        checkpoint_dump(make_checkpoint(resumer, "elect_leader",
                                        core::snapshot_write_agent)))
        << "diverged on leg " << leg;
  }
  std::remove(path.c_str());
}

TEST(CheckpointRestore, NaiveCheckpointMidSilentPhaseResumesBitIdentically) {
  // Mid-silent-phase the naive engine's lane holds countdowns the agents
  // lack; the checkpoint must see them, and neither the save nor the
  // restore may move the run.  The reference is the same run as a plain
  // loop over an agent array.
  using Naive = pp::Simulator<core::ElectLeader>;
  const Params p = Params::make(64, 8);
  const core::ElectLeader protocol(p);
  Naive saver(protocol, 5);
  std::vector<core::Agent> plain =
      pp::Population<core::ElectLeader>(protocol).states();
  pp::UniformScheduler scheduler(p.n, util::substream(5, 1));
  util::Rng rng(util::substream(5, 2));
  const auto step_both = [&](Naive& sim, std::uint64_t count) {
    sim.step(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const pp::Pair pair = scheduler.next();
      protocol.interact(plain[pair.initiator], plain[pair.responder], rng);
    }
  };
  const auto all_silent = [&] {
    return std::all_of(plain.begin(), plain.end(), [](const auto& a) {
      return core::ElectLeader::lane_key(a) > 1;
    });
  };
  while (!all_silent()) {
    step_both(saver, p.n);
    ASSERT_LT(saver.interactions(), analysis::default_budget(p));
  }
  step_both(saver, 3 * p.n + 5);

  const std::string path = tmp_path("naive-silent");
  const CheckpointDoc saved =
      make_checkpoint(saver, "elect_leader", core::snapshot_write_agent);
  ASSERT_TRUE(checkpoint_save(path, saved));
  const auto loaded = checkpoint_load(path);
  ASSERT_TRUE(loaded.has_value());
  Naive resumer(protocol, 999);
  ASSERT_TRUE(restore_checkpoint(resumer, *loaded, "elect_leader",
                                 core::snapshot_read_agent));
  EXPECT_EQ(std::as_const(resumer).population().states(), plain);

  const auto dump = [](const Naive& sim) {
    return checkpoint_dump(
        make_checkpoint(sim, "elect_leader", core::snapshot_write_agent));
  };
  // On past the end of the silent phase, where a countdown the checkpoint
  // missed would change when agents turn verifier.
  for (int leg = 0; leg < 6 || all_silent(); ++leg) {
    const std::uint64_t count = leg % 2 == 0 ? p.n : 7;
    saver.step(count);
    step_both(resumer, count);
    ASSERT_EQ(dump(resumer), dump(saver)) << "leg " << leg;
    ASSERT_EQ(std::as_const(resumer).population().states(), plain)
        << "leg " << leg;
    ASSERT_LT(saver.interactions(), analysis::default_budget(p));
  }
  std::remove(path.c_str());
}

// --- resuming a fault-plan run ---------------------------------------------

// A checkpoint from the removed multi-shard engine ("sharded:2", two
// registry lists) must stop a resuming fault-plan run with exit 2, never be
// ignored or silently replaced by a fresh start.
TEST(CheckpointStabilizeDeath, RemovedEngineCheckpointExits) {
  const Params p = Params::make(16, 8);
  const core::ElectLeader protocol(p);
  Batched sim(protocol, safe_config(p), 42);
  sim.step(500);
  CheckpointDoc doc =
      make_checkpoint(sim, "elect_leader", core::snapshot_write_agent);
  doc.engine = "sharded:2";
  doc.shards.push_back({doc.shards[0].back()});
  doc.shards[0].pop_back();

  // A fault cursor consistent with the plan, so the resume gets past the
  // cursor checks to the engine restore.
  analysis::FaultPlan plan;
  plan.rules.push_back({analysis::FaultAction::kCorrupt,
                        analysis::FaultTiming::kPeriodic, 1000, 1});
  plan.horizon = 5000;
  plan.probe_every = 100;
  analysis::FaultCursor cursor;
  cursor.t = doc.interactions;
  cursor.fault_rng = {1, 2, 3, 4};
  cursor.next = {1000};
  doc.cursor = analysis::fault_cursor_to_json(cursor);

  analysis::FaultRunOptions opts;
  opts.checkpoint_path = tmp_path("removed_engine");
  opts.checkpoint_every = 1000;
  ASSERT_TRUE(checkpoint_save(opts.checkpoint_path, doc));
  EXPECT_EXIT(analysis::run_fault_plan(Engine::kBatched, p, plan, 1, opts),
              ::testing::ExitedWithCode(2), "does not restore");
  std::remove(opts.checkpoint_path.c_str());
}

}  // namespace
}  // namespace ssle::obs
