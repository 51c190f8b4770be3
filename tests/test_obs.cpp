// Observability layer: engine metrics reconciliation, the counts-native
// safety probe, the run journal, and the report envelope.
//
// The counter invariants documented in obs/metrics.hpp are pinned here on
// every engine:
//   * interactions_iterated + interactions_leapt == interactions;
//   * community_pair_draws == interactions on the community path;
//   * delta_cache_misses == delta_cache_entries while clears == 0.
// The counts-native safety probe must agree with the agent-vector predicate
// applied to to_states() of the same registry — the property that makes
// the fault runner's O(q) probes trustworthy.
#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/measure.hpp"
#include "analysis/trace.hpp"
#include "core/adversary.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "core/safety.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/community_counts.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace ssle {
namespace {

// ---------------------------------------------------------------------------
// EngineMetrics reconciliation, one engine at a time.
// ---------------------------------------------------------------------------

TEST(EngineMetrics, NaiveCountersReconcile) {
  pp::Epidemic proto{64};
  pp::Simulator<pp::Epidemic> sim(proto, 3);
  sim.step(500);
  const obs::EngineMetrics m = sim.metrics();
  EXPECT_STREQ(m.engine, "naive");
  EXPECT_EQ(m.interactions, 500u);
  EXPECT_EQ(m.interactions_iterated + m.interactions_leapt, m.interactions);
  EXPECT_EQ(m.interactions_leapt, 0u);
  // The naive engine has no registry and no block machinery.
  EXPECT_EQ(m.registry_live_states, 0u);
  EXPECT_EQ(m.blocks_dense + m.blocks_fenwick, 0u);
}

TEST(EngineMetrics, BatchedCountersReconcile) {
  pp::Epidemic proto{256};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, 5);
  sim.step(4000);
  const obs::EngineMetrics m = sim.metrics();
  EXPECT_STREQ(m.engine, "batched");
  EXPECT_EQ(m.interactions, 4000u);
  EXPECT_EQ(m.interactions_iterated + m.interactions_leapt, m.interactions);
  EXPECT_EQ(m.interactions_leapt, 0u);
  EXPECT_GT(m.blocks_dense + m.blocks_fenwick, 0u);
  // Registry: live ⊆ allocated ⊆ id space; the epidemic keeps q ≤ 2.
  EXPECT_GE(m.registry_live_states, 1u);
  EXPECT_LE(m.registry_live_states, m.registry_allocated_states);
  EXPECT_LE(m.registry_allocated_states, m.registry_capacity);
}

TEST(EngineMetrics, CommunityPairDrawsEqualInteractions) {
  pp::Epidemic proto{32};
  auto blocked = pp::BlockedTopology::islands(32, 4, 1.0, 0.1);
  pp::BatchedSimulator<pp::Epidemic,
                       pp::CommunityCountsConfiguration<pp::Epidemic>>
      sim(proto,
          pp::CommunityCountsConfiguration<pp::Epidemic>(proto,
                                                         std::move(blocked)),
          7);
  sim.step(600);
  const obs::EngineMetrics m = sim.metrics();
  EXPECT_STREQ(m.engine, "batched-community");
  EXPECT_EQ(m.interactions, 600u);
  EXPECT_EQ(m.community_pair_draws, m.interactions);
  EXPECT_EQ(m.interactions_iterated + m.interactions_leapt, m.interactions);
}

TEST(EngineMetrics, LeapingCountersReconcileUnderSplits) {
  // A tiny event cap forces the split path, so the reconciliation covers
  // leapt runs, iterated events, and recursive window splits at once.
  pp::Epidemic proto{512};
  pp::LeapingSimulator<pp::Epidemic> sim(proto, 11, /*event_cap=*/2);
  const auto result = sim.run_until(
      [](const pp::CountsConfiguration<pp::Epidemic>& c, std::uint64_t) {
        return c.count_of(0) == 0;
      },
      1u << 24);
  ASSERT_TRUE(result.converged);
  const obs::EngineMetrics m = sim.metrics();
  EXPECT_STREQ(m.engine, "leaping");
  EXPECT_EQ(m.interactions_iterated + m.interactions_leapt, m.interactions);
  EXPECT_GT(m.interactions_leapt, 0u);
  EXPECT_GT(m.leap_windows, 0u);
  EXPECT_GE(m.split_depth_max, 1u);
}

TEST(EngineMetrics, LeapWindowCountersOnlyOnTheLeapingEngine) {
  // A small cap against counts of ~2048 keeps the marginal band narrow
  // enough for the banded path, which then resolves some candidates one
  // by one.  The other engines have no windows.
  pp::Epidemic proto{4096};
  std::vector<int> half(4096, 0);
  std::fill(half.begin(), half.begin() + 2048, 1);
  pp::LeapingSimulator<pp::Epidemic> leap(
      proto, pp::CountsConfiguration<pp::Epidemic>(half), 17, /*event_cap=*/8);
  leap.step(2 * 4096);
  const obs::EngineMetrics m = leap.metrics();
  ASSERT_GT(m.banded_pieces, 0u);
  EXPECT_GT(m.leap_marginals, 0u);
  EXPECT_EQ(m.leap_cap_max, 8u);
  const std::string line = m.to_json().dump_line();
  EXPECT_NE(line.find("\"leap_marginals\":"), std::string::npos);
  EXPECT_NE(line.find("\"leap_cap_max\":8"), std::string::npos);

  pp::Simulator<pp::Epidemic> naive(proto, 3);
  naive.step(2 * 4096);
  pp::BatchedSimulator<pp::Epidemic> batched(proto, 3);
  batched.step(2 * 4096);
  for (const obs::EngineMetrics& other : {naive.metrics(), batched.metrics()}) {
    EXPECT_EQ(other.leap_marginals, 0u) << other.engine;
    EXPECT_EQ(other.leap_cap_max, 0u) << other.engine;
  }

  // merge() sums the marginals and keeps the largest cap.
  obs::EngineMetrics acc = m;
  acc.merge(m);
  EXPECT_EQ(acc.leap_marginals, 2 * m.leap_marginals);
  EXPECT_EQ(acc.leap_cap_max, 8u);
}

TEST(EngineMetrics, DeltaCacheCountersReconcile) {
  pp::Epidemic proto{64};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, 7, pp::BlockSampling::kAuto,
                                         pp::DeltaMemo::kEnabled);
  sim.step(2000);
  const obs::EngineMetrics m = sim.metrics();
  EXPECT_GT(m.delta_cache_hits + m.delta_cache_misses, 0u);
  EXPECT_EQ(m.delta_cache_entries, sim.delta_cache_size());
  // Every miss inserts one entry; equality holds until an invalidation.
  ASSERT_EQ(m.delta_cache_clears, 0u);
  EXPECT_EQ(m.delta_cache_entries, m.delta_cache_misses);
  EXPECT_GE(m.delta_cache_misses, m.delta_cache_entries);
}

TEST(EngineMetrics, ToJsonCarriesEngineAndCounters) {
  pp::Epidemic proto{16};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, 1);
  sim.step(64);
  const std::string line = sim.metrics().to_json().dump_line();
  EXPECT_NE(line.find("\"engine\":\"batched\""), std::string::npos);
  EXPECT_NE(line.find("\"interactions\":64"), std::string::npos);
}

TEST(EngineMetrics, ToJsonCarriesFlatCounters) {
  // blocks_flat outlived the flat block sampler as an always-0 field (the
  // benchmark still sums it); the live block counters are dense/Fenwick.
  pp::Epidemic proto{64};
  pp::BatchedSimulator<pp::Epidemic> dense(proto, 1, pp::BlockSampling::kDense);
  pp::BatchedSimulator<pp::Epidemic> fenwick(proto, 1,
                                             pp::BlockSampling::kFenwick);
  dense.step(500);
  fenwick.step(500);
  EXPECT_GT(dense.metrics().blocks_dense, 0u);
  EXPECT_GT(fenwick.metrics().blocks_fenwick, 0u);
  EXPECT_GT(fenwick.metrics().fenwick_samples, 0u);
  const std::string line = fenwick.metrics().to_json().dump_line();
  EXPECT_NE(line.find("\"blocks_dense\":0"), std::string::npos);
  EXPECT_NE(line.find("\"blocks_fenwick\":"), std::string::npos);
  EXPECT_NE(line.find("\"fenwick_samples\":"), std::string::npos);
  EXPECT_NE(line.find("\"blocks_flat\":0"), std::string::npos);
  // Schema version 2 removed the multi-shard engine's fields; 3 added the
  // leap window counters; 4 removed the flat sampler's scan-draw counter.
  EXPECT_EQ(obs::kMetricsSchemaVersion, 4);
  EXPECT_EQ(line.find("shard"), std::string::npos);
  EXPECT_EQ(line.find("scan_draws"), std::string::npos);
}

TEST(EngineMetrics, MergeSumsCountersAndTakesTheDepthMax) {
  obs::EngineMetrics a;
  a.engine = "batched";
  a.interactions = 100;
  a.blocks_fenwick = 3;
  a.delta_cache_hits = 7;
  a.split_depth_max = 2;
  obs::EngineMetrics b;
  b.engine = "leaping";
  b.interactions = 11;
  b.blocks_fenwick = 1;
  b.fenwick_samples = 5;
  b.split_depth_max = 6;

  obs::EngineMetrics m = a;
  m.merge(b);
  EXPECT_STREQ(m.engine, "batched");  // lhs label wins when set
  EXPECT_EQ(m.interactions, 111u);
  EXPECT_EQ(m.blocks_fenwick, 4u);
  EXPECT_EQ(m.delta_cache_hits, 7u);
  EXPECT_EQ(m.fenwick_samples, 5u);
  EXPECT_EQ(m.split_depth_max, 6u);  // max, not sum

  // An unlabeled accumulator adopts the first labeled operand — the
  // pattern a reduction over trials uses.
  obs::EngineMetrics acc;
  acc += a;
  acc += b;
  EXPECT_STREQ(acc.engine, "batched");
  EXPECT_EQ(acc.interactions, 111u);

  const obs::EngineMetrics sum = a + b;
  EXPECT_EQ(sum.interactions, 111u);
  EXPECT_EQ(sum.split_depth_max, 6u);
}

// ---------------------------------------------------------------------------
// Counts-native safety == agent-vector safety (the fault runner's probe).
// ---------------------------------------------------------------------------

TEST(CountsSafety, AgreesWithAgentVector) {
  const core::Params params = core::Params::make(16, 8);

  const pp::CountsConfiguration<core::ElectLeader> safe(
      core::make_safe_config(params));
  EXPECT_TRUE(core::is_safe_configuration(params, safe));
  EXPECT_TRUE(core::is_safe_configuration(params, safe.to_states()));

  std::uint64_t seed = 500;
  for (const auto corruption : core::all_corruptions()) {
    SCOPED_TRACE(core::corruption_name(corruption));
    util::Rng rng(seed++);
    const pp::CountsConfiguration<core::ElectLeader> counts(
        core::make_adversarial_config(params, corruption, rng));
    EXPECT_EQ(core::is_safe_configuration(params, counts),
              core::is_safe_configuration(params, counts.to_states()));
  }
}

// ---------------------------------------------------------------------------
// Journal: cadence gates and line-by-line JSONL validity.
// ---------------------------------------------------------------------------

// Minimal JSON acceptor (objects, arrays, strings, numbers, literals) —
// util::Json is write-only by design, so the "every line parses" claim is
// checked against the grammar directly.
struct JsonAcceptor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool string() {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  bool number() {
    skip_ws();
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                            s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                            s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    return i > start && std::isdigit(static_cast<unsigned char>(s[i - 1]));
  }
  bool literal(const char* word) {
    skip_ws();
    const std::size_t len = std::string(word).size();
    if (s.compare(i, len, word) != 0) return false;
    i += len;
    return true;
  }
  bool value() {
    skip_ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!string() || !eat(':') || !value()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!value()) return false;
    } while (eat(','));
    return eat(']');
  }
  bool document() {
    if (!value()) return false;
    skip_ws();
    return i == s.size();
  }
};

bool parses_as_json(const std::string& line) {
  JsonAcceptor acceptor{line};
  return acceptor.document();
}

TEST(Journal, InteractionCadenceGatesHeartbeats) {
  const std::string path = "test_obs_journal_cadence.jsonl";
  obs::Journal::Options opts;
  opts.path = path;
  opts.every_interactions = 100;
  opts.budget = 1000;
  opts.run = "test";
  obs::Journal journal(opts);

  obs::EngineMetrics m;
  m.engine = "naive";
  journal.tick(0, m);    // first tick always emits
  journal.tick(50, m);   // below the interaction gate: silent
  journal.tick(150, m);  // 150 ≥ 0 + 100: emits
  EXPECT_EQ(journal.events_emitted(), 2u);

  auto payload = util::Json::object();
  payload.set("note", "boundary");
  journal.event("marker", std::move(payload));  // events are unconditional
  EXPECT_EQ(journal.events_emitted(), 3u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    SCOPED_TRACE(line);
    ++lines;
    EXPECT_TRUE(parses_as_json(line));
    EXPECT_NE(line.find("\"v\":1"), std::string::npos);
    EXPECT_NE(line.find("\"run\":\"test\""), std::string::npos);
  }
  EXPECT_EQ(lines, 3u);
  in.close();
  std::remove(path.c_str());
}

TEST(Journal, HeartbeatCarriesProgressAndMetrics) {
  const std::string path = "test_obs_journal_fields.jsonl";
  obs::Journal::Options opts;
  opts.path = path;
  opts.budget = 500;
  obs::Journal journal(opts);

  pp::Epidemic proto{32};
  pp::BatchedSimulator<pp::Epidemic> sim(proto, 13);
  sim.step(250);
  journal.tick(sim.interactions(), sim.metrics());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_TRUE(parses_as_json(line));
  EXPECT_NE(line.find("\"kind\":\"heartbeat\""), std::string::npos);
  EXPECT_NE(line.find("\"interactions\":250"), std::string::npos);
  EXPECT_NE(line.find("\"budget\":500"), std::string::npos);
  EXPECT_NE(line.find("\"eta_s\":"), std::string::npos);
  EXPECT_NE(line.find("\"peak_rss_kb\":"), std::string::npos);
  EXPECT_NE(line.find("\"metrics\":{\"engine\":\"batched\""),
            std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(Journal, PeakRssIsPositiveOnUnix) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(obs::peak_rss_kb(), 0u);
#else
  GTEST_SKIP() << "no getrusage on this platform";
#endif
}

// ---------------------------------------------------------------------------
// Report envelope.
// ---------------------------------------------------------------------------

TEST(Report, EnvelopeCarriesVersionBenchAndSections) {
  obs::Report report("unit_bench", 8);
  report.set("n", std::uint64_t{16});
  auto rows = util::Json::array();
  rows.push(util::Json(1.5));
  report.section("rows", std::move(rows));

  const std::string line = report.to_json().dump_line();
  EXPECT_TRUE(parses_as_json(line));
  EXPECT_NE(line.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(line.find("\"bench\":\"unit_bench\""), std::string::npos);
  EXPECT_NE(line.find("\"pr\":8"), std::string::npos);
  EXPECT_NE(line.find("\"n\":16"), std::string::npos);
  EXPECT_NE(line.find("\"sections\":{\"rows\":[1.5]}"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ProbeOptions through stabilize: trace + journal + final metrics.
// ---------------------------------------------------------------------------

TEST(ProbeOptions, StabilizeFillsTraceJournalAndMetrics) {
  const core::Params params = core::Params::make(16, 4);
  analysis::Trace trace(params);
  const std::string path = "test_obs_probe_journal.jsonl";
  obs::Journal::Options opts;
  opts.path = path;
  obs::Journal journal(opts);

  analysis::ProbeOptions probes;
  probes.trace = &trace;
  probes.journal = &journal;
  probes.probe_every = params.n;

  const auto res = analysis::stabilize(
      analysis::StartKind::kAdversarial, params,
      core::all_corruptions().front(), 9,
      8 * analysis::default_budget(params), {}, probes);

  ASSERT_TRUE(res.converged);
  EXPECT_STREQ(res.metrics.engine, "naive");
  EXPECT_EQ(res.metrics.interactions, res.interactions);
  ASSERT_FALSE(trace.points().empty());
  // The probe grid saw the run end safe.
  EXPECT_TRUE(trace.first_safe().has_value());
  EXPECT_GE(journal.events_emitted(), 1u);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(parses_as_json(line)) << line;
  }
  EXPECT_EQ(lines, journal.events_emitted());
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ssle
