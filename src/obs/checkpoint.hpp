// Crash-safe checkpoints for the batched and naive engines: kill −9 at any
// point, resume to a bit-identical trajectory.
//
// A checkpoint is a versioned util::Json document holding everything the
// future of a run depends on: the population (batched: the registry
// multiset as (encoded-state, count) pairs in canonical id order; naive:
// the agent array in index order, one (encoded-state, 1) pair per agent),
// every RNG stream's raw 256-bit state, the interaction count, and — for
// fault-injection runs (analysis/churn.hpp) — the FaultPlan cursor (rule
// timers, battery, statistics so far), carried opaquely.
//
// Bit-identity on the batched engine rests on one discipline, implemented
// by pp/batched_simulator.hpp: canonicalize-then-serialize.  Registry id
// layout steers the trajectory
// (uniform draws resolve in registry cumulative order), and a restorer
// cannot reproduce interner free-list holes left by compact() — so at
// checkpoint time the live engine first rebuilds its registry into dense-id
// form and CONTINUES FROM THAT FORM.  Saver-continuation and restorer then
// run from literally identical state, which tests/test_checkpoint.cpp pins
// counter-for-counter and the CI soak smoke proves across a real kill −9.
// The naive engine needs no such step: its agent array is saved in order.
//
// Durability: checkpoint_save writes `path + ".tmp"`, flushes and fsyncs,
// then renames over `path` — POSIX rename is atomic, so a crash at any
// instant leaves either the old complete checkpoint or the new one, never
// a torn file.
//
// RNG words are serialized as "0x…" hex strings: util::Json stores integers
// as int64 and would silently degrade the upper half of the uint64 range
// to double (lossy); hex strings round-trip every word exactly.
//
// Engine op counters (block/cache/registry statistics) are process-local
// diagnostics, not state: they restart at zero on restore.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pp/batched_simulator.hpp"
#include "pp/simulator.hpp"
#include "util/json.hpp"

namespace ssle::obs {

/// Checkpoint format version.  Bump on any incompatible layout change;
/// checkpoint_from_json rejects versions it does not speak.
inline constexpr int kCheckpointVersion = 1;

/// The parsed/serializable checkpoint document.
struct CheckpointDoc {
  std::string engine;    ///< "batched" or "naive"; restore accepts only its own
  std::string protocol;  ///< caller-chosen label, checked on restore
  std::uint64_t n = 0;   ///< population size (consistency-checked)
  std::uint64_t interactions = 0;
  /// Raw RNG states in the producing engine's fixed order (see the
  /// engines' rng_states()).
  std::vector<std::array<std::uint64_t, 4>> rngs;
  /// The population as (encoded state, count) pairs: the batched registry
  /// in canonical id order, or the naive agent array in index order with
  /// count 1 each.  The format keeps it as a one-element array of such
  /// lists (the "shards" key of version 1); restore rejects any other
  /// length.
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> shards;
  /// Opaque fault-plan cursor (analysis/churn.hpp); absent for plain runs.
  std::optional<util::Json> cursor;
};

util::Json checkpoint_to_json(const CheckpointDoc& doc);
std::optional<CheckpointDoc> checkpoint_from_json(const util::Json& j);

/// Text forms (what the file holds): dump is to_json pretty-printed;
/// parse is strict — malformed text or wrong version yields nullopt.
std::string checkpoint_dump(const CheckpointDoc& doc);
std::optional<CheckpointDoc> checkpoint_parse(const std::string& text);

/// Atomic write-rename save.  Returns false (with a message on stderr) on
/// any I/O failure; the previous checkpoint at `path`, if any, survives.
bool checkpoint_save(const std::string& path, const CheckpointDoc& doc);

/// Loads and parses `path`; nullopt when the file is missing or malformed.
std::optional<CheckpointDoc> checkpoint_load(const std::string& path);

/// Formats one RNG state as the 4 hex-string words the document stores.
util::Json rng_state_to_json(const std::array<std::uint64_t, 4>& state);

/// Parses the 4-hex-word array back; nullopt on any malformation and on
/// the all-zero state (a fixed point xoshiro256** can never reach).
std::optional<std::array<std::uint64_t, 4>> rng_state_from_json(
    const util::Json& j);

/// The uint64 ↔ "0x%016x" codec the document uses wherever a value may
/// exceed int64 range (util::Json would degrade it to a lossy double).
std::string hex_u64(std::uint64_t w);
std::optional<std::uint64_t> parse_hex_u64(const std::string& s);

// --- engine-facing helpers ------------------------------------------------
// `encode` maps a protocol State to its string key (must be injective);
// `decode` maps the string back, returning std::optional<State> (nullopt on
// malformed input).  core::snapshot_write_agent/snapshot_read_agent are the
// ElectLeader_r pair; integer-state protocols use decimal strings.

/// Canonicalizes the engine (the continuation runs from the serialized
/// form — that is what makes resume bit-identical) and captures it.
template <pp::Protocol P, typename Enc>
CheckpointDoc make_checkpoint(pp::BatchedSimulator<P>& sim,
                              const std::string& protocol_label,
                              Enc&& encode) {
  sim.canonicalize();
  CheckpointDoc doc;
  doc.engine = "batched";
  doc.protocol = protocol_label;
  doc.n = sim.config().population_size();
  doc.interactions = sim.interactions();
  doc.rngs = sim.rng_states();
  doc.shards.emplace_back();
  sim.config().for_each([&](const typename P::State& s, std::uint64_t c) {
    doc.shards.back().emplace_back(encode(s), c);
  });
  return doc;
}

/// Restores `doc` into `sim`, a fresh engine constructed with any
/// population (n >= 2), whose configuration the restore replaces.  Re-adds
/// the (state, count) list in serialized order — reproducing the saver's
/// canonical dense ids — then installs RNG states and the
/// interaction count.  Returns false, leaving the engine unusable, on any
/// mismatch: engine kind, protocol label, undecodable state, population
/// total, a population below 2 (no engine runs one), RNG arity.
template <pp::Protocol P, typename Dec>
bool restore_checkpoint(pp::BatchedSimulator<P>& sim,
                        const CheckpointDoc& doc,
                        const std::string& protocol_label, Dec&& decode) {
  if (doc.engine != "batched" || doc.protocol != protocol_label) return false;
  if (doc.shards.size() != 1) return false;
  typename pp::BatchedSimulator<P>::Config cfg{
      std::vector<typename P::State>{}};
  for (const auto& [enc, c] : doc.shards[0]) {
    const auto s = decode(enc);
    if (!s || c == 0) return false;
    cfg.add(*s, c);
  }
  if (cfg.population_size() != doc.n || doc.n < 2) return false;
  sim.config() = std::move(cfg);
  sim.canonicalize();  // idempotent here; sizes block scratch to the registry
  if (!sim.set_rng_states(doc.rngs)) return false;
  sim.set_interactions(doc.interactions);
  return true;
}

/// Captures a naive engine: the agent array in index order, its two RNG
/// streams and the interaction count.
template <pp::Protocol P, typename Enc>
CheckpointDoc make_checkpoint(const pp::Simulator<P>& sim,
                              const std::string& protocol_label,
                              Enc&& encode) {
  CheckpointDoc doc{.engine = "naive",
                    .protocol = protocol_label,
                    .n = sim.population().size(),
                    .interactions = sim.interactions(),
                    .rngs = sim.rng_states(),
                    .shards = {{}},
                    .cursor = std::nullopt};
  for (const auto& s : sim.population().states()) {
    doc.shards[0].emplace_back(encode(s), 1);
  }
  return doc;
}

/// Restores `doc` into a naive engine, replacing its agent array.  Returns
/// false on the same mismatches as the batched restore, and on an entry
/// whose count is not 1.
template <pp::Protocol P, typename Dec>
bool restore_checkpoint(pp::Simulator<P>& sim, const CheckpointDoc& doc,
                        const std::string& protocol_label, Dec&& decode) {
  if (doc.engine != "naive" || doc.protocol != protocol_label) return false;
  if (doc.shards.size() != 1 || doc.shards[0].size() != doc.n) return false;
  if (doc.n < 2) return false;
  std::vector<typename P::State> agents;
  for (const auto& [enc, c] : doc.shards[0]) {
    auto s = decode(enc);
    if (!s || c != 1) return false;
    agents.push_back(std::move(*s));
  }
  if (!sim.set_rng_states(doc.rngs)) return false;
  sim.set_agents(std::move(agents));
  sim.set_interactions(doc.interactions);
  return true;
}

}  // namespace ssle::obs
