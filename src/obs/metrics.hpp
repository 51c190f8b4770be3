// Engine metrics: one uniform counter block behind every engine's
// `metrics()` accessor.
//
// Each engine already kept a handful of ad-hoc counters (block counts on
// the batched engine, leap statistics on the leaping engine); this struct
// is the superset, snapshotted by value, so callers — benches, the run
// journal (obs/journal.hpp), tests — observe every engine through ONE
// shape instead of per-engine accessor zoos.  Counters an engine has no
// notion of stay 0 (the naive engine has no registry; the batched engine
// never splits windows), and `engine` names which one produced the
// snapshot.
//
// The counters themselves are always on: each is a single uint64 increment
// on an operation that already costs O(log q) (a Fenwick point update, a
// δ-cache probe) or O(√n) (a block draw), so the instrumented engines stay
// within noise of their uninstrumented selves — bench_gates' obs gate
// checks that claim (< 3% on the memoized epidemic path).
//
// Invariants (pinned by tests/test_obs.cpp):
//   * interactions_iterated + interactions_leapt == interactions on every
//     engine (iterated = executed one at a time or inside a block;
//     leapt = consumed without iteration — leaping engine only);
//   * delta_cache_misses ≥ delta_cache_entries, with equality while
//     delta_cache_clears == 0 (every miss inserts one entry).
#pragma once

#include <cstdint>

#include "util/json.hpp"

namespace ssle::obs {

struct EngineMetrics {
  /// Producing engine: "naive", "batched", "leaping".
  const char* engine = "";

  // --- population ------------------------------------------------------
  /// Live population size n at snapshot time.  Static runs report the
  /// construction-time n; under churn (join/leave/dropout events,
  /// analysis/churn.hpp) this is the gauge that tracks the live value.
  /// merge() sums it, so merged parts total their populations.
  std::uint64_t population = 0;

  // --- interactions ----------------------------------------------------
  std::uint64_t interactions = 0;           ///< total scheduler slots consumed
  std::uint64_t interactions_iterated = 0;  ///< executed individually/in blocks
  std::uint64_t interactions_leapt = 0;     ///< jumped as null runs (leaping)

  // --- batched block machinery -----------------------------------------
  std::uint64_t blocks_dense = 0;           ///< dense-sampler blocks drawn
  std::uint64_t blocks_fenwick = 0;         ///< Fenwick-sampler blocks drawn
  /// Always 0: the batched engine has two block samplers (dense and
  /// Fenwick).  Kept because perfbench still sums it into its block count;
  /// a change to the benchmark can drop it.
  std::uint64_t blocks_flat = 0;
  std::uint64_t collision_resolutions = 0;  ///< colliding interactions resolved

  // --- counts registry (Fenwick + interner) ----------------------------
  std::uint64_t fenwick_point_updates = 0;  ///< tree_add/tree_sub calls
  std::uint64_t fenwick_samples = 0;        ///< sample_class descents
  std::uint64_t registry_live_states = 0;       ///< q (nonzero counts)
  std::uint64_t registry_allocated_states = 0;  ///< interned keys
  std::uint64_t registry_capacity = 0;          ///< id space extent
  std::uint64_t registry_compactions = 0;       ///< compact() calls
  std::uint64_t registry_version = 0;           ///< interner version bumps

  // --- δ-cache (deterministic-δ protocols) -----------------------------
  std::uint64_t delta_cache_hits = 0;
  std::uint64_t delta_cache_misses = 0;
  std::uint64_t delta_cache_clears = 0;   ///< invalidations (compaction)
  std::uint64_t delta_cache_entries = 0;  ///< current size

  // --- leap engine -----------------------------------------------------
  std::uint64_t leap_windows = 0;
  std::uint64_t leap_candidates = 0;
  std::uint64_t envelope_breaches = 0;  ///< window splits taken
  std::uint64_t split_depth_max = 0;    ///< deepest split recursion seen
  std::uint64_t banded_pieces = 0;      ///< pieces on the banded batch path
  std::uint64_t leap_marginals = 0;     ///< banded candidates resolved singly
  std::uint64_t leap_cap_max = 0;       ///< largest window event cap used

  /// Snapshot as a Json object (field names == member names; `engine`
  /// first).  Schema-stable: obs::kMetricsSchemaVersion names its version.
  util::Json to_json() const;

  /// Accumulates another snapshot into this one: every counter field sums,
  /// except split_depth_max and leap_cap_max (maxima, so they max) and
  /// engine (this snapshot's name wins unless it is still empty).  This is
  /// how callers aggregate across trials — summing is the right fold even
  /// for the gauge-like registry fields (live/allocated/capacity/entries),
  /// which become totals across the merged parts.
  EngineMetrics& merge(const EngineMetrics& other);
  EngineMetrics& operator+=(const EngineMetrics& other) {
    return merge(other);
  }
  friend EngineMetrics operator+(EngineMetrics lhs, const EngineMetrics& rhs) {
    lhs.merge(rhs);
    return lhs;
  }
};

/// Version of the EngineMetrics JSON field set.  Bump when fields are
/// renamed, removed or added.  3 added leap_marginals and leap_cap_max;
/// 4 removed the flat sampler's scan-draw counter; 5 removed the
/// batched engine's community-path pair-draw counter.
inline constexpr int kMetricsSchemaVersion = 5;

}  // namespace ssle::obs
