// Count-based configuration: the multiset view of C ∈ Q^n, in id space.
//
// The uniform scheduler is oblivious to agent identity and every protocol's
// transition depends only on the two interacting *states*, so the projection
// of the configuration onto state counts is itself a Markov chain
// (lumpability).  `CountsConfiguration<P>` is that projection:
//
//   * an interner-backed registry (pp/interner.hpp): distinct states live
//     once in the interner's arena, are hashed once when first seen, and
//     everything downstream — counts, the Fenwick tree, block samplers,
//     the batched engine's scratch multisets and memoized transition
//     cache — manipulates plain `std::uint32_t` class ids.  Ids are
//     STABLE: compact() releases dead (zero-count) ids back to the
//     interner's free list for reuse instead of re-indexing, so live ids
//     and all Fenwick sums survive compaction unchanged, and long churny
//     runs (adversarial starts, recovery cycles) cannot accumulate an
//     unbounded tail of dead classes;
//   * a Fenwick (binary indexed) tree over the counts: every add/remove
//     is an O(log q) point update, and `sample_class(pos)` resolves
//     "which class holds the pos-th agent in cumulative-count order" in
//     O(log q) by descending the tree.  That turns a uniform agent draw
//     (the primitive behind without-replacement block sampling and
//     adversarial churn) into a logarithmic operation instead of an O(q)
//     scan — the difference between O(q) and O(L·log q) per block for
//     registries with q ≈ n distinct states (ElectLeader_r);
//   * incremental live-count bookkeeping, so compaction decisions are
//     O(1) per block.
//
// The uniform-scheduler counts engines advance it (pp/batched_simulator.hpp,
// pp/leaping_simulator.hpp); at n = 10^6+ it replaces a multi-megabyte
// agent array with a handful of counters.  Other topologies keep per-agent
// identity and run on the naive engine (pp/graph.hpp).
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "pp/interner.hpp"
#include "pp/population.hpp"
#include "pp/protocol.hpp"

namespace ssle::pp {

/// The counts registry: state ↔ id interning, id → count bookkeeping, and
/// a Fenwick index over the counts.  A std::hash specialization of the
/// state enables the interner's O(1) id-table path (non-hashable states
/// fall back to a linear scan).
template <Protocol P>
class CountsConfiguration {
 public:
  using State = typename P::State;

  /// Clean initial configuration defined by the protocol.
  explicit CountsConfiguration(const P& protocol) {
    for (std::uint32_t i = 0; i < protocol.population_size(); ++i) {
      add(protocol.initial_state(i), 1);
    }
  }

  /// Projection of an explicit configuration (adversarial starts, interop).
  explicit CountsConfiguration(const std::vector<State>& states) {
    for (const State& s : states) add(s, 1);
  }

  explicit CountsConfiguration(const Population<P>& population)
      : CountsConfiguration(population.states()) {}

  /// Total number of agents n (the multiset cardinality).
  std::uint64_t population_size() const { return total_; }

  /// Registry extent: class ids live in [0, num_states()).  Includes
  /// reclaimed (free-list) slots awaiting reuse — the right bound for
  /// iterating or for sizing id-indexed scratch arrays.
  std::uint32_t num_states() const { return interner_.capacity(); }

  /// Number of currently interned states (excludes reclaimed slots;
  /// includes registered-but-zero-count entries until compact()).
  std::uint32_t num_allocated_states() const { return interner_.size(); }

  /// Number of registry entries with a nonzero count, tracked
  /// incrementally (so compaction decisions cost O(1), not O(q)).
  std::uint32_t num_live_states() const { return live_; }

  /// The protocol state class id idx stands for.
  const State& state(std::uint32_t idx) const { return interner_.state(idx); }
  std::uint64_t count(std::uint32_t idx) const { return counts_[idx]; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  const StateInterner<State>& interner() const { return interner_; }

  /// Bumped whenever compact() reclaims ids.  Caches keyed on class ids
  /// (e.g. the batched engine's memoized transition table) must be dropped
  /// when this changes — reclaimed ids may be reused for other states.
  std::uint64_t registry_version() const { return interner_.version(); }

  // --- lifetime operation counters (obs::EngineMetrics feeds) ----------
  // One uint64 increment per O(log q) tree operation: always on, within
  // noise of the uninstrumented registry (bench_gates' obs gate).
  /// Fenwick point updates executed (one per add_at/remove_at).
  std::uint64_t fenwick_updates() const { return fenwick_updates_; }
  /// Fenwick sampling descents executed (one per sample_class).
  std::uint64_t fenwick_samples() const { return fenwick_samples_; }
  /// compact() calls that ran.
  std::uint64_t compactions() const { return compactions_; }

  /// Count of a state, 0 if it was never registered.
  std::uint64_t count_of(const State& s) const {
    const std::uint32_t id = interner_.find(s);
    return id == StateInterner<State>::kNoId ? 0 : counts_[id];
  }

  /// Id of a state, registering it (with count 0) if new.  Stable until
  /// the id is reclaimed by compact().
  std::uint32_t index_of(const State& s) {
    const std::uint32_t id = interner_.intern(s);
    if (id >= counts_.size()) {
      counts_.push_back(0);
      tree_append();
    }
    return id;
  }

  /// Id of `s` when the caller already suspects it: if `hint` currently
  /// stands for a state equal to s, returns it without hashing — the fast
  /// path for "this interaction left the state unchanged", and the
  /// engines' re-interning hook for δ outputs.
  std::uint32_t index_of(const State& s, std::uint32_t hint) {
    if (interner_.allocated(hint) && s == interner_.state(hint)) return hint;
    return index_of(s);
  }

  /// Adds c agents in state s; returns the state's id.
  std::uint32_t add(const State& s, std::uint64_t c) {
    const std::uint32_t idx = index_of(s);
    add_at(idx, c);
    return idx;
  }

  /// Adds c agents to the already-registered state at idx.
  void add_at(std::uint32_t idx, std::uint64_t c) {
    if (counts_[idx] == 0 && c > 0) ++live_;
    counts_[idx] += c;
    total_ += c;
    tree_add(idx, c);
  }

  /// Removes c agents from the state at idx (c must not exceed the count).
  void remove_at(std::uint32_t idx, std::uint64_t c) {
    assert(counts_[idx] >= c);
    counts_[idx] -= c;
    total_ -= c;
    if (counts_[idx] == 0 && c > 0) --live_;
    tree_sub(idx, c);
  }

  // --- churn primitives (analysis/churn.hpp fault plans) ----------------
  // Population edits as first-class O(log q) operations: one interner
  // lookup (hash once, O(1) amortized) plus one Fenwick point update.
  // Ids stay stable across these — compact() reclaims dead ids through the
  // free list, never re-indexes — so a joining agent whose state id was
  // reclaimed and reused still lands on a valid, live slot.

  /// One agent joins the population in state s.  O(log q); returns the id
  /// the agent was filed under.  Population size grows by one — engines
  /// re-read population_size() per block, so the next block envelope and
  /// scheduler weights see the new n.
  std::uint32_t insert_agent(const State& s) { return add(s, 1); }

  /// One agent leaves the population from the class at idx (which must be
  /// live).  O(log q).  Removing the last agent of a class leaves a dead
  /// id for should_compact()/compact() to reclaim — bounded-allocation
  /// soak gates (bench_e2_churn --gate-soak) pin that this reclamation
  /// actually holds under sustained id churn.
  void remove_agent(std::uint32_t idx) { remove_at(idx, 1); }

  /// Total count of the registry entries [0, idx) — the cumulative rank of
  /// entry idx in registry order.  O(log q) via the Fenwick tree.
  std::uint64_t prefix_count(std::uint32_t idx) const {
    std::uint64_t sum = 0;
    for (std::uint32_t j = idx; j > 0; j -= j & (~j + 1u)) sum += tree_[j];
    return sum;
  }

  /// The class holding the pos-th agent (0-based) when agents are laid out
  /// in registry cumulative-count order: the unique idx with
  /// prefix_count(idx) <= pos < prefix_count(idx + 1).  Drawing
  /// pos uniformly from [0, population_size()) therefore samples a class
  /// with probability proportional to its count — a uniform agent draw —
  /// in O(log q) (Fenwick descent) instead of an O(q) scan.  Never returns
  /// a zero-count class.  Requires pos < population_size().
  std::uint32_t sample_class(std::uint64_t pos) const {
    assert(pos < total_);
    ++fenwick_samples_;
    std::uint32_t idx = 0;
    const auto size = static_cast<std::uint32_t>(tree_.size() - 1);
    for (std::uint32_t bit = std::bit_floor(size); bit != 0; bit >>= 1) {
      const std::uint32_t next = idx + bit;
      if (next <= size && tree_[next] <= pos) {
        idx = next;
        pos -= tree_[next];
      }
    }
    return idx;
  }

  /// Applies f(state, count) to every state with a nonzero count.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint32_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) f(interner_.state(i), counts_[i]);
    }
  }

  /// Number of agents whose state satisfies pred.
  template <typename Pred>
  std::uint64_t count_if(Pred&& pred) const {
    std::uint64_t c = 0;
    for (std::uint32_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0 && pred(interner_.state(i))) c += counts_[i];
    }
    return c;
  }

  /// Absolute dead-id bound for should_compact(): with q ≈ n live states
  /// (ElectLeader_r at n = 10^5+) the fraction rule alone would wait for
  /// dead ≥ live — stranding 10^5+ dead heavy states in the arena — so the
  /// policy also fires once this many dead ids accumulate.  Large enough
  /// that a compact()'s O(capacity) rebuild amortizes to O(1) per dead id
  /// at any capacity the engines reach.
  static constexpr std::uint32_t kCompactDeadAbsolute = 1u << 16;

  /// Compaction policy: whether the registry carries enough dead
  /// (zero-count) ids for compact() to be worth its O(capacity) rebuild.
  /// Fires on EITHER
  ///   * dead-id fraction — dead ids are at least half the allocation, so
  ///     compacting roughly halves the arena (the long-standing rule), OR
  ///   * dead-id count — at least kCompactDeadAbsolute dead ids, which
  ///     bounds the dead tail of huge live registries long before the
  ///     fraction rule's dead ≥ live threshold can trigger (long churny
  ///     runs: adversarial recovery cycles, fault-plan soaks).
  /// Tiny registries (< 32 allocations) never fire.  All inputs are O(1)
  /// incremental counters, so engines can ask once per block for free.
  bool should_compact() const {
    const std::uint32_t allocated = num_allocated_states();
    if (allocated < 32) return false;
    const std::uint32_t dead = allocated - live_;
    return 2 * live_ <= allocated || dead >= kCompactDeadAbsolute;
  }

  /// Releases every zero-count id to the interner's free list (it will be
  /// reused by future registrations) and trims trailing reclaimed slots.
  /// Live ids — and all their Fenwick sums — are untouched: no re-indexing
  /// happens, so previously obtained ids of live states stay valid.  Ids
  /// of dead states become invalid; registry_version() records that.
  void compact() {
    ++compactions_;
    interner_.reclaim([&](std::uint32_t id) { return counts_[id] == 0; });
    interner_.shrink();
    // Trailing reclaimed entries carried count 0, so truncating the counts
    // vector and the Fenwick tree loses no mass; a Fenwick node j only
    // aggregates entries with index < j, so the surviving prefix of the
    // tree is already exact.
    counts_.resize(interner_.capacity());
    tree_.resize(interner_.capacity() + 1);
  }

  /// Expands back to a flat configuration (state order is registry order;
  /// any agent labelling is valid because counts determine the dynamics).
  std::vector<State> to_states() const {
    std::vector<State> out;
    out.reserve(population_size());
    for_each([&](const State& s, std::uint64_t c) {
      for (std::uint64_t j = 0; j < c; ++j) out.push_back(s);
    });
    return out;
  }

  Population<P> to_population() const { return Population<P>(to_states()); }

 private:
  // Fenwick tree over counts_, 1-indexed (tree_[0] unused): tree_[j] holds
  // the sum of counts_[j - lowbit(j) .. j - 1].
  void tree_add(std::uint32_t idx, std::uint64_t c) {
    ++fenwick_updates_;
    const auto size = static_cast<std::uint32_t>(tree_.size() - 1);
    for (std::uint32_t j = idx + 1; j <= size; j += j & (~j + 1u)) {
      tree_[j] += c;
    }
  }

  void tree_sub(std::uint32_t idx, std::uint64_t c) {
    ++fenwick_updates_;
    const auto size = static_cast<std::uint32_t>(tree_.size() - 1);
    for (std::uint32_t j = idx + 1; j <= size; j += j & (~j + 1u)) {
      tree_[j] -= c;
    }
  }

  /// Extends the tree for a just-registered entry (count 0): the new node
  /// covers the trailing lowbit(j) entries, whose sum is a prefix
  /// difference — O(log q), so registering states stays cheap.
  void tree_append() {
    const auto j = static_cast<std::uint32_t>(counts_.size());
    const std::uint32_t lb = j & (~j + 1u);
    tree_.push_back(prefix_count(j - 1) - prefix_count(j - lb));
  }

  StateInterner<State> interner_;        ///< id ↔ state, hashed once
  std::vector<std::uint64_t> counts_;    ///< id → count (0 for free slots)
  std::vector<std::uint64_t> tree_{0};   ///< Fenwick tree over counts_
  std::uint64_t total_ = 0;
  std::uint32_t live_ = 0;  ///< number of nonzero counts_ entries

  // Operation counters (see the accessors above).  fenwick_samples_ is
  // mutable because sample_class is logically const — drawing observes,
  // never mutates, the multiset.
  std::uint64_t fenwick_updates_ = 0;
  mutable std::uint64_t fenwick_samples_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace ssle::pp
