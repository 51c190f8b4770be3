// Batched count-based simulation engine.
//
// The naive Simulator advances one interaction at a time over a length-n
// agent array; at n = 10^6+ every interaction costs two random-access cache
// misses.  BatchedSimulator instead advances the CountsConfiguration (the
// exact Markov projection of the configuration, see pp/counts.hpp) a whole
// *collision-free block* at a time:
//
//   1. Sample T, the index of the first interaction that reuses an agent
//      already touched in this block (inverse-transform over the exact
//      birthday survival probabilities ∏ (n-2t)(n-2t-1)/(n(n-1))).
//   2. The L = T-1 collision-free interactions involve 2L *distinct* agents
//      drawn uniformly without replacement.  Two interchangeable, exact
//      samplers realize that draw (selected per block, see BlockSampling):
//        * dense: the 2L states are a multivariate hypergeometric draw
//          from the counts; splitting them into initiators/responders and
//          matching the two multisets are again sequential hypergeometric
//          draws.  Each ordered state-pair type (A, B) with multiplicity m
//          is then applied m times — or exactly once, with the counts
//          updated in bulk, for kDeterministicDelta protocols.
//          Cost: O(q) per block for the registry scan plus O(L·min(L, q))
//          matching — ideal when q ≪ n (few live states, e.g. epidemics).
//        * Fenwick: agents are drawn one at a time through the registry's
//          Fenwick index (pp/counts.hpp), consecutive draws pairing up as
//          (initiator, responder) — exactly the scheduler's conditional
//          law given no collision.  Cost: O(L·log q) per block with no
//          O(q) term anywhere, which is what keeps q ≈ n registries
//          (ElectLeader_r once identifiers/ranks spread) from paying an
//          O(q/√n) = O(√n) tax on every interaction.
//   3. The colliding interaction T is executed individually: conditioned on
//      "at least one participant was already used", the pair is sampled
//      from the tracked used/unused multisets, which is exact because agent
//      identities are exchangeable given the counts.
//
// Per-interaction cost is where the engine lives or dies at q ≈ n, so the
// hot loop runs entirely in interned id space (pp/interner.hpp):
//
//   * kDeterministicDelta protocols route every transition through a
//     memoized (id, id) → (id, id) DeltaCache (pp/delta_cache.hpp): a hit
//     skips the δ call, both state copies and both hashes, leaving only
//     the O(log q) Fenwick updates.  The cache is exact — δ is a pure
//     function of the two classes — and is invalidated whenever compact()
//     reclaims ids.  `DeltaMemo::kDisabled` pins the uncached path; cached
//     and uncached runs are bit-identical (δ consumes no randomness and
//     the id sequences agree), which tests/test_delta_cache.cpp checks.
//   * Randomized protocols still call δ, but into persistent scratch
//     states (copy-assign reuses the scratch's heap buffers instead of
//     re-allocating per interaction), and re-intern outputs through the
//     registry's hinted fast path: an unchanged output costs one equality
//     check; a changed one is hashed once by the interner.
//
// Blocks are stopping times of the counts chain, so chaining them (and
// truncating a block at a probe boundary) reproduces the sequential
// process's distribution exactly — BatchedSimulator and Simulator are
// statistically indistinguishable, which tests/test_batched_simulator.cpp
// checks empirically, for both block samplers.  The dense sampler draws
// different randomness from the scheduler stream than the Fenwick one, so
// switching between them changes per-seed trajectories and equivalence is
// statistical.  Expected block length is L = Θ(√n).
//
// The API mirrors Simulator (`step`, `run_until`, RunResult, probe
// semantics); predicates observe the CountsConfiguration instead of the
// Population.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/counts.hpp"
#include "pp/delta_cache.hpp"
#include "pp/protocol.hpp"
#include "pp/scheduler.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace ssle::pp {

/// How a block's 2L collision-free agents are sampled from the registry.
/// kAuto picks per block: Fenwick when the registry scan would dominate
/// (q large relative to L·log q), dense otherwise.  kDense / kFenwick pin
/// one path — the tests law-check each sampler against the naive engine
/// through them; both are exact.
enum class BlockSampling { kAuto, kDense, kFenwick };

/// Whether a kDeterministicDelta protocol's transitions go through the
/// memoized DeltaCache.  kDisabled pins the uncached path (A/B benches,
/// bit-identical-determinism tests); ignored for randomized protocols.
enum class DeltaMemo { kEnabled, kDisabled };

/// Exact draw from Hypergeometric(total, successes, draws): the number of
/// "success" items in `draws` draws without replacement from a population
/// of `total` items containing `successes` successes.  Mode-centered
/// inverse transform; expected O(σ) work.
std::uint64_t sample_hypergeometric(util::Rng& rng, std::uint64_t total,
                                    std::uint64_t successes,
                                    std::uint64_t draws);

/// Exact multivariate hypergeometric draw: out[i] items of class i when
/// drawing `draws` items without replacement from class sizes `counts`.
/// `out` is resized to counts.size(); Σ out == draws.
void sample_multivariate_hypergeometric(util::Rng& rng,
                                        const std::vector<std::uint64_t>& counts,
                                        std::uint64_t draws,
                                        std::vector<std::uint64_t>& out);

/// Which sides of a block's colliding interaction come from the used pool:
/// conditioned on "at least one participant used", the ordered pair is
/// (used, used) / (used, unused) / (unused, used) with weights
/// u(u-1) / u·x / x·u.  Shared by both batched samplers — this is
/// exactness-critical probability code and must never diverge between the
/// paths.
std::pair<bool, bool> pick_collision_sides(util::Rng& rng,
                                           std::uint64_t used_total,
                                           std::uint64_t unused_total);

/// First-collision block-length sampler of the uniform-pair block engine:
/// the log-survival table of the birthday process over n agents, plus the
/// inverse-transform draw.  Blocks are
/// stopping times of the counts chain, so any engine that draws its block
/// lengths from this law and realizes the conditional in-block pair
/// process exactly reproduces the sequential scheduler's distribution.
class BlockLengthSampler {
 public:
  /// Builds log P(T > t), the log-survival of the first-collision time T,
  /// at every t: ∏_{s<t} (n-2s)(n-2s-1)/(n(n-1)).  Entries stop below
  /// -40 < log(2^-53), the log of the smallest positive value real() can
  /// produce, so every inverse-transform draw resolves inside the table.
  /// Length is Θ(√n).  Interactions conserve agents, so a static run
  /// builds once — but churn (join/leave, analysis/churn.hpp) changes n
  /// between blocks, and the survival law depends on n, so engines ask
  /// ready_for(n) per block and rebuild on a population change (Θ(√n),
  /// paid only when n actually moved).
  void build(std::uint64_t n) {
    built_for_ = n;
    const double log_denom = std::log(static_cast<double>(n)) +
                             std::log(static_cast<double>(n - 1));
    log_survival_.clear();
    log_survival_.push_back(0.0);  // P(T > 0) = 1
    double acc = 0.0;
    for (std::uint64_t t = 0; acc > -40.0; ++t) {
      const std::uint64_t used = 2 * t;
      if (n < used + 2) break;  // survival hits exactly 0: all agents used
      acc += std::log(static_cast<double>(n - used)) +
             std::log(static_cast<double>(n - used - 1)) - log_denom;
      log_survival_.push_back(acc);
    }
  }

  bool ready() const { return !log_survival_.empty(); }

  /// Whether the table describes the birthday process over exactly n
  /// agents — false after a join/leave changed the population.
  bool ready_for(std::uint64_t n) const {
    return !log_survival_.empty() && built_for_ == n;
  }

  struct Draw {
    std::uint64_t length;  ///< L, the collision-free prefix (≤ cap)
    bool collided;         ///< whether a colliding interaction ends the block
  };

  /// One inverse-transform draw of the first-collision time, capped at
  /// `cap` interactions: T is the smallest t with log P(T > t) ≤ log u,
  /// L = T - 1 (T ≥ 2 always: the first step cannot collide).  Not finding
  /// T within the first cap entries means the block is cut collision-free
  /// at the cap.  Consumes exactly one rng.real().
  Draw draw(util::Rng& rng, std::uint64_t cap) const {
    std::uint64_t L = cap;
    bool collided = false;
    double u = rng.real();
    if (u <= 0.0) u = 0x1.0p-53;  // real() granularity; log(0) guard
    const double lu = std::log(u);
    const auto begin = log_survival_.begin();
    // Search indices t = 0 .. min(cap, last table index).
    const std::size_t entries =
        static_cast<std::size_t>(
            std::min<std::uint64_t>(cap, log_survival_.size() - 1)) + 1;
    const auto end = begin + entries;
    const auto it = std::lower_bound(
        begin, end, lu, [](double s, double target) { return s > target; });
    if (it != end) {
      // Found the first t ≤ cap with S_t ≤ u: collision at step t.
      collided = true;
      L = static_cast<std::uint64_t>(it - begin) - 1;
    } else if (cap >= log_survival_.size()) {
      // The whole table survived the draw but the process walked off its
      // end, where survival is exactly 0 (all agents used): the very next
      // step must collide.
      collided = true;
      L = log_survival_.size() - 1;
    }
    return {L, collided};
  }

 private:
  std::vector<double> log_survival_;  ///< log P(first collision > t), Θ(√n)
  std::uint64_t built_for_ = 0;       ///< the n the table was built for
};

/// A configuration the batched engine can advance *exactly*: a counts
/// projection that is itself a Markov chain (a lumping of the agent-level
/// process).  Two families qualify — `CountsConfiguration` (uniform
/// scheduling: every ordered pair equally likely; `kUniformPairs = true`,
/// the birthday-block machinery applies) and `CommunityCountsConfiguration`
/// (blocked topologies lifted to (community, state) counts; the engine
/// takes its exact per-interaction community path).  Arbitrary graphs do
/// NOT qualify — their counts projection is not Markov — and must run on
/// the naive pp::Simulator; analysis::epidemic_convergence routes them
/// there at runtime (analysis/measure.hpp) instead of surfacing this
/// concept's compile-time wall to end users.
template <typename C, typename P>
concept LumpableTopology =
    Protocol<P> &&
    requires(C& c, const C& cc, std::uint32_t id, std::uint64_t k,
             const typename P::State& s) {
      { C::kUniformPairs } -> std::convertible_to<bool>;
      { cc.population_size() } -> std::convertible_to<std::uint64_t>;
      { cc.num_states() } -> std::convertible_to<std::uint32_t>;
      { cc.num_allocated_states() } -> std::convertible_to<std::uint32_t>;
      { cc.num_live_states() } -> std::convertible_to<std::uint32_t>;
      { cc.count(id) } -> std::convertible_to<std::uint64_t>;
      { cc.registry_version() } -> std::convertible_to<std::uint64_t>;
      { cc.fenwick_updates() } -> std::convertible_to<std::uint64_t>;
      { cc.fenwick_samples() } -> std::convertible_to<std::uint64_t>;
      { cc.compactions() } -> std::convertible_to<std::uint64_t>;
      { cc.state(id) } -> std::convertible_to<const typename P::State&>;
      { c.index_near(s, id) } -> std::convertible_to<std::uint32_t>;
      c.add_at(id, k);
      c.remove_at(id, k);
      c.compact();
    };

template <Protocol P, typename ConfigT = CountsConfiguration<P>>
  requires LumpableTopology<ConfigT, P>
class BatchedSimulator {
 public:
  using State = typename P::State;
  using Config = ConfigT;
  using Predicate =
      std::function<bool(const Config&, std::uint64_t /*interactions*/)>;

  BatchedSimulator(const P& protocol, Config config, std::uint64_t seed,
                   BlockSampling sampling = BlockSampling::kAuto,
                   DeltaMemo memo = DeltaMemo::kEnabled)
      : protocol_(protocol),
        config_(std::move(config)),
        rng_(util::substream(seed, 1)),
        agent_rng_(util::substream(seed, 2)),
        sampling_(sampling),
        memo_(memo) {
    require_population("batched", config_.population_size());
  }

  BatchedSimulator(const P& protocol, std::uint64_t seed,
                   BlockSampling sampling = BlockSampling::kAuto,
                   DeltaMemo memo = DeltaMemo::kEnabled)
      : BatchedSimulator(protocol, Config(protocol), seed, sampling, memo) {}

  /// Executes exactly `count` interactions.  With fewer than two agents
  /// (left by churn: the constructor requires n >= 2) no pair exists and
  /// no interaction can change the configuration; steps are counted (so
  /// run_until terminates) but are no-ops.
  ///
  /// Uniform configurations advance in collision-free blocks.  Community
  /// configurations advance one exact interaction at a time: the birthday
  /// survival law behind the block machinery assumes every ordered pair is
  /// equally likely, whereas under community weighting the collision
  /// probability at in-block step t depends on *which* communities the
  /// first t pairs hit — a trajectory-dependent quantity no precomputed
  /// table captures.  The per-interaction path still runs entirely in
  /// (community, state) id space with the shared δ-cache/scratch
  /// machinery, so it is O(log q + q_c) per interaction independent of n —
  /// the lumping is what buys feasibility at n = 10^6+, not blocking.
  void step(std::uint64_t count = 1) {
    if (config_.population_size() < 2) {
      interactions_ += count;
      return;
    }
    if constexpr (Config::kUniformPairs) {
      std::uint64_t done = 0;
      while (done < count) {
        done += run_block(count - done);
        maybe_compact();
      }
    } else {
      for (std::uint64_t t = 0; t < count; ++t) step_community();
      maybe_compact();
    }
    interactions_ += count;
  }

  /// Same contract as Simulator::run_until: probes at multiples of
  /// `probe_every` interactions (default n), plus once up front.
  RunResult run_until(const Predicate& done, std::uint64_t max_interactions,
                      std::uint64_t probe_every = 0) {
    if (probe_every == 0) {
      probe_every = std::max<std::uint64_t>(1, config_.population_size());
    }
    if (done(config_, interactions_)) {
      return {interactions_, true};
    }
    const std::uint64_t limit = budget_limit(interactions_, max_interactions);
    while (interactions_ < limit) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(probe_every, limit - interactions_);
      step(chunk);
      if (done(config_, interactions_)) {
        return {interactions_, true};
      }
    }
    return {interactions_, false};
  }

  std::uint64_t interactions() const { return interactions_; }
  Config& config() { return config_; }
  const Config& config() const { return config_; }
  const P& protocol() const { return protocol_; }

  /// How many blocks each sampler ran (benchmarks report which path a
  /// workload actually exercised; tests pin kAuto's choice down).
  std::uint64_t dense_blocks() const { return dense_blocks_; }
  std::uint64_t fenwick_blocks() const { return fenwick_blocks_; }

  /// Memoized-transition statistics (kDeterministicDelta protocols with
  /// DeltaMemo::kEnabled only; all zero otherwise).
  std::uint64_t delta_cache_hits() const { return cache_hits_; }
  std::uint64_t delta_cache_misses() const { return cache_misses_; }
  std::size_t delta_cache_size() const { return delta_cache_.size(); }
  /// Cache invalidations taken (one per compaction that reclaimed ids
  /// while the memoized path was active).
  std::uint64_t delta_cache_clears() const { return cache_clears_; }

  /// Colliding interactions resolved individually (block path), and
  /// ordered community pairs drawn (community path; equals interactions()
  /// there — every interaction draws exactly one pair when n ≥ 2).
  std::uint64_t collision_resolutions() const { return collisions_; }
  std::uint64_t community_pair_draws() const { return community_draws_; }

  /// Uniform engine-metrics snapshot (obs/metrics.hpp): the engine's own
  /// counters plus the registry's.  O(1) — counters are always on.
  obs::EngineMetrics metrics() const {
    obs::EngineMetrics m;
    m.engine = Config::kUniformPairs ? "batched" : "batched-community";
    m.population = config_.population_size();
    m.interactions = interactions_;
    m.interactions_iterated = interactions_;
    m.blocks_dense = dense_blocks_;
    m.blocks_fenwick = fenwick_blocks_;
    m.collision_resolutions = collisions_;
    m.community_pair_draws = community_draws_;
    m.fenwick_point_updates = config_.fenwick_updates();
    m.fenwick_samples = config_.fenwick_samples();
    m.registry_live_states = config_.num_live_states();
    m.registry_allocated_states = config_.num_allocated_states();
    m.registry_capacity = config_.num_states();
    m.registry_compactions = config_.compactions();
    m.registry_version = config_.registry_version();
    m.delta_cache_hits = cache_hits_;
    m.delta_cache_misses = cache_misses_;
    m.delta_cache_clears = cache_clears_;
    m.delta_cache_entries = delta_cache_.size();
    return m;
  }

  // --- checkpoint/resume support (obs/checkpoint.hpp) --------------------
  //
  // A checkpoint must pin the engine's FUTURE trajectory bit-for-bit, and
  // the trajectory depends on registry id layout (uniform positions resolve
  // through registry cumulative order), which a restore cannot reproduce
  // when the saver's interner carries free-list holes from compact().  The
  // discipline is therefore canonicalize-THEN-serialize: the saver rebuilds
  // its registry into dense-id form (ids 0..q-1 in live-id order, no holes)
  // and KEEPS RUNNING from that form, so the continuation and a restorer
  // that re-adds the serialized (state, count) list in order are in
  // literally identical state.  Engine op counters (blocks, cache stats,
  // registry counters) are process-local diagnostics and restart at zero on
  // restore; interactions() and the RNG streams are part of the state.

  /// Rebuilds the registry into canonical dense-id form and drops every
  /// id-keyed cache (δ-memo, block scratch).  O(q).  The counts multiset —
  /// and hence the law — is unchanged; only id labels move, exactly as the
  /// restorer will lay them out.  Uniform configurations only (the
  /// community lifting checkpoints are not supported).
  void canonicalize()
    requires Config::kUniformPairs
  {
    Config fresh{std::vector<State>{}};
    config_.for_each(
        [&](const State& s, std::uint64_t c) { fresh.add(s, c); });
    config_ = std::move(fresh);
    delta_cache_.clear();
    used_.assign(config_.num_states(), 0);
    touched_.clear();
  }

  /// The engine's RNG streams, in a fixed order the restorer relies on:
  /// [scheduler rng_, transition agent_rng_].
  std::vector<std::array<std::uint64_t, 4>> rng_states() const {
    return {rng_.state(), agent_rng_.state()};
  }

  /// Restores the streams saved by rng_states(); false on arity mismatch.
  bool set_rng_states(
      const std::vector<std::array<std::uint64_t, 4>>& states) {
    if (states.size() != 2) return false;
    rng_.set_state(states[0]);
    agent_rng_.set_state(states[1]);
    return true;
  }

  void set_interactions(std::uint64_t t) { interactions_ = t; }

 private:
  /// One exact interaction of the community-weighted pair law
  /// (pp/graph.hpp): ordered community pair (a, b) from the closed-form
  /// edge-weight table, then a uniform agent (≡ count-proportional class)
  /// draw within each community — removing the initiator before the
  /// responder draw makes the a = b case without-replacement
  /// automatically.  δ application reuses the block engine's collision
  /// machinery (memoized id-space transitions, hinted re-interning).
  void step_community()
    requires(!Config::kUniformPairs)
  {
    ++community_draws_;
    const auto [a, b] = config_.sample_community_pair(rng_);
    const std::uint32_t ia =
        config_.sample_class_in(a, rng_.below(config_.community_size(a)));
    config_.remove_at(ia, 1);
    const std::uint32_t ib =
        config_.sample_class_in(b, rng_.below(config_.community_size(b)));
    config_.remove_at(ib, 1);
    apply_collision(ia, ib);
  }

  /// Runs one block of at most `cap` interactions; returns how many ran.
  std::uint64_t run_block(std::uint64_t cap) {
    const std::uint64_t n = config_.population_size();

    // 1. First-collision time T (shared BlockLengthSampler): L is the
    // collision-free prefix; not finding T within the first cap entries
    // means the block is cut collision-free at the cap.  Churn edits the
    // configuration between blocks (never inside one), so re-checking the
    // table's n here is all the engine needs to track a live population.
    if (!block_length_.ready_for(n)) block_length_.build(n);
    const auto [L, collided] = block_length_.draw(rng_, cap);

    const std::uint32_t q = config_.num_states();
    if (use_fenwick_block(q, L)) {
      ++fenwick_blocks_;
      run_block_fenwick(n, L, collided);
    } else {
      ++dense_blocks_;
      run_block_dense(n, L, collided);
    }
    return L + (collided ? 1 : 0);
  }

  /// The Fenwick path beats the dense registry scan when q is large
  /// relative to the block: the dense path pays a heavyweight
  /// hypergeometric evaluation per visited class, the Fenwick path ~2L tree
  /// descents of ~log2 q steps.  The factor 2 biases toward the dense path,
  /// which additionally enjoys the bulk same-pair-type fast path for
  /// deterministic protocols.
  bool use_fenwick_block(std::uint32_t q, std::uint64_t L) const {
    if (sampling_ != BlockSampling::kAuto) {
      return sampling_ == BlockSampling::kFenwick;
    }
    return static_cast<std::uint64_t>(q) >
           2 * L * static_cast<std::uint64_t>(std::bit_width(q));
  }

  /// Dense sampler: 2L distinct agents without replacement as one
  /// multivariate hypergeometric draw over the whole registry.  After the
  /// initial draw, compact to the ≤ min(2L, q) classes actually drawn: the
  /// initiator/responder split and matching then cost O(L·min(L, q))
  /// instead of O(L·q).  Zero-count classes consume no randomness in
  /// sample_hypergeometric, so the compaction leaves the RNG stream — and
  /// therefore every result — bit-identical to the dense formulation.
  void run_block_dense(std::uint64_t n, std::uint64_t L, bool collided) {
    const std::uint32_t q = config_.num_states();
    if (used_.size() < q) used_.resize(q, 0);

    if (L > 0) {
      sample_multivariate_hypergeometric(rng_, config_.counts(), 2 * L, k_);
      nz_.clear();
      nzk_.clear();
      for (std::uint32_t i = 0; i < q; ++i) {
        if (k_[i] > 0) {
          config_.remove_at(i, k_[i]);
          nz_.push_back(i);
          nzk_.push_back(k_[i]);
        }
      }
      const auto m = static_cast<std::uint32_t>(nz_.size());
      sample_multivariate_hypergeometric(rng_, nzk_, L, init_);
      resp_.assign(nzk_.begin(), nzk_.end());
      for (std::uint32_t i = 0; i < m; ++i) resp_[i] -= init_[i];
      for (std::uint32_t a = 0; a < m; ++a) {
        if (init_[a] == 0) continue;
        sample_multivariate_hypergeometric(rng_, resp_, init_[a], match_);
        for (std::uint32_t b = 0; b < m; ++b) {
          if (match_[b] == 0) continue;
          resp_[b] -= match_[b];
          apply_pair_type(nz_[a], nz_[b], match_[b]);
        }
      }
    }

    // 3. Colliding interaction: at least one participant is among the 2L
    // used agents.  Sample which side(s), then the states from the used /
    // unused multisets (agents are exchangeable given the counts).
    if (collided) {
      const std::uint64_t used_total = 2 * L;
      const std::uint64_t unused_total = n - used_total;
      const auto [init_used, resp_used] =
          pick_collision_sides(rng_, used_total, unused_total);

      const std::uint32_t ai =
          init_used ? draw_used(used_total) : draw_unused(unused_total);
      std::uint32_t bi;
      if (init_used && resp_used) {
        // Same pool: draw the responder without replacement.
        used_[ai] -= 1;
        bi = draw_used(used_total - 1);
        used_[ai] += 1;
      } else if (resp_used) {
        bi = draw_used(used_total);
      } else {
        bi = draw_unused(unused_total);  // disjoint from the used initiator
      }

      config_.remove_at(ai, 1);
      config_.remove_at(bi, 1);
      apply_collision(ai, bi);
    }

    std::fill(used_.begin(), used_.end(), 0);
  }

  /// Fenwick sampler: the 2L distinct agents are drawn one at a time via
  /// the registry's Fenwick index — each draw an O(log q) class search
  /// plus an O(log q) count decrement — and consecutive draws pair up as
  /// (initiator, responder) of one interaction, which is exactly the
  /// uniform scheduler's conditional law given a collision-free prefix.
  /// Outputs are parked in the used multiset until the block ends (they
  /// must not be eligible for later in-block draws), so after the 2L
  /// removals config_ *is* the unused multiset and the colliding
  /// interaction samples used/unused pools directly.  Every piece of
  /// per-block work is O(L·log q) or O(L): nothing scans the registry.
  void run_block_fenwick(std::uint64_t n, std::uint64_t L, bool collided) {
    seq_.clear();
    for (std::uint64_t t = 0; t < 2 * L; ++t) {
      const std::uint32_t idx = config_.sample_class(rng_.below(n - t));
      config_.remove_at(idx, 1);
      seq_.push_back(idx);
    }
    for (std::uint64_t t = 0; t < L; ++t) {
      const std::uint32_t ia = seq_[2 * t];
      const std::uint32_t ib = seq_[2 * t + 1];
      if constexpr (kDeterministicDelta<P>) {
        // Memoizable δ: the whole interaction is an id-space lookup (plus
        // one δ evaluation per distinct pair type on a cache miss).
        const auto [oa, ob] = delta_outputs(ia, ib);
        record_used_id(oa);
        record_used_id(ob);
      } else {
        // Randomized δ: copy into persistent scratch (reusing its heap
        // buffers), run δ, re-intern via the hinted fast path.
        State& sa = assign_scratch(scratch_a_, ia);
        State& sb = assign_scratch(scratch_b_, ib);
        protocol_.interact(sa, sb, agent_rng_);
        record_used_id(config_.index_near(sa, ia));
        record_used_id(config_.index_near(sb, ib));
      }
    }

    if (collided) {
      const std::uint64_t used_total = 2 * L;
      const std::uint64_t unused_total = n - used_total;
      const auto [init_used, resp_used] =
          pick_collision_sides(rng_, used_total, unused_total);

      std::uint32_t ai, bi;
      if (init_used) {
        ai = draw_used_sparse(used_total);
        if (resp_used) {
          // Same pool: draw the responder without replacement.
          used_[ai] -= 1;
          bi = draw_used_sparse(used_total - 1);
          used_[ai] += 1;
        } else {
          bi = config_.sample_class(rng_.below(unused_total));
        }
      } else {
        ai = config_.sample_class(rng_.below(unused_total));
        bi = draw_used_sparse(used_total);
      }

      if (init_used) used_[ai] -= 1; else config_.remove_at(ai, 1);
      if (resp_used) used_[bi] -= 1; else config_.remove_at(bi, 1);
      apply_collision(ai, bi);
    }

    // Return the block's post-states to the configuration and clear the
    // used multiset — touched entries only, never an O(q) sweep.
    for (const std::uint32_t idx : touched_) {
      if (used_[idx] > 0) config_.add_at(idx, used_[idx]);
      used_[idx] = 0;
    }
    touched_.clear();
  }

  /// Output ids of the interaction (ia, ib): memoized lookup when enabled,
  /// δ evaluation otherwise.  Deterministic protocols only.
  std::pair<std::uint32_t, std::uint32_t> delta_outputs(std::uint32_t ia,
                                                        std::uint32_t ib)
    requires kDeterministicDelta<P>
  {
    if (memo_ == DeltaMemo::kEnabled) {
      const std::uint64_t key = DeltaCache::pack(ia, ib);
      std::uint64_t val;
      if (delta_cache_.lookup(key, val)) {
        ++cache_hits_;
        return DeltaCache::unpack(val);
      }
      ++cache_misses_;
      const auto out = compute_delta(ia, ib);
      delta_cache_.insert(key, DeltaCache::pack(out.first, out.second));
      return out;
    }
    return compute_delta(ia, ib);
  }

  /// One δ evaluation over the classes (ia, ib), outputs re-interned via
  /// the hinted fast path.  δ is deterministic here, so passing agent_rng_
  /// consumes nothing — cached and uncached runs see identical streams.
  std::pair<std::uint32_t, std::uint32_t> compute_delta(std::uint32_t ia,
                                                        std::uint32_t ib)
    requires kDeterministicDelta<P>
  {
    State& sa = assign_scratch(scratch_a_, ia);
    State& sb = assign_scratch(scratch_b_, ib);
    protocol_.interact(sa, sb, agent_rng_);
    const std::uint32_t oa = config_.index_near(sa, ia);
    const std::uint32_t ob = config_.index_near(sb, ib);
    return {oa, ob};
  }

  /// The colliding interaction, on classes already removed from both
  /// pools: outputs go straight back to the configuration (the block ends
  /// here, so they can never be drawn again within it).
  void apply_collision(std::uint32_t ai, std::uint32_t bi) {
    ++collisions_;
    if constexpr (kDeterministicDelta<P>) {
      const auto [oa, ob] = delta_outputs(ai, bi);
      config_.add_at(oa, 1);
      config_.add_at(ob, 1);
    } else {
      State& sa = assign_scratch(scratch_a_, ai);
      State& sb = assign_scratch(scratch_b_, bi);
      protocol_.interact(sa, sb, agent_rng_);
      config_.add_at(config_.index_near(sa, ai), 1);
      config_.add_at(config_.index_near(sb, bi), 1);
    }
  }

  /// Copies `src` into a persistent scratch slot.  The slot is constructed
  /// on first use and copy-ASSIGNED afterwards, so its heap buffers (rich
  /// states: vectors of ranks, messages, coin rings) are reused instead of
  /// re-allocated on every interaction — the difference between several
  /// mallocs per interaction and none in steady state.
  static State& assign_scratch(std::optional<State>& slot, const State& src) {
    if (slot.has_value()) {
      *slot = src;
    } else {
      slot.emplace(src);
    }
    return *slot;
  }

  State& assign_scratch(std::optional<State>& slot, std::uint32_t idx) {
    return assign_scratch(slot, config_.state(idx));
  }

  /// Tracks one output agent of the running block in the used multiset
  /// without returning it to the configuration yet.
  void record_used_id(std::uint32_t idx) {
    if (used_.size() <= idx) used_.resize(idx + 1, 0);
    if (used_[idx] == 0) touched_.push_back(idx);
    used_[idx] += 1;
  }

  /// Uniform state draw from the used multiset, scanning only the ≤ 2L
  /// touched registry entries (total must be the multiset's size).
  std::uint32_t draw_used_sparse(std::uint64_t total) {
    std::uint64_t pos = rng_.below(total);
    for (const std::uint32_t idx : touched_) {
      if (pos < used_[idx]) return idx;
      pos -= used_[idx];
    }
    return touched_.back();  // unreachable
  }

  /// Applies δ to `m` pairs whose (initiator, responder) states are the
  /// registry entries (a, b).  The 2m agents were already removed from the
  /// counts; outputs are added back and tracked in the used multiset.
  void apply_pair_type(std::uint32_t a, std::uint32_t b, std::uint64_t m) {
    if constexpr (kDeterministicDelta<P>) {
      const auto [oa, ob] = delta_outputs(a, b);
      record_output_id(oa, m);
      record_output_id(ob, m);
    } else {
      // Copy the pair type's prototype states once (record_output may grow
      // the registry and reseat its arena, so references are not stable),
      // then run δ per pair out of persistent scratch.
      assign_scratch(proto_a_, a);
      assign_scratch(proto_b_, b);
      for (std::uint64_t i = 0; i < m; ++i) {
        State& sa = assign_scratch(scratch_a_, *proto_a_);
        State& sb = assign_scratch(scratch_b_, *proto_b_);
        protocol_.interact(sa, sb, agent_rng_);
        record_output_id(config_.index_near(sa, a), 1);
        record_output_id(config_.index_near(sb, b), 1);
      }
    }
  }

  /// Long runs leave behind zero-count registry entries (states the
  /// population moved through); once they dominate, release them so
  /// sampling, scratch arrays and the id table track the number of *live*
  /// states.  The registry counts its live entries incrementally, so the
  /// decision is O(1) per block.  Safe between blocks because all
  /// block-local indices (used_, scratch) are dead — and because ids are
  /// stable, nothing else needs re-deriving except the memoized
  /// transition cache, whose entries may name reclaimed ids.
  void maybe_compact() {
    if (config_.should_compact()) {
      config_.compact();
      if (used_.size() > config_.num_states()) {
        used_.resize(config_.num_states());
      }
      if constexpr (kDeterministicDelta<P>) {
        delta_cache_.clear();
        ++cache_clears_;
      }
    }
  }

  /// Returns m output agents to the configuration and the used multiset.
  void record_output_id(std::uint32_t idx, std::uint64_t m) {
    config_.add_at(idx, m);
    if (used_.size() <= idx) used_.resize(idx + 1, 0);
    used_[idx] += m;
  }

  /// Uniform state draw from the used multiset (total must be its size).
  std::uint32_t draw_used(std::uint64_t total) {
    std::uint64_t pos = rng_.below(total);
    for (std::uint32_t i = 0; i < used_.size(); ++i) {
      if (pos < used_[i]) return i;
      pos -= used_[i];
    }
    return static_cast<std::uint32_t>(used_.size() - 1);  // unreachable
  }

  /// Uniform state draw from the unused multiset (counts minus used).
  std::uint32_t draw_unused(std::uint64_t total) {
    std::uint64_t pos = rng_.below(total);
    const std::uint32_t q = config_.num_states();
    for (std::uint32_t i = 0; i < q; ++i) {
      const std::uint64_t c =
          config_.count(i) - (i < used_.size() ? used_[i] : 0);
      if (pos < c) return i;
      pos -= c;
    }
    return q - 1;  // unreachable
  }

  P protocol_;
  Config config_;
  util::Rng rng_;        ///< scheduler randomness (block structure, pairs)
  util::Rng agent_rng_;  ///< transition-function randomness
  BlockSampling sampling_ = BlockSampling::kAuto;
  DeltaMemo memo_ = DeltaMemo::kEnabled;
  std::uint64_t interactions_ = 0;
  std::uint64_t dense_blocks_ = 0;
  std::uint64_t fenwick_blocks_ = 0;
  std::uint64_t collisions_ = 0;        ///< colliding interactions resolved
  std::uint64_t community_draws_ = 0;   ///< community path: pairs drawn

  DeltaCache delta_cache_;  ///< (id, id) → (id, id), deterministic δ only
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_clears_ = 0;

  BlockLengthSampler block_length_;  ///< first-collision law, built on n

  // Persistent δ scratch (optional: State need not be default-
  // constructible).  proto_a_/proto_b_ hold a dense pair type's inputs
  // across the per-pair loop.
  std::optional<State> scratch_a_, scratch_b_;
  std::optional<State> proto_a_, proto_b_;

  // Scratch buffers.  used_ and k_ are indexed like the registry; nz_
  // lists the registry indices drawn this block, and init_/resp_/match_
  // are indexed like nz_ (compact, ≤ 2L entries).  seq_ and touched_
  // belong to the Fenwick path (drawn-agent sequence, used-entry list).
  std::vector<std::uint64_t> used_;   ///< post-states of this block's agents
  std::vector<std::uint64_t> k_;      ///< sampled state totals (2L agents)
  std::vector<std::uint32_t> nz_;     ///< registry indices with k_[i] > 0
  std::vector<std::uint64_t> nzk_;    ///< k_ compacted to nz_
  std::vector<std::uint64_t> init_;   ///< initiator split
  std::vector<std::uint64_t> resp_;   ///< responder pool (consumed)
  std::vector<std::uint64_t> match_;  ///< per-initiator-state matching
  std::vector<std::uint32_t> seq_;      ///< Fenwick path: drawn classes, 2L
  std::vector<std::uint32_t> touched_;  ///< Fenwick path: used_ support
};

}  // namespace ssle::pp
