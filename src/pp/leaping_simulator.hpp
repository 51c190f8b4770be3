// Pair-type leap engine: jump whole runs of interactions in one draw.
//
// Both existing engines pay at least one loop iteration per interaction —
// even the batched engine's memoized-δ floor (~7 ns, bench_m1_micro) makes
// n = 10^10 epidemics hours of wall-clock, because the uniform scheduler's
// 2.3·10^11 interactions are iterated one by one even though almost all of
// them are NULL: for narrow-registry deterministic-δ protocols, most
// ordered pairs of states map to themselves (or to each other), so the
// counts configuration does not move.  This engine stops iterating them.
//
// Model.  Project the configuration onto state counts (exact by
// lumpability, pp/counts.hpp).  Under the uniform scheduler an interaction
// picks an ordered pair of distinct agents u.a.r., so a *pair type* (a, b)
// of class ids fires with probability w(a,b) / W_tot, where
//
//   w(a, b) = c_a · c_b        (a ≠ b),     w(a, a) = c_a · (c_a − 1),
//   W_tot   = n · (n − 1)      (constant),
//
// and with deterministic δ each pair type is durably *null* (outputs equal
// inputs as a multiset: the counts chain does not move) or *active*.  The
// active types are precomputed once by closing the q × q pair-type table
// under δ (outputs of registered classes are registered and their pairs
// evaluated, to a fixpoint) — this is where the narrow-registry eligibility
// trait (pp::LeapEligible, pp/protocol.hpp) matters: the table is O(q²).
//
// Leap.  Let W_act = Σ_active w.  The number of consecutive null
// interactions before the next active one is geometric with success
// probability W_act / W_tot — but sampling it per event still costs a log
// per active interaction.  Instead the engine works in *windows* of m
// scheduler slots under a thinning envelope, each with its own event cap:
//
//   * the window's cap is chosen from the counts at its start (window_cap
//     below): cap = min(event_cap, max(6144, ⌊1.5·√c_min⌋)), c_min the
//     smallest count in a firing pair type, and stays fixed for the whole
//     window, splits included;
//   * W̄ ≥ sup W_act over every state reachable within the window
//     (each active event moves any single class count by ≤ 2, so
//     W̄ = Σ_active w(c_a + 2·cap, c_b + 2·cap) computed at window start
//     is a valid envelope for any ≤ cap events), capped at W_tot;
//   * the count of *candidate* slots in the window is one exact binomial
//     draw  C ~ B(m, W̄ / W_tot)  (sample_binomial below) — null runs
//     between candidates are leapt wholesale, never iterated;
//   * each candidate draws one uniform u·W̄ and is accepted iff
//     u·W̄ < W_act (current value): accepted candidates are exactly the
//     active interactions, and the *same* draw, now uniform on [0, W_act),
//     classifies which active pair type fired (cumulative-weight walk over
//     the O(q²) active types) — one multiplication + compare per candidate,
//     no log, no division;
//   * m is sized so E[C] ≈ 2·cap/3; in the astronomically rare event
//     C > cap (the envelope's event bound could be breached) the window is
//     *split* exactly.  Candidates distribute over the halves
//     hypergeometrically (slots are exchangeable) and the first half
//     recurses under the same envelope; the second half KEEPS its share
//     of the candidates — the split was entered *because* the window came
//     out candidate-rich, and that conditioning must be carried, not
//     redrawn — and when the envelope recomputed at the half boundary
//     rises above the old one, the still-unresolved slots are promoted to
//     candidates on the new level band [W̄, W̄₂) with their exact
//     conditional probability (split_piece below) — the trajectory law
//     is exact, not approximate, on every path.
//
// Window sizing.  The cap trades two costs.  Each window costs a fixed
// overhead (envelope rebuild, binomial draw: ≈ 200 ns), paid C/cap times
// per C candidates; the envelope's slack 2·cap widens the banded path's
// marginal band (below) by ≈ cap/c_min per candidate, so the marginals
// cost ∝ cap·C/c_min.  The sum is smallest at cap ∝ √c_min, and 1.5 is the
// measured best constant (ROADMAP Perf/limits: 0.75–3 within 25 %).  A
// Lemma A.2 epidemic at n = 10^10 then takes Θ(√n) windows (≈ 2.7·10^5)
// where a fixed cap of 6144 took Θ(n) (≈ 2.4·10^6).  Because the cap
// depends only on the state at the window's start, the thinning and split
// arguments hold for it exactly as for a fixed cap.  An explicit
// event_cap ≤ 6144 pins every window to that cap.

// Banded batch (the n = 10^10 enabler).  When every active pair type has
// the *same net count delta* (the epidemic: both orders of (I, S) are net
// {S: −1, I: +1}), which type fired is irrelevant to the counts
// trajectory, and a second, *lower* envelope removes the per-candidate
// loop: W_low = Σ_active w(c − 2·C) (clamped at 0, valid because a piece
// of C candidates holds ≤ C events) bounds W_act from below over the
// whole piece, so every candidate whose u·W̄ lands in [0, W_low) is a
// *sure accept no matter how many events precede it*.  Each candidate is
// independently *marginal* (u·W̄ ∈ [W_low, W̄)) with probability
// p = 1 − W_low/W̄, so the runs of sure accepts between marginals are
// geometric: one inverse-transform draw leaps each run wholesale, and
// only the marginal candidates — an O(cap/n) fraction mid-run, usually
// zero per window — are resolved individually, accepting with probability
// (W_act(j) − W_low) / (W̄ − W_low) where j counts accepted events before
// that candidate (W_act(j) = Σ w(c₀ + j·Δ) is closed-form under a
// uniform net delta Δ).  The accepts are applied as one batched count
// update.  The law is exactly the sequential thinning law — the band
// split is a partition of each u's range, and the iid marginal/sure
// decomposition is exact, nothing is approximated — but a mid-run piece
// costs O(1 + marginals) draws instead of one per candidate.  Pieces
// where W_low = 0 (epidemic endgame, tiny populations, tiny caps) or the
// band is wide (p > 1/8: a log per marginal would cost more than the
// multiply-compare per candidate it saves), and protocols with
// heterogeneous deltas (LooseLeaderElection), fall back to the
// per-candidate loop unchanged.
//
// Positions of candidates inside a window are never materialized: the
// counts chain only moves at active events and is only *observed* at
// window boundaries (probes run between step() calls), so the candidate
// subsequence is all that exists.  When W_act = 0 (every pair type null —
// e.g. a fully infected epidemic) any remaining budget is consumed in
// O(1): the configuration is frozen forever under a deterministic δ.
//
// Cost per active interaction is O(1) with tiny constants plus an O(A)
// classification walk (A = number of active pair types); per *window* an
// O(A) envelope rebuild and one binomial draw in O(1) expected time,
// amortized over ~2·cap/3 candidates.  For the epidemic (q = 2, A = 2) the
// n = 10^10 Lemma A.2 run — 2.3·10^11 interactions, 10^10 of them active —
// takes well under a second (perfbench epidemic-leaping; ROADMAP
// Perf/limits has the number); the 2.2·10^11 null interactions cost *zero*
// iterations.  Where active types carry most of the weight
// (LooseLeaderElection's follower×follower timer decrements, q ≈ n random
// starts) W̄ ≈ W_tot and leaping degrades gracefully to ~1 candidate per
// interaction — exact but no faster than batched; ROADMAP records those
// honest numbers.
//
// Numerical contract: weights are products of counts in double (exact
// below 2^53, ≤ 1e-16 relative above — same standard as the batched
// engine's log-space hypergeometric pmf).  W_act is maintained
// incrementally between events and rebuilt exactly from counts at every
// window boundary, so rounding drift is bounded per window, never
// accumulated across the run.
//
// The API mirrors BatchedSimulator (`step`, `run_until`, RunResult, probe
// semantics, counts-predicates).  Unlike the batched engine it never
// compacts the registry: the closure pre-registers the protocol's entire
// reachable class set (bounded by the narrow-registry contract), and those
// ids must stay stable because the pair-type table is keyed on them — a
// config().compact() between steps is detected (interner version counter)
// and aborts rather than running on stale ids.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "pp/batched_simulator.hpp"  // sample_hypergeometric (window splits)
#include "pp/counts.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "util/rng.hpp"

namespace ssle::pp {

/// Exact binomial draw B(trials, p), O(1) expected time.  When
/// trials·min(p, 1−p) ≥ 10 it is Hörmann's BTRS transformed rejection
/// (p > ½ draws trials − B(trials, 1−p)); below that it is a mode-centred
/// inverse transform in log space that visits ≈ 3σ ≤ 10 support points.
/// Only that small-mean walk has a tail-residue policy: floating-point
/// residue goes to the outermost *visited* support point on the heavier
/// side, an O(double-epsilon) overweight of that endpoint, as in
/// sample_hypergeometric.  p ≤ 0 gives 0 and p ≥ 1 gives trials; a
/// non-finite p aborts naming sample_binomial.
std::uint64_t sample_binomial(util::Rng& rng, std::uint64_t trials, double p);

template <Protocol P>
class LeapingSimulator {
  static_assert(kDeterministicDelta<P>,
                "LeapingSimulator requires a deterministic transition "
                "function: pair types must be durably null or active.  "
                "Randomized-δ protocols are rejected at compile time; "
                "run them on the batched or naive engine.");
  static_assert(kNarrowRegistry<P>,
                "LeapingSimulator requires a narrow registry (declare "
                "P::kNarrowRegistry after checking the reachable state "
                "space is bounded independent of n): the pair-type table "
                "is O(q^2) and must close.");

 public:
  using State = typename P::State;
  using Config = CountsConfiguration<P>;
  using Predicate =
      std::function<bool(const Config&, std::uint64_t /*interactions*/)>;

  /// Default event_cap, the ceiling on every window's cap.  Each window's
  /// cap is min(event_cap, max(kMinWindowCap, ⌊kCapScale·√c_min⌋)) from
  /// the counts at its start (header comment, "Window sizing").  Windows
  /// are sized for ≈ 2·cap/3 expected candidates, so the envelope (valid
  /// for ≤ cap events) is breached — c > cap, a 1.5× overshoot of the mean — with
  /// probability < e^(−cap/18) by Chernoff: ~e^(−341) or less, never in
  /// practice; the exact split path covers it when it happens.  Tests pass
  /// tiny caps to force the split path; any event_cap ≤ kMinWindowCap fixes
  /// every window's cap at event_cap.
  static constexpr std::uint32_t kDefaultEventCap = 1u << 24;
  /// Smallest cap a window gets unless event_cap is lower: 6144 is the
  /// fixed cap the engine used before windows were sized from the counts.
  static constexpr std::uint32_t kMinWindowCap = 6144;
  /// α in cap = α·√c_min, measured on the n = 10^10 epidemic.
  static constexpr double kCapScale = 1.5;

  LeapingSimulator(const P& protocol, Config config, std::uint64_t seed,
                   std::uint32_t event_cap = kDefaultEventCap)
      : protocol_(protocol),
        config_(std::move(config)),
        rng_(util::substream(seed, 1)),
        agent_rng_(util::substream(seed, 2)),
        event_cap_(std::max<std::uint32_t>(1, event_cap)) {
    require_population("leaping", config_.population_size());
  }

  LeapingSimulator(const P& protocol, std::uint64_t seed,
                   std::uint32_t event_cap = kDefaultEventCap)
      : LeapingSimulator(protocol, Config(protocol), seed, event_cap) {}

  /// Executes exactly `count` interactions (leaping null runs).  With
  /// fewer than two agents no pair exists; steps are counted (so
  /// run_until terminates) but are no-ops — same contract as the other
  /// engines.
  void step(std::uint64_t count = 1) {
    if (config_.population_size() < 2) {
      interactions_ += count;
      return;
    }
    ensure_table();
    pull_counts();
    std::uint64_t remaining = count;
    while (remaining > 0) {
      const std::uint64_t consumed = leap_window(remaining);
      interactions_ += consumed;
      remaining -= consumed;
    }
    push_counts();
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

  // Leap statistics: benchmarks report them; tests pin paths down.
  /// Count-changing interactions actually executed.
  std::uint64_t events() const { return events_; }
  /// Interactions leapt as nulls (never iterated).
  std::uint64_t leapt_nulls() const { return interactions_ - events_; }
  /// Thinning candidates examined (accepted + rejected).
  std::uint64_t candidates() const { return candidates_; }
  /// Leap windows run.
  std::uint64_t windows() const { return windows_; }
  /// Envelope-breach window splits taken (astronomically rare at the
  /// default cap; tests force them with tiny caps).
  std::uint64_t splits() const { return splits_; }
  /// Deepest split recursion reached over the run (0 when no window was
  /// ever split) — how far the exact over-cap machinery had to descend.
  std::uint64_t split_depth_max() const { return split_depth_max_; }
  /// Window pieces resolved by the banded batch path (uniform net delta,
  /// W_low > 0) — O(1) draws instead of one per candidate.
  std::uint64_t banded_pieces() const { return banded_pieces_; }
  /// True when every active pair type shares one net count delta, making
  /// the banded batch path available.
  bool uniform_net_delta() const { return uniform_net_; }
  /// Size of the closed pair-type table: distinct classes × active types.
  std::uint32_t table_classes() const { return table_q_; }
  std::uint32_t active_pair_types() const {
    return static_cast<std::uint32_t>(active_.size());
  }

  /// Uniform engine-metrics snapshot (obs/metrics.hpp): iterated = the
  /// count-changing events actually executed, leapt = the null runs
  /// consumed without iteration, plus window/split statistics and the
  /// registry's counters (touched only at step boundaries — the hot loop
  /// runs on the detached count vector).
  obs::EngineMetrics metrics() const {
    obs::EngineMetrics m;
    m.engine = "leaping";
    m.population = config_.population_size();
    m.interactions = interactions_;
    m.interactions_iterated = events_;
    m.interactions_leapt = interactions_ - events_;
    m.fenwick_point_updates = config_.fenwick_updates();
    m.fenwick_samples = config_.fenwick_samples();
    m.registry_live_states = config_.num_live_states();
    m.registry_allocated_states = config_.num_allocated_states();
    m.registry_capacity = config_.num_states();
    m.registry_compactions = config_.compactions();
    m.registry_version = config_.registry_version();
    m.leap_windows = windows_;
    m.leap_candidates = candidates_;
    m.envelope_breaches = splits_;
    m.split_depth_max = split_depth_max_;
    m.banded_pieces = banded_pieces_;
    m.leap_marginals = marginals_;
    m.leap_cap_max = cap_max_;
    return m;
  }

 private:
  struct PairType {
    std::uint32_t a, b;    ///< input class ids (ordered pair)
    std::uint32_t oa, ob;  ///< δ output class ids
    double w = 0.0;        ///< current weight c_a·c_b (or c_a·(c_a−1))
  };

  /// Hard sanity bound on the closure: a protocol that overruns it lied
  /// about kNarrowRegistry (its reachable class set grows with n) and the
  /// O(q²) table would be useless anyway.  Fail loudly, not slowly.
  static constexpr std::uint32_t kMaxClasses = 65536;

  /// Closes the pair-type table under δ: evaluates every ordered pair of
  /// registered classes, registering output classes (count 0) and
  /// iterating until no new class appears.  Incremental: pairs with both
  /// ids below the previously closed extent are skipped, so post-closure
  /// calls are O(1) and external state injections (config() mutation
  /// between steps) only evaluate the new rows/columns.
  void ensure_table() {
    std::uint32_t q = config_.num_states();
    if (table_built_) {
      // The table is keyed on class ids (header contract: this engine
      // never compacts, and the caller must not either).  A compact()
      // between steps reclaims ids — active_ would hold stale classes
      // and touch_ could be indexed out of bounds.  Fail loudly, like
      // the kMaxClasses check, instead of corrupting the trajectory.
      if (config_.interner().version() != table_version_ || q < table_q_) {
        std::fprintf(stderr,
                     "LeapingSimulator: registry ids changed after closure "
                     "(config().compact() between steps?) — the pair-type "
                     "table is keyed on stable ids and is now invalid.\n");
        std::abort();
      }
      if (q == table_q_) return;
    }
    std::uint32_t done = table_built_ ? table_q_ : 0;
    while (done < q) {
      for (std::uint32_t i = 0; i < q; ++i) {
        if (!config_.interner().allocated(i)) continue;
        for (std::uint32_t j = 0; j < q; ++j) {
          if (i < done && j < done) continue;
          if (!config_.interner().allocated(j)) continue;
          evaluate_pair(i, j);
        }
      }
      done = q;
      q = config_.num_states();  // grew if outputs registered new classes
      if (q > kMaxClasses) {
        std::fprintf(stderr,
                     "LeapingSimulator: pair-type closure exceeded %u "
                     "classes — the protocol's kNarrowRegistry declaration "
                     "is wrong (reachable state space is not bounded).\n",
                     kMaxClasses);
        std::abort();
      }
    }
    table_q_ = q;
    table_version_ = config_.interner().version();
    table_built_ = true;
    touch_.assign(table_q_, {});
    for (std::uint32_t t = 0; t < active_.size(); ++t) {
      touch_[active_[t].a].push_back(t);
      if (active_[t].b != active_[t].a) touch_[active_[t].b].push_back(t);
    }
    analyze_net_deltas();
  }

  /// Detects whether every active pair type shares one net count delta —
  /// the precondition for the banded batch path (which never classifies
  /// accepted candidates).  Stores the common delta sparsely.
  void analyze_net_deltas() {
    uniform_net_ = false;
    net_.clear();
    if (active_.empty()) return;
    std::vector<std::int64_t> delta(table_q_, 0);
    const auto net_of = [&](const PairType& t) {
      std::fill(delta.begin(), delta.end(), 0);
      --delta[t.a];
      --delta[t.b];
      ++delta[t.oa];
      ++delta[t.ob];
      return delta;
    };
    const std::vector<std::int64_t> first = net_of(active_[0]);
    for (std::size_t t = 1; t < active_.size(); ++t) {
      if (net_of(active_[t]) != first) return;
    }
    for (std::uint32_t i = 0; i < table_q_; ++i) {
      if (first[i] != 0) net_.push_back({i, first[i]});
    }
    uniform_net_ = !net_.empty();  // all-zero net would mean null types
  }

  void evaluate_pair(std::uint32_t i, std::uint32_t j) {
    State sa = config_.state(i);
    State sb = config_.state(j);
    protocol_.interact(sa, sb, agent_rng_);  // deterministic: draws nothing
    const std::uint32_t oa = config_.index_of(sa, i);
    const std::uint32_t ob = config_.index_of(sb, j);
    // Null iff outputs equal inputs as a multiset (identity or swap):
    // either way the counts chain does not move.
    if ((oa == i && ob == j) || (oa == j && ob == i)) return;
    active_.push_back(PairType{i, j, oa, ob, 0.0});
  }

  // --- detached counts -------------------------------------------------
  // During step() the engine works on a plain id → count vector: the
  // Fenwick tree and live-class bookkeeping of CountsConfiguration are
  // pure overhead on a path that runs 10^10 times.  Probes only observe
  // config_ between steps, so syncing at step boundaries is exact.

  void pull_counts() {
    cnt_ = config_.counts();
    cnt_.resize(table_q_, 0);
    const double n = static_cast<double>(config_.population_size());
    w_total_ = n * (n - 1.0);
  }

  void push_counts() {
    for (std::uint32_t i = 0; i < table_q_; ++i) {
      const std::uint64_t have = config_.count(i);
      if (cnt_[i] > have) {
        config_.add_at(i, cnt_[i] - have);
      } else if (cnt_[i] < have) {
        config_.remove_at(i, have - cnt_[i]);
      }
    }
  }

  // --- weights ---------------------------------------------------------

  double weight_of(const PairType& t) const {
    const double ca = static_cast<double>(cnt_[t.a]);
    if (t.a == t.b) return ca >= 2.0 ? ca * (ca - 1.0) : 0.0;
    return ca * static_cast<double>(cnt_[t.b]);
  }

  /// Rebuilds every active weight and W_act exactly from counts.
  void refresh_weights() {
    double sum = 0.0;
    for (PairType& t : active_) {
      t.w = weight_of(t);
      sum += t.w;
    }
    w_active_ = sum;
  }

  /// Σ_active w evaluated with every count inflated by `slack` — an upper
  /// bound on W_act over all states reachable within slack/2 events (one
  /// event moves any single class count by at most 2).
  double active_weight_bound(double slack) const {
    double sum = 0.0;
    for (const PairType& t : active_) {
      const double ca = static_cast<double>(cnt_[t.a]) + slack;
      const double cb = t.a == t.b
                            ? ca - 1.0
                            : static_cast<double>(cnt_[t.b]) + slack;
      sum += ca * cb;
    }
    return sum;
  }

  /// Σ_active w with every count *deflated* by `slack` (clamped at 0) — a
  /// lower bound on W_act over the same reachable set, the sure-accept
  /// band of the banded batch path.
  double active_weight_floor(double slack) const {
    double sum = 0.0;
    for (const PairType& t : active_) {
      const double ca =
          std::max(0.0, static_cast<double>(cnt_[t.a]) - slack);
      const double cb =
          t.a == t.b
              ? std::max(0.0, ca - 1.0)
              : std::max(0.0, static_cast<double>(cnt_[t.b]) - slack);
      sum += ca * cb;
    }
    return sum;
  }

  /// W_act after exactly `j` events under the uniform net delta, from the
  /// current (piece-start) counts.  Exact: under a uniform net delta the
  /// counts trajectory is c₀ + j·Δ regardless of which types fired.
  double active_weight_after(std::uint64_t j) const {
    const double dj = static_cast<double>(j);
    const auto count_at = [&](std::uint32_t cls) {
      double c = static_cast<double>(cnt_[cls]);
      for (const auto& [net_cls, d] : net_) {
        if (net_cls == cls) c += dj * static_cast<double>(d);
      }
      return c;
    };
    double sum = 0.0;
    for (const PairType& t : active_) {
      const double ca = count_at(t.a);
      const double cb = t.a == t.b ? ca - 1.0 : count_at(t.b);
      if (ca > 0.0 && cb > 0.0) sum += ca * cb;
    }
    return sum;
  }

  // --- the leap --------------------------------------------------------

  /// Event cap for a window starting at the current counts:
  /// min(event_cap, max(kMinWindowCap, ⌊kCapScale·√c_min⌋)), where c_min is
  /// the smallest count of a class in a pair type with positive weight.
  /// Needs current weights and W_act > 0 (some type fires).
  std::uint32_t window_cap() const {
    if (event_cap_ <= kMinWindowCap) return event_cap_;
    std::uint64_t c_min = ~std::uint64_t{0};
    for (const PairType& t : active_) {
      if (t.w > 0.0) c_min = std::min({c_min, cnt_[t.a], cnt_[t.b]});
    }
    const double cap =
        std::floor(kCapScale * std::sqrt(static_cast<double>(c_min)));
    if (cap >= static_cast<double>(event_cap_)) return event_cap_;
    return std::max(kMinWindowCap, static_cast<std::uint32_t>(cap));
  }

  /// Runs one leap window over at most `remaining` scheduler slots;
  /// returns the number of interactions consumed.
  std::uint64_t leap_window(std::uint64_t remaining) {
    refresh_weights();
    if (w_active_ <= 0.0) return remaining;  // frozen: all pair types null
    cap_ = window_cap();
    cap_max_ = std::max(cap_max_, cap_);
    const double wbar = std::min(active_weight_bound(2.0 * cap_), w_total_);
    const double pbar = std::min(1.0, wbar / w_total_);
    std::uint64_t m = remaining;
    const double target = 2.0 * static_cast<double>(cap_) / 3.0;
    if (static_cast<double>(m) * pbar > target) {
      // target / pbar < m but for rounding; the test keeps the window
      // inside `remaining` and the cast below m ≤ 2^64.
      const double slots = target / pbar;
      if (slots < static_cast<double>(m)) {
        m = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(slots));
      }
    }
    const std::uint64_t c = sample_binomial(rng_, m, pbar);
    run_piece(m, c, wbar);
    ++windows_;
    return m;
  }

  // Every slot carries a latent level V ~ U[0, W_tot): the slot is an
  // event iff V < W_act at that slot.  The window machinery only ever
  // *reveals* information about the V's — a piece's knowledge is a slot
  // count m, a resolved `level` L, and a set of bands: `count` slots with
  // V uniform on [lo, hi), all other slots known to have V ≥ L.  A piece
  // is processable directly when its total candidate count is ≤ cap
  // (then ≤ cap events occur, L ≥ W_act throughout by the level
  // invariant, and every non-band slot is a sure non-event); otherwise
  // it splits.

  /// One thinning band: `count` candidate slots whose latent levels are
  /// iid uniform on [lo, hi).
  struct Band {
    std::uint64_t count;
    double lo, hi;
  };

  /// Processes a window piece of `m` slots containing `c` candidates under
  /// envelope `wbar` (computed, with slack 2·cap, at this piece's start
  /// state).  When c ≤ cap_ the envelope is valid for the whole piece and
  /// the candidates run directly; otherwise the piece is split exactly
  /// (split_piece).
  void run_piece(std::uint64_t m, std::uint64_t c, double wbar) {
    if (c > cap_) {
      split_piece(m, wbar, {Band{c, 0.0, wbar}});
      return;
    }
    candidates_ += c;
    if (c > 0 && uniform_net_ && run_piece_banded(c, wbar)) return;
    for (std::uint64_t k = 0; k < c; ++k) {
      const double u = rng_.real() * wbar;
      if (u < w_active_) apply_event(u);
    }
  }

  /// Exact split of an over-cap piece.  The branch condition (> cap
  /// candidates) is *information about this window's overlay*, so the
  /// candidates cannot be discarded and redrawn — conditional on the
  /// split, the window really is candidate-rich, and a fresh redraw would
  /// under-rate events (just as the pre-fix variant, which kept the counts
  /// but accepted them against the recomputed envelope, under-rated by
  /// W̄/W̄₂ per slot).  Instead the overlay is carried through exactly:
  ///
  ///   * each band's candidates distribute over the halves
  ///     hypergeometrically, bands drawn in creation order (band i is a
  ///     uniform subset of the slots not holding bands < i);
  ///   * the first half recurses with the inherited level — it starts at
  ///     the same state, so the level invariant (level ≥ W_act within
  ///     cap events of the piece start) still holds;
  ///   * at the half boundary the envelope is recomputed; if it *rose*
  ///     above the resolved level, each unresolved second-half slot
  ///     (V ≥ level) is promoted to a candidate with the exact
  ///     conditional probability (W̄₂ − L)/(W_tot − L), forming a new
  ///     band on [L, W̄₂) — these are the slots the first-half events
  ///     made newly eligible, the mass the stale-envelope bug dropped.
  void split_piece(std::uint64_t m, double level, std::vector<Band> bands) {
    ++splits_;
    ++split_depth_;
    split_depth_max_ = std::max(split_depth_max_, split_depth_);
    const std::uint64_t m1 = m / 2;  // total > cap ≥ 1 forces m ≥ 2
    const std::uint64_t m2 = m - m1;
    std::vector<Band> b1, b2;
    std::uint64_t rem_total = m;
    std::uint64_t rem_h1 = m1;
    std::uint64_t known2 = 0;
    for (const Band& b : bands) {
      const std::uint64_t in1 =
          sample_hypergeometric(rng_, rem_total, b.count, rem_h1);
      if (in1 > 0) b1.push_back(Band{in1, b.lo, b.hi});
      if (b.count > in1) {
        b2.push_back(Band{b.count - in1, b.lo, b.hi});
        known2 += b.count - in1;
      }
      rem_total -= b.count;
      rem_h1 -= in1;
    }
    run_bands(m1, level, std::move(b1));
    refresh_weights();
    double level2 = level;
    const double wbar2 = std::min(active_weight_bound(2.0 * cap_), w_total_);
    if (wbar2 > level) {
      // level < wbar2 ≤ W_tot, so the conditional below is well defined.
      const std::uint64_t extra = sample_binomial(
          rng_, m2 - known2, (wbar2 - level) / (w_total_ - level));
      if (extra > 0) b2.push_back(Band{extra, level, wbar2});
      level2 = wbar2;
    }
    run_bands(m2, level2, std::move(b2));
    --split_depth_;
  }

  /// Processes a piece described by bands.  Splits again while over cap;
  /// a single zero-based band with a matching level is the common window
  /// shape and takes run_piece's fast paths; the general case resolves
  /// candidates in exchangeable order (band chosen by remaining counts,
  /// without replacement) with each level drawn uniformly in its band.
  void run_bands(std::uint64_t m, double level, std::vector<Band> bands) {
    std::uint64_t total = 0;
    for (const Band& b : bands) total += b.count;
    if (total > cap_) {
      split_piece(m, level, std::move(bands));
      return;
    }
    if (bands.size() == 1 && bands[0].lo == 0.0 && bands[0].hi == level) {
      run_piece(m, total, level);
      return;
    }
    candidates_ += total;
    while (total > 0) {
      std::uint64_t pick = rng_.below(total);
      std::size_t i = 0;
      while (pick >= bands[i].count) pick -= bands[i].count, ++i;
      --bands[i].count;
      --total;
      const double u =
          bands[i].lo + rng_.real() * (bands[i].hi - bands[i].lo);
      if (u < w_active_) apply_event(u);
    }
  }

  /// Banded batch path for uniform-net-delta tables: resolves all `c`
  /// candidates with one geometric draw per sure-accept run plus one
  /// accept decision per *marginal* candidate.  Returns false (having
  /// consumed no randomness and changed nothing) when the band is
  /// degenerate — W_low = 0, the band is wide enough that the sequential
  /// loop is cheaper, or the batched update could underflow a count — so
  /// the caller's sequential loop handles the piece instead.
  bool run_piece_banded(std::uint64_t c, double wbar) {
    // The floor only needs to hold over THIS piece — at most c events —
    // so it deflates counts by 2·c, not 2·cap: a tighter band whenever
    // the piece undershoots the cap (always, except after splits).
    const double wlow = active_weight_floor(2.0 * static_cast<double>(c));
    if (wlow <= 0.0) return false;
    // All c candidates accepting must keep every count non-negative for
    // the batched update to be meaningful.  W_low > 0 implies this for
    // every protocol whose active types consume what the net drains, but
    // the engine guards rather than trusts.
    for (const auto& [cls, d] : net_) {
      if (d < 0 &&
          cnt_[cls] < c * static_cast<std::uint64_t>(-d)) {
        return false;
      }
    }
    const double p_marginal = 1.0 - wlow / wbar;
    if (p_marginal > 0.125) {
      // Wide band: each marginal costs a log and a closed-form weight
      // rebuild, so past ~c/8 expected marginals the sequential loop's
      // one multiply-compare per candidate wins.  Nothing has been drawn
      // yet, so falling back is free.
      return false;
    }
    std::uint64_t accepts = 0;  // events so far within the piece
    if (p_marginal <= 0.0) {
      accepts = c;  // the floor covers the whole envelope: all sure
    } else {
      // Each candidate is independently marginal with probability
      // p_marginal, so the runs of sure accepts between marginals are
      // geometric: leap each run with one inverse-transform draw,
      // truncated at the piece end (exact, by memorylessness).  Sure
      // accepts need no decision — u·W̄ < W_low ≤ W_act(j) at any j
      // reachable in the piece.
      const double log_keep = std::log1p(-p_marginal);  // < 0
      std::uint64_t k = 0;  // candidates consumed
      while (k < c) {
        const double run_f = std::log1p(-rng_.real()) / log_keep;
        const std::uint64_t left = c - k;
        const std::uint64_t run = run_f >= static_cast<double>(left)
                                      ? left
                                      : static_cast<std::uint64_t>(run_f);
        accepts += run;
        k += run;
        if (k >= c) break;
        // Candidate k is marginal: accept with the conditional
        // probability given u·W̄ ∈ [W_low, W̄), at the current event
        // count (uniform net delta makes W_act(j) closed-form).
        const double wact_j = active_weight_after(accepts);
        const double p_acc =
            std::clamp((wact_j - wlow) / (wbar - wlow), 0.0, 1.0);
        if (rng_.real() < p_acc) ++accepts;
        ++k;
        ++marginals_;
      }
    }
    for (const auto& [cls, d] : net_) {
      if (d < 0) {
        cnt_[cls] -= accepts * static_cast<std::uint64_t>(-d);
      } else {
        cnt_[cls] += accepts * static_cast<std::uint64_t>(d);
      }
    }
    events_ += accepts;
    ++banded_pieces_;
    refresh_weights();  // sequential pieces after us read current weights
    return true;
  }

  /// Applies one active event.  `u` is uniform on [0, W_act) — the
  /// accepted thinning draw, reused to classify the pair type by a
  /// cumulative-weight walk (no fresh randomness).
  void apply_event(double u) {
    std::size_t t = 0;
    const std::size_t last = active_.size() - 1;
    while (t < last) {
      const double w = active_[t].w;
      if (u < w) break;
      u -= w;
      ++t;
    }
    // Float residue can land past the last positive weight (incremental
    // W_act is a hair above the true sum); back up to a firing type.
    while (active_[t].w <= 0.0 && t > 0) --t;
    if (active_[t].w <= 0.0) return;  // defensive: nothing can fire
    const PairType& pt = active_[t];
    // A positive weight guarantees the decrements are safe: c_a ≥ 1 and
    // c_b ≥ 1 (or c_a ≥ 2 when a == b).
    --cnt_[pt.a];
    --cnt_[pt.b];
    ++cnt_[pt.oa];
    ++cnt_[pt.ob];
    const std::uint32_t changed[4] = {pt.a, pt.b, pt.oa, pt.ob};
    for (std::size_t k = 0; k < 4; ++k) {
      bool dup = false;
      for (std::size_t j = 0; j < k; ++j) dup |= changed[j] == changed[k];
      if (dup) continue;
      for (const std::uint32_t idx : touch_[changed[k]]) {
        const double nw = weight_of(active_[idx]);
        w_active_ += nw - active_[idx].w;
        active_[idx].w = nw;
      }
    }
    ++events_;
  }

  P protocol_;
  Config config_;
  util::Rng rng_;        ///< scheduler stream (windows, thinning)
  util::Rng agent_rng_;  ///< passed to δ (deterministic δ draws nothing)
  std::uint32_t event_cap_;  ///< ceiling on every window's cap
  std::uint32_t cap_ = 0;    ///< the current window's cap (window_cap)

  bool table_built_ = false;
  std::uint32_t table_q_ = 0;            ///< registry extent at closure
  std::uint64_t table_version_ = 0;      ///< interner version at closure
  std::vector<PairType> active_;         ///< active (count-changing) types
  std::vector<std::vector<std::uint32_t>> touch_;  ///< class → active idxs
  std::vector<std::uint64_t> cnt_;       ///< detached id → count
  double w_active_ = 0.0;                ///< Σ active weights (current)
  double w_total_ = 0.0;                 ///< n·(n−1)

  bool uniform_net_ = false;  ///< all active types share one net delta
  std::vector<std::pair<std::uint32_t, std::int64_t>> net_;  ///< that delta

  std::uint64_t interactions_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t candidates_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t split_depth_ = 0;      ///< current split recursion depth
  std::uint64_t split_depth_max_ = 0;  ///< deepest recursion over the run
  std::uint64_t banded_pieces_ = 0;
  std::uint64_t marginals_ = 0;  ///< banded-path candidates resolved singly
  std::uint32_t cap_max_ = 0;    ///< largest window cap so far
};

}  // namespace ssle::pp
