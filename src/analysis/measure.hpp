// Stabilization / convergence measurement for ElectLeader_r and baselines.
//
// ElectLeader_r experiments funnel through one entry point:
//
//   stabilize(start, params, corruption, seed, budget [, topology, probes])
//
// with start ∈ {clean, adversarial} × topology — the paper's measurement
// matrix (clean-start convergence, Theorem 1.1; recovery from arbitrary
// corruption, Lemma 6.3).  It runs the naive agent-array engine, which is
// the fastest exact engine for ElectLeader_r at every size the repo runs:
// the protocol keeps q ≈ n live states, so counts do not compress it.  The
// epidemic (epidemic_convergence) and the derandomized variant keep the
// Engine choice.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/agent.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"
#include "obs/metrics.hpp"
#include "pp/simulator.hpp"

namespace ssle::obs {
class Journal;
}  // namespace ssle::obs

namespace ssle::analysis {

class Trace;

struct StabilizationResult {
  bool converged = false;
  std::uint64_t interactions = 0;
  double parallel_time = 0.0;
  std::uint32_t leaders = 0;  ///< leader count at the end
  /// Engine counter snapshot at the end of the run (obs/metrics.hpp):
  /// which engine actually ran (after routing), and what it did.
  obs::EngineMetrics metrics;
};

/// Observability hooks for stabilize(): evaluated at the same probe grid as
/// the safe predicate.  The trace records a census + safety flag per probe;
/// the journal emits heartbeat events with the engine's live counters.
/// Both are optional and may be combined; `probe_every` of 0 keeps the
/// default probe grid (n interactions).  Crash-safe checkpoints are a
/// fault-runner feature (analysis/churn.hpp, FaultRunOptions).
struct ProbeOptions {
  Trace* trace = nullptr;
  obs::Journal* journal = nullptr;
  std::uint64_t probe_every = 0;
};

/// Which simulation engine a measurement should run on.
/// The counts engines simulate the uniform scheduler only, so every
/// non-complete Topology runs on the naive engine (see Topology).
///
/// kLeaping selects pp::LeapingSimulator where the workload is eligible
/// (deterministic δ AND a narrow registry, pp::LeapEligible).
/// DerandomizedElectLeader keeps q ≈ n distinct states, so it is not
/// leap-eligible: stabilize_derandomized() routes kLeaping to the batched
/// engine (the nearest exact engine) rather than failing.  Leaping pays off
/// on the workloads that can leap (epidemic_convergence below).
enum class Engine { kNaive, kBatched, kLeaping };

/// Which initial configuration a measurement starts from: the protocol's
/// clean initial configuration, or an adversarial configuration drawn by
/// core::make_adversarial_config (self-stabilization quantifies over
/// arbitrary starts).
enum class StartKind { kClean, kAdversarial };

/// Which interaction topology a measurement runs on.  Every kind runs on
/// the naive engine under the matching scheduler; only kComplete also runs
/// on the counts engines:
///
///   * kComplete      — the classical model; every engine, unchanged paths.
///   * kIslands       — K cliques (intra weight) bridged all-to-all (inter
///                      weight): pp::BlockedScheduler over a
///                      pp::BlockedTopology.
///   * kMultipartite  — complete K-partite (inter edges only): same
///                      scheduler as islands.
///   * kRing          — the cycle graph: pp::GraphScheduler.
///
/// epidemic_convergence() reroutes a batched/leaping request on any
/// non-complete topology to naive with a loud stderr note; population
/// sizes beyond the naive engine's uint32 limit are a hard error naming
/// the topology, because no engine supports that point.
struct Topology {
  enum class Kind { kComplete, kIslands, kMultipartite, kRing };
  Kind kind = Kind::kComplete;
  std::uint32_t communities = 1;  ///< K (blocked kinds only)
  double intra = 1.0;             ///< islands intra-community edge weight
  double inter = 0.05;            ///< islands inter-community edge weight
  std::string spec = "complete";  ///< the canonical CLI spelling
};

/// Parses a `--topology=` CLI value:
///   complete | ring | islands:K | islands:K:intra:inter | multipartite:K
/// Exits with a clear error on anything else (K and the weights are
/// validated here; sizes are validated against n when a run builds the
/// pp::BlockedTopology).
Topology topology_from_string(const std::string& spec);
const char* topology_name(const Topology& topology);

/// Parses a `--engine=` CLI value ("naive" | "batched" | "leaping"); exits
/// with a clear error on anything else.
Engine engine_from_string(const std::string& name);
const char* engine_name(Engine engine);

/// The engine a run on `topology` actually uses when `engine` is asked
/// for: the request itself on the complete graph, naive on every other
/// topology.  epidemic_convergence() routes by this, so reports name it.
Engine resolved_engine(Engine engine, const Topology& topology);

/// Parses a `--start=` CLI value ("clean" | "adversarial"); exits with a
/// clear error on anything else.
StartKind start_from_string(const std::string& name);
const char* start_name(StartKind start);

/// Parses a `--mult=` CLI value ("faithful" | "light"); exits with a
/// clear error on anything else (a typo'd "light" must not silently run
/// the far more expensive faithful sweep).
core::MessageMultiplicity multiplicity_from_string(const std::string& name);
const char* multiplicity_name(core::MessageMultiplicity mult);

/// Runs ElectLeader_r on the naive engine over the chosen topology from the
/// chosen start until the safe predicate holds (or the budget is
/// exhausted).  `corruption` is consulted only for StartKind::kAdversarial;
/// the adversarial configuration is drawn from a seed-derived stream
/// (substream 77).  kComplete runs pp::UniformScheduler, blocked topologies
/// pp::BlockedScheduler (agent i in community_of_agent(i)), and kRing
/// pp::GraphScheduler over the cycle.
StabilizationResult stabilize(StartKind start, const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const Topology& topology = {},
                              const ProbeOptions& probes = {});

/// Clean-start convenience overload.  Deliberately takes no StartKind:
/// an adversarial measurement must name its corruption class, so there
/// is no way to ask for an adversarial start and silently get kNone.
StabilizationResult stabilize(const core::Params& params, std::uint64_t seed,
                              std::uint64_t max_interactions);

/// Runs core::DerandomizedElectLeader (paper App. B: ElectLeader_r with a
/// *deterministic* transition function) from a clean start on the chosen
/// engine until the safe predicate holds.  On the batched engine the
/// deterministic-δ opt-in routes every interaction through the memoized
/// (id, id) → (id, id) transition cache (pp/delta_cache.hpp) — this is the
/// measurement entry point for that path (tests/test_delta_cache.cpp).
StabilizationResult stabilize_derandomized(Engine engine,
                                           const core::Params& params,
                                           std::uint64_t seed,
                                           std::uint64_t max_interactions);

/// Runs ElectLeader_r from an explicit per-agent configuration under the
/// uniform scheduler (the building block for mid-run-corruption tests and
/// any measurement that needs agent identity).
StabilizationResult stabilize_from(const core::Params& params,
                                   std::vector<core::Agent> config,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   const ProbeOptions& probes = {});

/// A generous default interaction budget for (n, r):
/// c · (n²/r) · log n, scaled to dominate the protocol's constants.
std::uint64_t default_budget(const core::Params& params);

/// Lemma A.2 acceptance workload: the one-way epidemic from one infected
/// agent (agent 0, community 0), run to full infection on the chosen engine
/// and topology.  Returns the raw RunResult (interactions at the first
/// probe where infection is total).  `n` is 64-bit — the leap engine runs
/// this at n = 10^10, beyond the uint32 population sizes of the agent-array
/// engine — so the counts configurations are built directly from
/// {1 infected, n−1 susceptible} in O(1), never an O(n) agent loop.  The
/// naive engine materializes n agents and is rejected (exit 2) above
/// uint32.
///
/// Topology routing: every non-complete topology runs on the naive engine
/// (pp::BlockedScheduler for islands/multipartite, pp::GraphScheduler over
/// the cycle for kRing); batched/leaping requests reroute loudly, and n
/// beyond uint32 is a hard error naming the topology.
///
/// `max_interactions` of 0 means the default budget: 64 · n · ⌈log2 n⌉ on
/// the complete graph, 8× that on a blocked topology (crossing sparse
/// inter-community cuts), and 16·n² on the ring (the cycle spreads by
/// boundary contact — Θ(n²) interactions, paper §2 conductance).
/// `probe_every` of 0 means the engines' default probe grid (n) — pass 1
/// for exact hit times when fitting constants at small n (bench_f9).
/// The trailing `journal` (when non-null) receives a heartbeat with the
/// engine's counter snapshot at every probe — the cheap way to watch a
/// n = 10^10 leap run make progress.
pp::RunResult epidemic_convergence(Engine engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions = 0,
                                   std::uint64_t probe_every = 0,
                                   const Topology& topology = {},
                                   obs::Journal* journal = nullptr);

}  // namespace ssle::analysis
