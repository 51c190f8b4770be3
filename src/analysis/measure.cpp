#include "analysis/measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "analysis/trace.hpp"
#include "core/derandomized.hpp"
#include "core/safety.hpp"
#include "obs/journal.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/leaping_simulator.hpp"
#include "pp/simulator.hpp"

namespace ssle::analysis {

std::uint64_t default_budget(const core::Params& params) {
  const double n = params.n;
  const double r = params.r;
  const double L = std::log2(n) + 1.0;
  return static_cast<std::uint64_t>(150.0 * (n * n / r) * L) + 200000;
}

namespace {

/// Naive-engine stabilization under an explicit scheduler: UniformScheduler
/// on the complete graph, BlockedScheduler for blocked topologies,
/// GraphScheduler for the ring.
template <typename Sched>
StabilizationResult stabilize_population(const core::Params& params,
                                         std::vector<core::Agent> config,
                                         Sched scheduler, std::uint64_t seed,
                                         std::uint64_t max_interactions,
                                         const ProbeOptions& probes) {
  core::ElectLeader protocol(params);
  pp::Population<core::ElectLeader> population(std::move(config));
  pp::Simulator<core::ElectLeader, Sched> sim(
      protocol, std::move(population), std::move(scheduler), seed);

  const auto probe = [&](const pp::Population<core::ElectLeader>& pop,
                         std::uint64_t t) {
    if (probes.trace) probes.trace->record(t, pop.states());
    if (probes.journal) probes.journal->tick(t, sim.metrics());
    return core::is_safe_configuration(params, pop.states());
  };
  const auto run =
      sim.run_until(probe, max_interactions,
                    probes.probe_every ? probes.probe_every : params.n);

  StabilizationResult res;
  res.converged = run.converged;
  res.interactions = run.interactions;
  res.parallel_time = run.parallel_time(params.n);
  res.leaders = core::leader_count(sim.population().states());
  res.metrics = sim.metrics();
  return res;
}

/// The protocol's clean initial configuration as a per-agent array.
std::vector<core::Agent> clean_config(const core::Params& params) {
  core::ElectLeader protocol(params);
  std::vector<core::Agent> config;
  config.reserve(params.n);
  for (std::uint32_t i = 0; i < params.n; ++i) {
    config.push_back(protocol.initial_state(i));
  }
  return config;
}

/// The pp::BlockedTopology of an islands or multipartite topology at
/// population size n (exits 2 when n is too small for K communities).
pp::BlockedTopology blocked_topology(const Topology& topology,
                                     std::uint64_t n) {
  if (topology.kind == Topology::Kind::kMultipartite) {
    return pp::BlockedTopology::multipartite(n, topology.communities);
  }
  return pp::BlockedTopology::islands(n, topology.communities, topology.intra,
                                      topology.inter);
}

/// The hard S1 error: an engine/topology/size combination NO engine can
/// run.  Always names the topology.
[[noreturn]] void no_engine_for_topology(const Topology& topology,
                                         std::uint64_t n, const char* why) {
  std::fprintf(stderr,
               "error: no engine supports topology '%s' at n=%llu: %s\n",
               topology_name(topology), static_cast<unsigned long long>(n),
               why);
  std::exit(2);
}

}  // namespace

StabilizationResult stabilize_from(const core::Params& params,
                                   std::vector<core::Agent> config,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   const ProbeOptions& probes) {
  const auto n = static_cast<std::uint32_t>(config.size());
  return stabilize_population(params, std::move(config),
                              pp::UniformScheduler(n, util::substream(seed, 1)),
                              seed, max_interactions, probes);
}

StabilizationResult stabilize(StartKind start, const core::Params& params,
                              core::Corruption corruption, std::uint64_t seed,
                              std::uint64_t max_interactions,
                              const Topology& topology,
                              const ProbeOptions& probes) {
  // Every topology starts from the same agent array (on a blocked topology
  // agent i lives in community_of_agent(i)).  Adversarial starts draw it
  // from a seed-derived stream (substream 77, distinct from the simulation
  // streams).
  std::vector<core::Agent> config;
  if (start == StartKind::kClean) {
    config = clean_config(params);
  } else {
    util::Rng rng(util::substream(seed, 77));
    config = core::make_adversarial_config(params, corruption, rng);
  }

  if (topology.kind == Topology::Kind::kComplete) {
    return stabilize_from(params, std::move(config), seed, max_interactions,
                          probes);
  }
  if (topology.kind == Topology::Kind::kRing) {
    return stabilize_population(
        params, std::move(config),
        pp::GraphScheduler(pp::Graph::cycle(params.n),
                           util::substream(seed, 1)),
        seed, max_interactions, probes);
  }
  return stabilize_population(
      params, std::move(config),
      pp::BlockedScheduler(blocked_topology(topology, params.n),
                           util::substream(seed, 1)),
      seed, max_interactions, probes);
}

StabilizationResult stabilize(const core::Params& params, std::uint64_t seed,
                              std::uint64_t max_interactions) {
  return stabilize(StartKind::kClean, params, core::Corruption::kNone, seed,
                   max_interactions);
}

namespace {

/// Safety probe for the derandomized protocol's counts projection: the
/// multiset-checkable parts run first (every agent a verifier; in a safe
/// configuration all ranks — hence all agents — are distinct, so every
/// live class must have count 1), and only then is the O(n) agent
/// expansion paid for the message-system scan.
bool derandomized_counts_safe(
    const core::Params& params,
    const pp::CountsConfiguration<core::DerandomizedElectLeader>& counts) {
  if (counts.population_size() != params.n) return false;
  if (counts.num_live_states() != params.n) return false;
  bool all_verifiers = true;
  counts.for_each([&](const core::DerandomizedElectLeader::State& s,
                      std::uint64_t c) {
    all_verifiers &= c == 1 && s.agent.role == core::Role::kVerifying;
  });
  if (!all_verifiers) return false;
  std::vector<core::Agent> agents;
  agents.reserve(params.n);
  counts.for_each([&](const core::DerandomizedElectLeader::State& s,
                      std::uint64_t c) {
    for (std::uint64_t i = 0; i < c; ++i) agents.push_back(s.agent);
  });
  return core::is_safe_configuration(params, agents);
}

}  // namespace

StabilizationResult stabilize_derandomized(Engine engine,
                                           const core::Params& params,
                                           std::uint64_t seed,
                                           std::uint64_t max_interactions) {
  core::DerandomizedElectLeader protocol(params);
  StabilizationResult res;
  if (engine == Engine::kNaive) {
    pp::Simulator<core::DerandomizedElectLeader> sim(protocol, seed);
    const auto probe =
        [&](const pp::Population<core::DerandomizedElectLeader>& pop,
            std::uint64_t) {
          std::vector<core::Agent> agents;
          agents.reserve(pop.size());
          for (std::uint32_t i = 0; i < pop.size(); ++i) {
            if (pop[i].agent.role != core::Role::kVerifying) return false;
            agents.push_back(pop[i].agent);
          }
          return core::is_safe_configuration(params, agents);
        };
    const auto run = sim.run_until(probe, max_interactions,
                                   /*probe_every=*/params.n);
    res.converged = run.converged;
    res.interactions = run.interactions;
    res.parallel_time = run.parallel_time(params.n);
    res.leaders = 0;
    for (std::uint32_t i = 0; i < params.n; ++i) {
      res.leaders += core::DerandomizedElectLeader::is_leader(
          sim.population()[i]);
    }
    res.metrics = sim.metrics();
    return res;
  }

  // kBatched and kLeaping both land here: DerandomizedElectLeader has a
  // deterministic δ but keeps q ≈ n distinct states (FastLE identifiers,
  // ranks), so it fails the narrow-registry half of pp::LeapEligible —
  // and with almost every pair type active there are no null runs for the
  // leap engine to jump anyway.
  pp::BatchedSimulator<core::DerandomizedElectLeader> sim(protocol, seed);
  const auto probe =
      [&](const pp::CountsConfiguration<core::DerandomizedElectLeader>& c,
          std::uint64_t) { return derandomized_counts_safe(params, c); };
  const auto run = sim.run_until(probe, max_interactions,
                                 /*probe_every=*/params.n);
  res.converged = run.converged;
  res.interactions = run.interactions;
  res.parallel_time = run.parallel_time(params.n);
  res.leaders = static_cast<std::uint32_t>(
      sim.config().count_if(core::DerandomizedElectLeader::is_leader));
  res.metrics = sim.metrics();
  return res;
}

Engine engine_from_string(const std::string& name) {
  if (name == "naive") return Engine::kNaive;
  if (name == "batched") return Engine::kBatched;
  if (name == "leaping") return Engine::kLeaping;
  std::fprintf(stderr,
               "error: --engine=%s is not a valid engine "
               "(naive|batched|leaping)\n",
               name.c_str());
  std::exit(2);
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kNaive:
      return "naive";
    case Engine::kBatched:
      return "batched";
    case Engine::kLeaping:
      return "leaping";
  }
  return "unknown";
}

Engine resolved_engine(Engine engine, const Topology& topology) {
  return topology.kind == Topology::Kind::kComplete ? engine : Engine::kNaive;
}

StartKind start_from_string(const std::string& name) {
  if (name == "clean") return StartKind::kClean;
  if (name == "adversarial") return StartKind::kAdversarial;
  std::fprintf(stderr,
               "error: --start=%s is not a valid start (clean|adversarial)\n",
               name.c_str());
  std::exit(2);
}

const char* start_name(StartKind start) {
  return start == StartKind::kClean ? "clean" : "adversarial";
}

Topology topology_from_string(const std::string& spec) {
  Topology t;
  t.spec = spec;
  if (spec == "complete") {
    t.kind = Topology::Kind::kComplete;
    return t;
  }
  if (spec == "ring") {
    t.kind = Topology::Kind::kRing;
    return t;
  }
  unsigned k = 0;
  double intra = 1.0;
  double inter = 0.05;
  char tail = 0;
  // Longest form first; the %c sentinel rejects trailing garbage (a typo'd
  // spec must not silently run a different topology).
  if (std::sscanf(spec.c_str(), "islands:%u:%lf:%lf%c", &k, &intra, &inter,
                  &tail) == 3) {
    t.kind = Topology::Kind::kIslands;
  } else if (std::sscanf(spec.c_str(), "islands:%u%c", &k, &tail) == 1) {
    t.kind = Topology::Kind::kIslands;
    intra = 1.0;
    inter = 0.05;
  } else if (std::sscanf(spec.c_str(), "multipartite:%u%c", &k, &tail) == 1) {
    t.kind = Topology::Kind::kMultipartite;
    intra = 0.0;
    inter = 1.0;
  } else {
    std::fprintf(stderr,
                 "error: --topology=%s is not a valid topology "
                 "(complete|ring|islands:K|islands:K:intra:inter|"
                 "multipartite:K)\n",
                 spec.c_str());
    std::exit(2);
  }
  t.communities = k;
  t.intra = intra;
  t.inter = inter;
  if (k == 0) {
    std::fprintf(stderr, "error: --topology=%s: K must be >= 1\n",
                 spec.c_str());
    std::exit(2);
  }
  if (t.kind == Topology::Kind::kMultipartite && k < 2) {
    std::fprintf(stderr,
                 "error: --topology=%s: a complete multipartite graph needs "
                 "K >= 2 blocks (K=1 has no edges)\n",
                 spec.c_str());
    std::exit(2);
  }
  if (intra < 0.0 || inter < 0.0) {
    std::fprintf(stderr, "error: --topology=%s: edge weights must be >= 0\n",
                 spec.c_str());
    std::exit(2);
  }
  if (t.kind == Topology::Kind::kIslands && k > 1 && inter <= 0.0) {
    std::fprintf(stderr,
                 "error: --topology=%s: K > 1 islands with inter weight 0 "
                 "are disconnected\n",
                 spec.c_str());
    std::exit(2);
  }
  if (t.kind == Topology::Kind::kIslands && k == 1 && intra <= 0.0) {
    std::fprintf(stderr,
                 "error: --topology=%s: a single island with intra weight 0 "
                 "has no edges\n",
                 spec.c_str());
    std::exit(2);
  }
  return t;
}

const char* topology_name(const Topology& topology) {
  return topology.spec.c_str();
}

namespace {

std::uint64_t epidemic_budget(std::uint64_t n) {
  std::uint64_t log2ceil = 0;
  while ((std::uint64_t{1} << log2ceil) < n) ++log2ceil;
  return 64ull * n * std::max<std::uint64_t>(1, log2ceil);
}

/// {1 infected, n−1 susceptible} as a counts configuration in O(1) —
/// never an O(n) agent loop, so n = 10^10 costs nothing to set up.
pp::CountsConfiguration<pp::Epidemic> epidemic_counts(std::uint64_t n) {
  pp::CountsConfiguration<pp::Epidemic> counts(std::vector<int>{1});
  counts.add(0, n - 1);
  return counts;
}

}  // namespace

pp::RunResult epidemic_convergence(Engine engine, std::uint64_t n,
                                   std::uint64_t seed,
                                   std::uint64_t max_interactions,
                                   std::uint64_t probe_every,
                                   const Topology& topology,
                                   obs::Journal* journal) {
  if (n < 2) return {0, true};
  // The protocol object's n is only consulted when an engine builds the
  // clean start itself; the counts engines get the configuration
  // pre-built, so clamping to uint32 range is harmless bookkeeping.
  const pp::Epidemic protocol{
      static_cast<std::uint32_t>(std::min<std::uint64_t>(n, 0xffffffffull))};
  // Runs an engine to full infection: heartbeat (when journaled), then the
  // convergence check, at every probe.
  const auto run_to_infection = [&](auto& sim) {
    return sim.run_until(
        [&](const auto& config, std::uint64_t t) {
          if (journal) journal->tick(t, sim.metrics());
          if constexpr (requires { config.count_of(0); }) {
            return config.count_of(0) == 0;
          } else {
            for (std::uint32_t i = 0; i < config.size(); ++i) {
              if (config[i] == 0) return false;
            }
            return true;
          }
        },
        max_interactions, probe_every);
  };

  if (topology.kind == Topology::Kind::kComplete) {
    if (max_interactions == 0) max_interactions = epidemic_budget(n);
    switch (engine) {
      case Engine::kNaive: {
        if (n > 0xffffffffull) {
          std::fprintf(stderr,
                       "error: the naive engine materializes n agents; "
                       "n=%llu exceeds its uint32 population limit "
                       "(use --engine=batched or --engine=leaping)\n",
                       static_cast<unsigned long long>(n));
          std::exit(2);
        }
        pp::Simulator<pp::Epidemic> sim(protocol, seed);
        return run_to_infection(sim);
      }
      case Engine::kBatched: {
        pp::BatchedSimulator<pp::Epidemic> sim(protocol, epidemic_counts(n),
                                               seed);
        return run_to_infection(sim);
      }
      case Engine::kLeaping: {
        pp::LeapingSimulator<pp::Epidemic> sim(protocol, epidemic_counts(n),
                                               seed);
        return run_to_infection(sim);
      }
    }
    return {0, false};
  }
  // The counts engines simulate the uniform scheduler only, so every other
  // topology runs on the naive engine: a batched/leaping request reroutes
  // with a loud note.
  if (n > 0xffffffffull) {
    no_engine_for_topology(topology, n,
                           "only the naive engine runs non-complete "
                           "topologies, and it materializes n agents "
                           "(uint32 limit)");
  }
  if (resolved_engine(engine, topology) != engine) {
    std::fprintf(stderr,
                 "note: topology '%s' has no lumped configuration; routing "
                 "--engine=%s to the naive agent-array engine\n",
                 topology_name(topology), engine_name(engine));
  }

  if (topology.kind == Topology::Kind::kRing) {
    if (max_interactions == 0) {
      // The cycle spreads by boundary contact: Θ(n²) interactions.
      const long double b = 16.0L * static_cast<long double>(n) *
                            static_cast<long double>(n);
      max_interactions = b > 1.8e19L ? ~std::uint64_t{0}
                                     : static_cast<std::uint64_t>(b);
    }
    pp::Simulator<pp::Epidemic, pp::GraphScheduler> sim(
        protocol, pp::Population<pp::Epidemic>(protocol),
        pp::GraphScheduler(pp::Graph::cycle(static_cast<std::uint32_t>(n)),
                           util::substream(seed, 1)),
        seed);
    return run_to_infection(sim);
  }

  // Blocked topology.  The default budget is 8× the complete-graph bound:
  // spreading must cross the (possibly low-weight) inter-community cut,
  // but each crossing is a one-time event against a Θ(n log n) backbone.
  if (max_interactions == 0) max_interactions = 8 * epidemic_budget(n);
  pp::Simulator<pp::Epidemic, pp::BlockedScheduler> sim(
      protocol, pp::Population<pp::Epidemic>(protocol),
      pp::BlockedScheduler(blocked_topology(topology, n),
                           util::substream(seed, 1)),
      seed);
  return run_to_infection(sim);
}

core::MessageMultiplicity multiplicity_from_string(const std::string& name) {
  if (name == "faithful") return core::MessageMultiplicity::kFaithful;
  if (name == "light") return core::MessageMultiplicity::kLight;
  std::fprintf(
      stderr,
      "error: --mult=%s is not a valid multiplicity (faithful|light)\n",
      name.c_str());
  std::exit(2);
}

const char* multiplicity_name(core::MessageMultiplicity mult) {
  return mult == core::MessageMultiplicity::kFaithful ? "faithful" : "light";
}

}  // namespace ssle::analysis
