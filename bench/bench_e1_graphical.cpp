// Experiment E1 (extension) — graphical populations (paper §2, related
// work on anonymous networks): how do the paper's substrate primitives and
// the full protocol behave when interactions are restricted to the edges
// of a communication graph?
//
//   §1  Epidemic time tracks the graph's conductance (complete ≈ expander ≪
//       cycle/path/star-center-bottleneck), and ElectLeader_r — designed
//       for the complete graph — still stabilizes on dense/expander graphs
//       but degrades on low-conductance ones.
//   §2  Election scenarios: bully-style max-identifier election on the
//       complete graph, the star, and the ring — the classical distributed-
//       computing comparison point (one immortal leader, no
//       self-stabilization), whose runtime is exactly an epidemic of the
//       max identifier.
//   §3  Structured topologies: the naive BlockedScheduler engine runs
//       blocked topologies (islands:K, multipartite:K) at --ncmp agents
//       without materializing an edge list (an islands edge list at
//       n = 10^6 holds ~5·10^11 edges); tests/test_topology.cpp pins its
//       pair law.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "core/elect_leader.hpp"
#include "core/safety.hpp"
#include "obs/report.hpp"
#include "pp/epidemic.hpp"
#include "pp/graph.hpp"
#include "pp/simulator.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double epidemic_time(const pp::Graph& g, std::uint64_t seed) {
  pp::Epidemic proto{g.vertices()};
  pp::Simulator<pp::Epidemic, pp::GraphScheduler> sim(
      proto, pp::Population<pp::Epidemic>(proto), pp::GraphScheduler(g, seed),
      seed);
  const auto res = sim.run_until(
      [](const pp::Population<pp::Epidemic>& pop, std::uint64_t) {
        for (std::uint32_t i = 0; i < pop.size(); ++i) {
          if (pop[i] == 0) return false;
        }
        return true;
      },
      1u << 26, g.vertices());
  return res.converged ? static_cast<double>(res.interactions) : -1.0;
}

double elect_leader_time(const pp::Graph& g, const core::Params& params,
                         std::uint64_t seed, std::uint64_t budget) {
  core::ElectLeader protocol(params);
  pp::Population<core::ElectLeader> pop(protocol);
  pp::Simulator<core::ElectLeader, pp::GraphScheduler> sim(
      protocol, std::move(pop), pp::GraphScheduler(g, seed), seed);
  const auto res = sim.run_until(
      [&](const pp::Population<core::ElectLeader>& c, std::uint64_t) {
        return core::is_safe_configuration(params, c.states());
      },
      budget, params.n);
  return res.converged ? static_cast<double>(res.interactions) : -1.0;
}

// Bully-style max-identifier election: every agent starts leading with its
// own identifier; interacting agents both adopt the larger identifier seen
// so far, and an agent leads iff it still carries its own.  One immortal
// unique leader (agent n−1) emerges when its identifier has reached
// everyone — election time IS the epidemic time of that identifier, which
// makes this the clean scenario for conductance comparisons (and the
// classical non-self-stabilizing baseline: a single corrupted max_seen
// above n−1 kills every leader forever).
struct MaxIdElection {
  struct State {
    std::uint32_t own = 0;
    std::uint32_t max_seen = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  std::uint32_t n;
  std::uint32_t population_size() const { return n; }
  State initial_state(std::uint32_t agent) const { return {agent, agent}; }
  void interact(State& u, State& v, util::Rng&) const {
    const std::uint32_t m = std::max(u.max_seen, v.max_seen);
    u.max_seen = m;
    v.max_seen = m;
  }
  static bool is_leader(const State& s) { return s.own == s.max_seen; }
};

double bully_time(const pp::Graph& g, std::uint64_t seed) {
  MaxIdElection proto{g.vertices()};
  pp::Simulator<MaxIdElection, pp::GraphScheduler> sim(
      proto, pp::Population<MaxIdElection>(proto), pp::GraphScheduler(g, seed),
      seed);
  const auto res = sim.run_until(
      [](const pp::Population<MaxIdElection>& pop, std::uint64_t) {
        std::uint32_t leaders = 0;
        for (std::uint32_t i = 0; i < pop.size(); ++i) {
          leaders += MaxIdElection::is_leader(pop[i]) ? 1 : 0;
        }
        return leaders == 1;
      },
      1u << 26, g.vertices());
  return res.converged ? static_cast<double>(res.interactions) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto n = cli.get_count_u32("n", 48);
  const auto r = cli.get_count_u32("r", 12);
  const auto jobs = cli.get_jobs();
  const auto trials = cli.get_count("trials", 3);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 120));
  // §3 knobs: the population for the naive BlockedScheduler engine and an
  // optional single --topology restriction.
  const auto ncmp = cli.get_count_u32("ncmp", 20000);
  const bool one_topology = cli.has("topology");
  const auto topology_spec = cli.get_string("topology", "islands:4");
  const auto json_path = cli.get_string("json", "");
  cli.reject_unknown_flags();

  obs::Report report("e1_graphical", 8);
  report.set("n", static_cast<std::uint64_t>(n))
      .set("r", static_cast<std::uint64_t>(r))
      .set("trials", static_cast<std::uint64_t>(trials));

  analysis::print_banner(
      "E1 (extension: graphical populations, cf. §2)",
      "Population protocols transfer to communication graphs with runtime "
      "governed by graph properties (conductance)",
      "epidemic + stabilization: complete ≈ expander ≪ ER ≪ cycle/path; "
      "blocked topologies keep the epidemic near n ln n");

  util::Rng graph_rng(seed);
  std::vector<std::pair<std::string, pp::Graph>> graphs;
  graphs.emplace_back("complete", pp::Graph::complete(n));
  graphs.emplace_back("regular(d=8)",
                      pp::Graph::random_regular(n, 8, graph_rng));
  graphs.emplace_back("erdos_renyi(p=0.2)",
                      pp::Graph::erdos_renyi(n, 0.2, graph_rng));
  graphs.emplace_back("star", pp::Graph::star(n));
  graphs.emplace_back("cycle", pp::Graph::cycle(n));

  const core::Params params = core::Params::make(n, r);
  const std::uint64_t budget =
      60ull * analysis::default_budget(params);  // low-conductance headroom

  util::Table table({"graph", "edges", "epidemic(par.time)",
                     "stabilize(par.time)", "stab fails"});
  auto graph_rows = util::Json::array();
  for (const auto& [name, graph] : graphs) {
    const auto epi =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return epidemic_time(graph, s);
        }, jobs);
    const auto stab =
        analysis::parallel_sweep(seed, trials, [&](std::uint64_t s) {
          return elect_leader_time(graph, params, s, budget);
        }, jobs);
    table.add_row({name, util::fmt_int(static_cast<long long>(graph.edges())),
                   util::fmt(epi.summary.mean / n, 1),
                   stab.samples.empty() ? "-"
                                        : util::fmt(stab.summary.mean / n, 1),
                   util::fmt_int(static_cast<long long>(stab.failures))});
    auto row = util::Json::object();
    row.set("graph", name);
    row.set("edges", static_cast<std::uint64_t>(graph.edges()));
    row.set("epidemic_mean_interactions", epi.summary.mean);
    row.set("stabilize_mean_interactions",
            stab.samples.empty() ? -1.0 : stab.summary.mean);
    row.set("stabilize_failures", static_cast<std::uint64_t>(stab.failures));
    graph_rows.push(std::move(row));
  }
  report.section("conductance", std::move(graph_rows));
  table.print(std::cout);
  table.print_csv(std::cout);
  std::cout << "\nn=" << n << " r=" << r
            << ".  The paper's guarantees assume the complete interaction "
               "graph; this table measures how gracefully they degrade.\n";

  // --- §2: election scenarios ---------------------------------------------
  // Bully (max-identifier) election on the three canonical shapes.  The
  // ring is the classical ring-election setting; the star shows the
  // center bottleneck; the complete graph is the population-protocol
  // default.  Election time = max-identifier epidemic time.
  std::cout << "\n-- election scenarios: bully (max-id) --\n";
  util::Table bully({"scenario", "graph", "election(par.time)",
                     "epidemic(par.time)"});
  const std::vector<std::pair<std::string, pp::Graph>> scenarios = {
      {"bully/complete", pp::Graph::complete(n)},
      {"bully/star", pp::Graph::star(n)},
      {"bully/ring", pp::Graph::cycle(n)},
  };
  auto bully_rows = util::Json::array();
  for (const auto& [name, graph] : scenarios) {
    const auto elect =
        analysis::parallel_sweep(seed + 7, trials, [&](std::uint64_t s) {
          return bully_time(graph, s);
        }, jobs);
    const auto epi =
        analysis::parallel_sweep(seed + 7, trials, [&](std::uint64_t s) {
          return epidemic_time(graph, s);
        }, jobs);
    bully.add_row({name, name.substr(name.find('/') + 1),
                   util::fmt(elect.summary.mean / n, 1),
                   util::fmt(epi.summary.mean / n, 1)});
    auto row = util::Json::object();
    row.set("scenario", name);
    row.set("election_mean_interactions", elect.summary.mean);
    row.set("epidemic_mean_interactions", epi.summary.mean);
    bully_rows.push(std::move(row));
  }
  report.section("bully_election", std::move(bully_rows));
  bully.print(std::cout);
  bully.print_csv(std::cout);
  std::cout << "Electing a maximum is spreading it — but a leader dies as "
               "soon as ANY larger identifier reaches it, so uniqueness can "
               "arrive well before the maximum has spread everywhere "
               "(visible on the ring).\n";

  // --- §3: blocked topologies (the naive BlockedScheduler engine) ---------
  // Each topology runs the epidemic at --ncmp agents: O(K²) scheduler
  // memory, no edge list, exact law.
  std::cout << "\n-- blocked topologies --\n";
  std::vector<std::string> specs;
  if (one_topology) {
    specs.push_back(topology_spec);
  } else {
    specs = {"islands:4", "multipartite:4"};
  }
  util::Table blocked({"topology", "n", "interactions", "/(n ln n)", "wall_s"});
  auto scale_rows = util::Json::array();
  for (const std::string& spec : specs) {
    const auto t0 = Clock::now();
    // A probe every n/64 interactions, so the /(n ln n) column resolves
    // steps of 1/(64 ln n) rather than the default grid's 1/ln n.
    const auto res = analysis::epidemic_convergence(
        analysis::Engine::kNaive, ncmp, seed + 13, 0,
        std::max<std::uint64_t>(1, ncmp / 64),
        analysis::topology_from_string(spec));
    const double wall = seconds_since(t0);
    const double nlogn =
        static_cast<double>(ncmp) * std::log(static_cast<double>(ncmp));
    const auto t = static_cast<double>(res.interactions);
    blocked.add_row(
        {spec, util::fmt_int(static_cast<long long>(ncmp)),
         res.converged ? util::fmt_int(static_cast<long long>(t)) : "-",
         res.converged ? util::fmt(t / nlogn, 2) : "-", util::fmt(wall, 2)});
    auto jrow = util::Json::object();
    jrow.set("topology", spec);
    jrow.set("engine", analysis::engine_name(analysis::Engine::kNaive));
    jrow.set("n", static_cast<std::uint64_t>(ncmp));
    jrow.set("converged", res.converged);
    jrow.set("interactions", res.interactions);
    jrow.set("wall_s", wall);
    scale_rows.push(std::move(jrow));
  }
  blocked.print(std::cout);
  blocked.print_csv(std::cout);
  std::cout << "Blocked topologies keep the epidemic within a constant of "
               "n ln n while the cut weight stays bounded.\n";
  report.section("blocked_scale", std::move(scale_rows));
  report.write_if(json_path, std::cout);
  return 0;
}
