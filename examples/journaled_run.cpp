// Journaled epidemic run: the smallest end-to-end demo of the
// observability layer, and the driver CI uses to smoke a journaled
// leaping run at n = 10^6.
//
// Runs the Lemma A.2 epidemic on the chosen engine with an obs::Journal
// attached to the probe path, then prints the engine's final counter
// block.  Every heartbeat line in the journal is one JSON object:
//
//   ./journaled_run --engine=leaping --n=1000000 --journal=run.jsonl
//   ./journaled_run --engine=batched --n=100000        # journal on stderr
//
//   --engine=naive|batched|leaping   engine (default leaping)
//   --n=<agents>                     population size (default 10^6)
//   --seed=<u64>                     RNG seed (default 42)
//   --journal=<path>                 JSONL sink ("-" or unset = stderr)
//   --heartbeat-interactions=<k>     min interactions between heartbeats
//                                    (default n — one event per probe grid
//                                    step at most)
//   --topology=complete|islands:K[:intra:inter]|multipartite:K|ring
//                                    (any topology but complete runs on the
//                                    naive engine; a batched or leaping
//                                    request reroutes with a stderr note,
//                                    and the report names naive)
#include <cstdint>
#include <iostream>

#include "analysis/measure.hpp"
#include "obs/journal.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace ssle;
  const util::Cli cli(argc, argv);
  const auto engine =
      analysis::engine_from_string(cli.get_string("engine", "leaping"));
  const auto n = static_cast<std::uint64_t>(cli.get_count("n", 1000000));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const auto journal_path = cli.get_string("journal", "-");
  const auto heartbeat =
      static_cast<std::uint64_t>(cli.get_count("heartbeat-interactions", n));
  const auto topology =
      analysis::topology_from_string(cli.get_string("topology", "complete"));
  cli.reject_unknown_flags();

  obs::Journal::Options jopts;
  jopts.path = journal_path == "-" ? "" : journal_path;
  jopts.every_interactions = heartbeat;
  jopts.run = "journaled_epidemic";
  obs::Journal journal(jopts);

  const auto res = analysis::epidemic_convergence(engine, n, seed, 0, 0,
                                                  topology, &journal);
  // The engine that ran, which the heartbeats name too.
  const char* ran =
      analysis::engine_name(analysis::resolved_engine(engine, topology));

  auto summary = util::Json::object();
  summary.set("engine", ran);
  summary.set("n", n);
  summary.set("converged", res.converged);
  summary.set("interactions", res.interactions);
  summary.set("heartbeats", journal.events_emitted());
  journal.event("done", std::move(summary));

  std::cout << "epidemic on " << ran << " at n=" << n
            << (res.converged ? " converged" : " DID NOT CONVERGE") << " after "
            << res.interactions << " interactions; " << journal.events_emitted()
            << " journal events"
            << (jopts.path.empty() ? " (stderr)" : "") << "\n";
  return res.converged ? 0 : 1;
}
