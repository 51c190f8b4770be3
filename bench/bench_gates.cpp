// The engine timing gates, run by CI on every push.  No flags: the sizes
// are constants, so every run checks the same thing.  Each gate times two
// configurations of one workload with min_ab() (the minimum of three
// alternating runs each, so one scheduler hiccup or a cold cache cannot
// flip it) and compares them with a slack of the form k·t + 0.02 s:
//
//   memo  memoized δ-cache epidemic ≤ 1.25× uncached + 0.02 s (dense blocks)
//   leap  leaping epidemic sweep ≤ 1.25× batched + 0.02 s, and the two
//         sweeps' mean hitting times (Lemma A.2) agree within the 3× CI band
//   obs   metrics + Journal::tick per chunk ≤ 1.03× plain + 0.02 s
//   flat  forced flat block sampler ≥ 1.3× faster than forced Fenwick on
//         LooseLeaderElection (q = O(log n), the regime kAuto hands to flat)
//
// Exits 0 iff every gate passes, else 1 after naming each breached gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "analysis/experiment.hpp"
#include "analysis/measure.hpp"
#include "baselines/loose_leader.hpp"
#include "obs/journal.hpp"
#include "pp/batched_simulator.hpp"
#include "pp/epidemic.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace ssle;
using Clock = std::chrono::steady_clock;

// The memo, obs and flat workloads are sized so each side runs for
// ≈ 0.16–0.4 s, the leap sweep so its batched side runs ≈ 0.07 s: at
// those sizes a gate's factor decides it, not the 0.02 s slack.
constexpr std::uint32_t kEpiN = 1000000;          // memo + obs gates
constexpr std::uint64_t kEpiWork = 600ull * kEpiN;
constexpr std::uint64_t kSweepN = 10000000;       // leap gate
constexpr std::size_t kSweepTrials = 4;
constexpr std::uint32_t kFlatN = 50000;           // flat gate
constexpr std::uint64_t kFlatWork = 5000000;

template <class F> double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Minimum wall seconds of `run(false)` (a) and `run(true)` (b) over three
/// alternating rounds.
struct AB { double a = 1e300, b = 1e300; };
template <class Run> AB min_ab(Run&& run) {
  AB t;
  for (int round = 0; round < 3; ++round) {
    t.a = std::min(t.a, run(false));
    t.b = std::min(t.b, run(true));
  }
  return t;
}

int breaches = 0;
void report(const char* gate, bool ok, const std::string& detail) {
  std::cout << gate << ": " << detail << " — " << (ok ? "PASS" : "FAIL")
            << std::endl;
  if (!ok) {
    std::cerr << "bench_gates: gate '" << gate << "' breached\n";
    ++breaches;
  }
}

std::string vs(const char* a_name, double a, const char* b_name, double b) {
  return std::string(a_name) + " " + util::fmt(a, 3) + "s vs " + b_name + " " +
         util::fmt(b, 3) + "s (ratio " + util::fmt(a / b, 3) + ")";
}

}  // namespace

int main() {
  const pp::Epidemic epidemic{kEpiN};
  // memo: the δ-cache's lookups must not cost more than the δ calls they
  // replace on a two-state registry.
  const auto memo = min_ab([&](bool memoized) {
    pp::BatchedSimulator<pp::Epidemic> sim(
        epidemic, 5000, pp::BlockSampling::kDense,
        memoized ? pp::DeltaMemo::kEnabled : pp::DeltaMemo::kDisabled);
    return timed([&] { sim.step(kEpiWork); });
  });
  report("memo", memo.b <= 1.25 * memo.a + 0.02,
         vs("memoized", memo.b, "uncached", memo.a));

  // leap: on the Lemma A.2 epidemic, parity with batched is the floor.  The
  // trials fan out over all cores; the two sides use disjoint seed sets.
  analysis::SweepResult sweeps[2];
  const auto leap = min_ab([&](bool leaping) {
    const auto engine =
        leaping ? analysis::Engine::kLeaping : analysis::Engine::kBatched;
    return timed([&] {
      sweeps[leaping] = analysis::parallel_sweep(
          leaping ? 6000 : 2000, kSweepTrials,
          [&](std::uint64_t s) {
            const auto r = analysis::epidemic_convergence(engine, kSweepN, s);
            return r.converged ? static_cast<double>(r.interactions) : -1.0;
          },
          /*jobs=*/0);
    });
  });
  report("leap", leap.b <= 1.25 * leap.a + 0.02,
         vs("leaping", leap.b, "batched", leap.a));
  const double ci_b = util::ci95_halfwidth(sweeps[0].summary);
  const double ci_l = util::ci95_halfwidth(sweeps[1].summary);
  const double gap = std::abs(sweeps[1].summary.mean - sweeps[0].summary.mean);
  const double band = 3.0 * std::sqrt(ci_b * ci_b + ci_l * ci_l);
  report("leap-law",
         sweeps[0].failures == 0 && sweeps[1].failures == 0 && gap <= band,
         "|mean gap| " + util::fmt(gap, 0) + " vs band " + util::fmt(band, 0));

  // obs: reading the always-on counters (an EngineMetrics snapshot and a
  // Journal::tick per chunk) must stay under 3% on the hottest path.  Both
  // sides step in the same chunks, so the engine work is identical.
  const auto obs = min_ab([&](bool observed) {
    pp::BatchedSimulator<pp::Epidemic> sim(epidemic, 8000,
                                           pp::BlockSampling::kDense);
    obs::Journal journal({.path = "/dev/null",
                          .every_interactions = kEpiWork / 4,
                          .budget = kEpiWork,
                          .run = "bench_gates_obs"});
    return timed([&] {
      for (std::uint64_t done = 0; done < kEpiWork; done += kEpiN) {
        sim.step(std::min<std::uint64_t>(kEpiN, kEpiWork - done));
        if (observed) journal.tick(sim.interactions(), sim.metrics());
      }
    });
  });
  report("obs", obs.b <= 1.03 * obs.a + 0.02,
         vs("observed", obs.b, "plain", obs.a));

  // flat: the branchless cumulative scan against the Fenwick descent; the
  // deterministic δ memoizes identically on both sides.
  const baselines::LooseLeaderElection loose(kFlatN, /*timeout_scale=*/1);
  const auto flat = min_ab([&](bool fenwick) {
    pp::BatchedSimulator<baselines::LooseLeaderElection> sim(
        loose, 9100,
        fenwick ? pp::BlockSampling::kFenwick : pp::BlockSampling::kFlat);
    return timed([&] { sim.step(kFlatWork); });
  });
  report("flat", 1.3 * flat.a <= flat.b + 0.02,
         vs("fenwick", flat.b, "flat", flat.a));

  return breaches == 0 ? 0 : 1;
}
