// Phase-timeline tracing: samples a census at fixed probe intervals and
// derives phase milestones (first all-ranker, first verifier, first
// all-verifier, first safe) plus reset-wave counts.  Gives experiments and
// debugging sessions a compact view of *where the time goes* inside
// ElectLeader_r (ranking vs countdown vs verification).
//
// record() takes the agent vector of a naive-engine run
// (analysis::stabilize's ProbeOptions::trace).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/census.hpp"
#include "core/params.hpp"

namespace ssle::analysis {

struct TracePoint {
  std::uint64_t interactions = 0;
  Census census;
};

class Trace {
 public:
  explicit Trace(core::Params params) : params_(std::move(params)) {}

  /// Records one probe.
  void record(std::uint64_t interactions,
              const std::vector<core::Agent>& config);

  const std::vector<TracePoint>& points() const { return points_; }

  // --- Milestones (probe-granular; nullopt if never reached) --------------
  std::optional<std::uint64_t> first_verifier() const;
  std::optional<std::uint64_t> all_verifiers() const;
  std::optional<std::uint64_t> first_safe() const;
  /// Number of distinct reset waves observed (probes where resetters
  /// appear after a probe without any).
  std::uint32_t reset_waves() const;

  /// Multi-line human-readable phase summary.
  std::string summary() const;

 private:
  core::Params params_;
  std::vector<TracePoint> points_;
  std::vector<bool> safe_;  ///< per-point safety flag
};

}  // namespace ssle::analysis
