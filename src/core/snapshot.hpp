// Configuration snapshots: serialize/restore full ElectLeader_r
// configurations as a line-based text format.
//
// Use cases: persisting adversarial counterexample configurations found by
// fuzzing, replaying a run from a checkpoint, and diffing configurations
// across runs.  The format is versioned and self-describing; parsing is
// strict (any malformed field yields std::nullopt rather than a partially
// initialized population).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/params.hpp"

namespace ssle::core {

/// Serializes a configuration (one agent per stanza).
std::string snapshot_write(const Params& params,
                           const std::vector<Agent>& config);

/// Parses a snapshot produced by snapshot_write.  Returns std::nullopt on
/// any syntactic or structural error (wrong agent count, bad field,
/// trailing garbage such as a duplicated agent stanza, ...).
std::optional<std::vector<Agent>> snapshot_read(const Params& params,
                                                const std::string& text);

/// Serializes ONE agent as its snapshot stanza (no header) — the per-state
/// codec checkpoints (obs/checkpoint.hpp) use to store ElectLeader_r
/// registry entries and naive agents.
std::string snapshot_write_agent(const Agent& a);

/// Parses exactly one stanza produced by snapshot_write_agent.  Strict:
/// any malformed field or trailing non-whitespace yields std::nullopt.
std::optional<Agent> snapshot_read_agent(const std::string& text);

}  // namespace ssle::core
