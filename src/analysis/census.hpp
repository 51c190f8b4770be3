// Live state census: measures the actual footprint of a running
// configuration (message counts, per-role populations, generation spread).
// Complements core/state_size.* (which evaluates the formal state-space
// formulas) with what the simulation actually allocates.
#pragma once

#include <cstdint>
#include <vector>

#include "core/agent.hpp"
#include "core/elect_leader.hpp"
#include "core/params.hpp"

namespace ssle::analysis {

struct Census {
  std::uint32_t resetters = 0;
  std::uint32_t rankers = 0;
  std::uint32_t verifiers = 0;
  std::uint32_t leaders = 0;
  std::uint32_t errors = 0;          ///< agents at ⊤
  std::uint64_t total_messages = 0;  ///< circulating messages held
  std::uint64_t approx_bytes = 0;    ///< heap footprint of the configuration
  std::uint32_t distinct_generations = 0;
  std::uint32_t max_rank_multiplicity = 0;
};

Census take_census(const core::Params& params,
                   const std::vector<core::Agent>& config);

}  // namespace ssle::analysis
