#include "analysis/census.hpp"

#include <algorithm>
#include <array>

namespace ssle::analysis {
namespace {

/// Heap bytes of a DetectCollision state: the message store's buffer
/// (bucket bounds and messages) and the observations array.
std::uint64_t dc_heap_bytes(const core::DcState& dc) {
  return dc.msgs.heap_bytes() +
         dc.observations.capacity() * sizeof(std::uint32_t);
}

}  // namespace

Census take_census(const core::Params& params,
                   const std::vector<core::Agent>& config) {
  Census c;
  std::array<bool, core::Params::kGenerations> gens{};
  std::vector<std::uint32_t> rank_count(params.n + 1, 0);
  for (const core::Agent& a : config) {
    switch (a.role) {
      case core::Role::kResetting: ++c.resetters; break;
      case core::Role::kRanking: ++c.rankers; break;
      case core::Role::kVerifying: ++c.verifiers; break;
    }
    if (a.role == core::Role::kVerifying) {
      if (a.rank == 1) ++c.leaders;
      if (a.sv.dc.error) ++c.errors;
      gens[a.sv.generation % core::Params::kGenerations] = true;
      if (a.rank >= 1 && a.rank <= params.n) ++rank_count[a.rank];
      c.total_messages += a.sv.dc.msgs.message_count();
      c.approx_bytes += dc_heap_bytes(a.sv.dc);
    }
    c.approx_bytes += sizeof(core::Agent);
    c.approx_bytes += a.ar.channel.capacity() * sizeof(std::uint32_t);
  }
  for (bool g : gens) c.distinct_generations += g ? 1 : 0;
  for (std::uint32_t count : rank_count) {
    c.max_rank_multiplicity = std::max(c.max_rank_multiplicity, count);
  }
  return c;
}

}  // namespace ssle::analysis
