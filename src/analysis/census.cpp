#include "analysis/census.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace ssle::analysis {
namespace {

/// Heap bytes of a DetectCollision state: the message store's buffer
/// (bucket bounds and messages) and the observations array.
std::uint64_t dc_heap_bytes(const core::DcState& dc) {
  return dc.msgs.heap_bytes() +
         dc.observations.capacity() * sizeof(std::uint32_t);
}

/// Shared body of the counts-native censuses: one registry pass, each live
/// class contributing count-weighted.  Rank multiplicity is resolved from
/// the (rank, count) pairs themselves — O(q log q) — instead of an O(n)
/// per-rank table, so the census stays counts-sized at any n.
template <typename Counts>
Census census_from_counts(const core::Params& params, const Counts& counts) {
  Census c;
  std::array<bool, core::Params::kGenerations> gens{};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> ranks;
  std::uint64_t resetters = 0, rankers = 0, verifiers = 0, leaders = 0,
                errors = 0;
  counts.for_each([&](const core::Agent& a, std::uint64_t count) {
    switch (a.role) {
      case core::Role::kResetting: resetters += count; break;
      case core::Role::kRanking: rankers += count; break;
      case core::Role::kVerifying: verifiers += count; break;
    }
    if (a.role == core::Role::kVerifying) {
      if (a.rank == 1) leaders += count;
      if (a.sv.dc.error) errors += count;
      gens[a.sv.generation % core::Params::kGenerations] = true;
      if (a.rank >= 1 && a.rank <= params.n) ranks.emplace_back(a.rank, count);
      c.total_messages += a.sv.dc.msgs.message_count() * count;
      c.approx_bytes += dc_heap_bytes(a.sv.dc) * count;
    }
    c.approx_bytes +=
        (sizeof(core::Agent) + a.ar.channel.capacity() * sizeof(std::uint32_t)) *
        count;
  });
  c.resetters = static_cast<std::uint32_t>(resetters);
  c.rankers = static_cast<std::uint32_t>(rankers);
  c.verifiers = static_cast<std::uint32_t>(verifiers);
  c.leaders = static_cast<std::uint32_t>(leaders);
  c.errors = static_cast<std::uint32_t>(errors);
  for (bool g : gens) c.distinct_generations += g ? 1 : 0;
  // Distinct registry classes can carry the same rank (e.g. under the
  // community lift, or differing in message state); sum runs of equal rank.
  std::sort(ranks.begin(), ranks.end());
  std::uint64_t run = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    run = (i > 0 && ranks[i].first == ranks[i - 1].first)
              ? run + ranks[i].second
              : ranks[i].second;
    c.max_rank_multiplicity = std::max(
        c.max_rank_multiplicity, static_cast<std::uint32_t>(run));
  }
  return c;
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

Census take_census(const core::Params& params,
                   const pp::CountsConfiguration<core::ElectLeader>& counts) {
  return census_from_counts(params, counts);
}

Census take_census(
    const core::Params& params,
    const pp::CommunityCountsConfiguration<core::ElectLeader>& counts) {
  return census_from_counts(params, counts);
}

}  // namespace ssle::analysis
