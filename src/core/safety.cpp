#include "core/safety.hpp"

#include <vector>

namespace ssle::core {

std::uint32_t leader_count(const std::vector<Agent>& config) {
  std::uint32_t count = 0;
  for (const Agent& a : config) {
    if (a.role == Role::kVerifying && a.rank == 1) ++count;
  }
  return count;
}

bool ranking_correct(const Params& params, const std::vector<Agent>& config) {
  if (config.size() != params.n) return false;
  std::vector<bool> seen(params.n + 1, false);
  for (const Agent& a : config) {
    if (a.role != Role::kVerifying) return false;
    if (a.rank < 1 || a.rank > params.n || seen[a.rank]) return false;
    seen[a.rank] = true;
  }
  return true;
}

bool single_generation(const std::vector<Agent>& config) {
  for (const Agent& a : config) {
    if (a.role != Role::kVerifying) return false;
    if (a.sv.generation != config.front().sv.generation) return false;
  }
  return true;
}

bool message_system_consistent(const Params& params,
                               const std::vector<Agent>& config) {
  // observations_by_rank[rank] = pointer to the observations of the (unique)
  // agent with that rank; requires a correct ranking to be meaningful.
  std::vector<const std::vector<std::uint32_t>*> obs(params.n + 1, nullptr);
  for (const Agent& a : config) {
    if (a.role != Role::kVerifying || a.sv.dc.error) return false;
    if (a.rank >= 1 && a.rank <= params.n) obs[a.rank] = &a.sv.dc.observations;
  }

  // One flat bitmap of the message IDs already encountered.  Rank r owns
  // the bits [offset[r], offset[r] + width[r]), allotted when an agent
  // first holds a bucket for r: width ids_per_rank + 1 of that agent's
  // group (IDs are 1-based).
  std::vector<std::uint64_t> offset(params.n + 1, 0);
  std::vector<std::uint32_t> width(params.n + 1, 0);
  std::uint64_t bits = 0;
  for (std::uint32_t g = 0; g < params.num_groups(); ++g) {
    bits += std::uint64_t{params.group_size(g)} * (params.ids_per_rank(g) + 1);
  }
  std::vector<std::uint64_t> seen;
  seen.reserve((bits + 63) / 64);
  bits = 0;
  for (const Agent& a : config) {
    const std::uint32_t group = params.group_of(a.rank);
    const std::uint32_t begin = params.group_begin(group);
    const MsgStore& msgs = a.sv.dc.msgs;
    for (std::size_t k = 0; k < msgs.size(); ++k) {
      const std::uint32_t rank = begin + static_cast<std::uint32_t>(k);
      if (rank == 0 || rank > params.n) return false;
      if (width[rank] == 0) {
        width[rank] = params.ids_per_rank(group) + 1;
        offset[rank] = bits;
        bits += width[rank];
        seen.resize((bits + 63) / 64, 0);
      }
      const std::uint32_t limit = width[rank];
      const std::uint64_t base = offset[rank];
      const auto* governor = obs[rank];
      for (const Msg& msg : msgs[k]) {
        if (msg.id == 0 || msg.id >= limit) return false;
        const std::uint64_t bit = base + msg.id;
        const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
        if (seen[bit / 64] & mask) return false;  // duplicated message
        seen[bit / 64] |= mask;
        if (governor == nullptr || msg.id > governor->size()) return false;
        if ((*governor)[msg.id - 1] != msg.content) return false;
      }
    }
  }
  return true;
}

bool is_safe_configuration(const Params& params,
                           const std::vector<Agent>& config) {
  return ranking_correct(params, config) && single_generation(config) &&
         message_system_consistent(params, config);
}

bool is_safe_configuration(const Params& params,
                           const pp::CountsConfiguration<ElectLeader>& counts) {
  if (counts.population_size() != params.n || params.n == 0) return false;
  std::vector<bool> seen(params.n + 1, false);
  bool ok = true;
  bool first = true;
  std::uint32_t generation = 0;
  counts.for_each([&](const Agent& a, std::uint64_t count) {
    if (!ok) return;
    // count > 1 ⇒ two agents share a full state, hence a rank: not safe.
    if (count != 1 || a.role != Role::kVerifying || a.rank < 1 ||
        a.rank > params.n || seen[a.rank]) {
      ok = false;
      return;
    }
    seen[a.rank] = true;
    if (first) {
      generation = a.sv.generation;
      first = false;
    } else if (a.sv.generation != generation) {
      ok = false;
    }
  });
  // n agents, each count 1, no duplicate rank in [1, n] ⇒ the ranking is a
  // permutation and the generations agree: (a) and (b) hold, so pay for
  // the expansion only to run the message-system scan (c).
  return ok && message_system_consistent(params, counts.to_states());
}

}  // namespace ssle::core
