#include "obs/metrics.hpp"

#include <algorithm>

namespace ssle::obs {

EngineMetrics& EngineMetrics::merge(const EngineMetrics& other) {
  if (engine[0] == '\0') engine = other.engine;
  population += other.population;
  interactions += other.interactions;
  interactions_iterated += other.interactions_iterated;
  interactions_leapt += other.interactions_leapt;
  blocks_dense += other.blocks_dense;
  blocks_fenwick += other.blocks_fenwick;
  blocks_flat += other.blocks_flat;
  collision_resolutions += other.collision_resolutions;
  fenwick_point_updates += other.fenwick_point_updates;
  fenwick_samples += other.fenwick_samples;
  registry_live_states += other.registry_live_states;
  registry_allocated_states += other.registry_allocated_states;
  registry_capacity += other.registry_capacity;
  registry_compactions += other.registry_compactions;
  registry_version += other.registry_version;
  delta_cache_hits += other.delta_cache_hits;
  delta_cache_misses += other.delta_cache_misses;
  delta_cache_clears += other.delta_cache_clears;
  delta_cache_entries += other.delta_cache_entries;
  leap_windows += other.leap_windows;
  leap_candidates += other.leap_candidates;
  envelope_breaches += other.envelope_breaches;
  split_depth_max = std::max(split_depth_max, other.split_depth_max);
  banded_pieces += other.banded_pieces;
  leap_marginals += other.leap_marginals;
  leap_cap_max = std::max(leap_cap_max, other.leap_cap_max);
  return *this;
}

util::Json EngineMetrics::to_json() const {
  auto j = util::Json::object();
  j.set("engine", engine);
  j.set("population", population);
  j.set("interactions", interactions);
  j.set("interactions_iterated", interactions_iterated);
  j.set("interactions_leapt", interactions_leapt);
  j.set("blocks_dense", blocks_dense);
  j.set("blocks_fenwick", blocks_fenwick);
  j.set("blocks_flat", blocks_flat);
  j.set("collision_resolutions", collision_resolutions);
  j.set("fenwick_point_updates", fenwick_point_updates);
  j.set("fenwick_samples", fenwick_samples);
  j.set("registry_live_states", registry_live_states);
  j.set("registry_allocated_states", registry_allocated_states);
  j.set("registry_capacity", registry_capacity);
  j.set("registry_compactions", registry_compactions);
  j.set("registry_version", registry_version);
  j.set("delta_cache_hits", delta_cache_hits);
  j.set("delta_cache_misses", delta_cache_misses);
  j.set("delta_cache_clears", delta_cache_clears);
  j.set("delta_cache_entries", delta_cache_entries);
  j.set("leap_windows", leap_windows);
  j.set("leap_candidates", leap_candidates);
  j.set("envelope_breaches", envelope_breaches);
  j.set("split_depth_max", split_depth_max);
  j.set("banded_pieces", banded_pieces);
  j.set("leap_marginals", leap_marginals);
  j.set("leap_cap_max", leap_cap_max);
  return j;
}

}  // namespace ssle::obs
