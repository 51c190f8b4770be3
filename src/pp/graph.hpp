// Communication graphs for graphical population protocols.
//
// The classical model interacts uniformly random pairs (the complete
// graph).  Related work transfers population protocols to anonymous
// networks G = (V, E) where only endpoints of an edge may interact, with
// runtimes depending on graph properties such as conductance (paper §2,
// Alistarh–Gelashvili–Rybicki; Kowalski–Mosteiro).  This module provides
// standard graph families and a scheduler drawing uniformly random edges,
// so the experiments can probe how ElectLeader_r degrades away from the
// complete graph (experiment E1).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pp/scheduler.hpp"
#include "util/rng.hpp"

namespace ssle::pp {

/// Simple undirected graph on vertices {0, ..., n-1} stored as an edge
/// list (for uniform edge sampling) plus adjacency (for analysis).
class Graph {
 public:
  explicit Graph(std::uint32_t n) : n_(n), adjacency_(n) {}

  std::uint32_t vertices() const { return n_; }
  std::uint64_t edges() const { return edge_list_.size(); }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edge_list()
      const {
    return edge_list_;
  }
  const std::vector<std::uint32_t>& neighbors(std::uint32_t v) const {
    return adjacency_[v];
  }
  std::uint32_t degree(std::uint32_t v) const {
    return static_cast<std::uint32_t>(adjacency_[v].size());
  }

  /// Adds an undirected edge; duplicates and self-loops are ignored.
  void add_edge(std::uint32_t a, std::uint32_t b);
  bool has_edge(std::uint32_t a, std::uint32_t b) const;

  bool is_connected() const;
  std::uint32_t min_degree() const;
  std::uint32_t max_degree() const;

  // --- Families --------------------------------------------------------
  static Graph complete(std::uint32_t n);
  static Graph cycle(std::uint32_t n);
  static Graph path(std::uint32_t n);
  static Graph star(std::uint32_t n);
  /// Random d-regular-ish graph: d/2 superposed uniformly random Hamilton
  /// cycles (connected, degree ≤ d, expander w.h.p. for d ≥ 4).
  static Graph random_regular(std::uint32_t n, std::uint32_t d,
                              util::Rng& rng);
  /// Erdős–Rényi G(n, p), re-sampled until connected (caller should pass
  /// p ≥ c·log(n)/n).
  static Graph erdos_renyi(std::uint32_t n, double p, util::Rng& rng);
  /// Complete multipartite graph: n vertices split into k near-equal
  /// blocks (first n % k blocks one larger); edges join every pair of
  /// vertices in *different* blocks.  The materialized twin of
  /// BlockedTopology::multipartite — used to cross-validate the blocked
  /// samplers against the generic edge-list scheduler at small n.
  static Graph complete_multipartite(std::uint32_t n, std::uint32_t k);

 private:
  std::uint32_t n_;
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list_;
};

/// Scheduler for graphical populations: each step picks a uniformly
/// random edge and a uniformly random orientation.
class GraphScheduler {
 public:
  /// An edgeless graph has no pair to draw: exits 2 (field: graph.edges).
  GraphScheduler(Graph graph, std::uint64_t seed);

  Pair next() {
    const auto& edge = graph_.edge_list()[rng_.below(graph_.edges())];
    // Orient without a jump, which would mispredict half the time: heads
    // keeps (first, second), tails XOR-swaps them through an all-ones mask.
    const std::uint32_t tails = static_cast<std::uint32_t>(rng_.coin()) - 1u;
    const std::uint32_t swap = (edge.first ^ edge.second) & tails;
    return Pair{edge.first ^ swap, edge.second ^ swap};
  }

  std::uint32_t population_size() const { return graph_.vertices(); }
  const Graph& graph() const { return graph_; }

 private:
  Graph graph_;
  util::Rng rng_;
};

/// A blocked (community-structured) topology: n agents partitioned into K
/// communities laid out contiguously by agent index, with edge weight
/// `intra` between agents of the same community and `inter` between agents
/// of different communities.  This family covers the structured graphs
/// whose pair law is closed-form in the community sizes, so no edge list
/// is ever materialized:
///
///   * complete(n)            — K = 1, intra = 1 (the classical model);
///   * islands(n, K, wi, wo)  — K cliques of weight wi bridged all-to-all
///                              by weight wo (complete when wi = wo);
///   * multipartite(n, K)     — intra = 0, inter = 1: the complete
///                              K-partite graph (bully-style all-to-all
///                              across groups, silence within).
///
/// The ordered pair-scheduling law is closed-form: an ordered agent pair
/// (u, v), u in community a, v in community b, is drawn with probability
/// proportional to its edge weight, i.e. the ordered *community* pair
/// (a, b) has total weight
///
///     W(a, a) = intra · m_a · (m_a − 1),      W(a, b) = inter · m_a · m_b
///
/// and within the chosen communities agents are uniform (without
/// replacement when a = b).  BlockedScheduler draws concrete agents from
/// that table for the naive engine (O(n) memory at any n — no edge
/// materialization, unlike Graph, whose islands edge list at n = 10^6
/// would hold ~5·10^11 edges).
class BlockedTopology {
 public:
  static BlockedTopology complete(std::uint64_t n);
  /// K near-equal cliques (first n % K one agent larger), intra-community
  /// weight `intra`, inter-community weight `inter`.  Requires K >= 1,
  /// n >= K, and a connected weighting (inter > 0 when K > 1).
  static BlockedTopology islands(std::uint64_t n, std::uint32_t k,
                                 double intra = 1.0, double inter = 0.05);
  /// Complete K-partite graph on near-equal blocks.  Requires K >= 2.
  static BlockedTopology multipartite(std::uint64_t n, std::uint32_t k);

  std::uint32_t communities() const {
    return static_cast<std::uint32_t>(sizes_.size());
  }
  std::uint64_t size(std::uint32_t c) const { return sizes_[c]; }
  /// First agent index of community c (communities are contiguous).
  std::uint64_t offset(std::uint32_t c) const { return offsets_[c]; }
  std::uint64_t total_agents() const { return total_; }
  std::uint32_t community_of_agent(std::uint64_t agent) const;

  double intra_weight() const { return intra_; }
  double inter_weight() const { return inter_; }
  const std::string& name() const { return name_; }

  /// Total edge weight of the ordered community pair (a, b).
  double pair_weight(std::uint32_t a, std::uint32_t b) const;

  /// Draws an ordered community pair (a, b) with probability proportional
  /// to pair_weight — the community marginal of the exact pair law.
  std::pair<std::uint32_t, std::uint32_t> sample_pair(util::Rng& rng) const;

 private:
  BlockedTopology(std::string name, std::vector<std::uint64_t> sizes,
                  double intra, double inter);

  std::string name_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint64_t> offsets_;
  std::vector<double> cum_;  ///< cumulative pair weights, row-major K×K
  double total_weight_ = 0.0;
  std::uint64_t total_ = 0;
  double intra_ = 1.0;
  double inter_ = 1.0;
};

/// Scheduler drawing exact agent pairs of a BlockedTopology for the naive
/// engine: community pair from the closed-form weight table, then uniform
/// agents within each community (without replacement when the communities
/// coincide).  Memory is O(K²) regardless of n, so the naive engine gets
/// an exact structured-topology baseline without materializing edges.
class BlockedScheduler {
 public:
  BlockedScheduler(BlockedTopology topology, std::uint64_t seed)
      : topology_(std::move(topology)), rng_(seed) {}

  Pair next() {
    const auto [a, b] = topology_.sample_pair(rng_);
    const std::uint64_t i = topology_.offset(a) + rng_.below(topology_.size(a));
    std::uint64_t j;
    if (a == b) {
      j = topology_.offset(a) + rng_.below(topology_.size(a) - 1);
      // Skip i without a jump, as in UniformScheduler::next: the
      // comparison is a coin flip that a branch would mispredict.
      j += static_cast<std::uint64_t>(j >= i);
    } else {
      j = topology_.offset(b) + rng_.below(topology_.size(b));
    }
    return Pair{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)};
  }

  std::uint64_t population_size() const { return topology_.total_agents(); }
  const BlockedTopology& topology() const { return topology_; }

 private:
  BlockedTopology topology_;
  util::Rng rng_;
};

}  // namespace ssle::pp
