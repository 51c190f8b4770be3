#include "pp/graph.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace ssle::pp {

void Graph::add_edge(std::uint32_t a, std::uint32_t b) {
  if (a == b || a >= n_ || b >= n_ || has_edge(a, b)) return;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  edge_list_.emplace_back(std::min(a, b), std::max(a, b));
}

bool Graph::has_edge(std::uint32_t a, std::uint32_t b) const {
  if (a >= n_ || b >= n_) return false;
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

bool Graph::is_connected() const {
  if (n_ == 0) return true;
  std::vector<char> seen(n_, 0);
  std::vector<std::uint32_t> stack{0};
  seen[0] = 1;
  std::uint32_t visited = 1;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (const std::uint32_t w : adjacency_[v]) {
      if (!seen[w]) {
        seen[w] = 1;
        ++visited;
        stack.push_back(w);
      }
    }
  }
  return visited == n_;
}

std::uint32_t Graph::min_degree() const {
  std::uint32_t d = ~0u;
  for (std::uint32_t v = 0; v < n_; ++v) d = std::min(d, degree(v));
  return n_ == 0 ? 0 : d;
}

std::uint32_t Graph::max_degree() const {
  std::uint32_t d = 0;
  for (std::uint32_t v = 0; v < n_; ++v) d = std::max(d, degree(v));
  return d;
}

Graph Graph::complete(std::uint32_t n) {
  Graph g(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) g.add_edge(a, b);
  }
  return g;
}

Graph Graph::cycle(std::uint32_t n) {
  Graph g(n);
  for (std::uint32_t v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return g;
}

Graph Graph::path(std::uint32_t n) {
  Graph g(n);
  for (std::uint32_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

Graph Graph::star(std::uint32_t n) {
  Graph g(n);
  for (std::uint32_t v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph Graph::random_regular(std::uint32_t n, std::uint32_t d,
                            util::Rng& rng) {
  Graph g(n);
  // d/2 superposed random Hamilton cycles → connected, near-d-regular.
  const std::uint32_t cycles = std::max(1u, d / 2);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::uint32_t c = 0; c < cycles; ++c) {
    for (std::uint32_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      g.add_edge(perm[i], perm[(i + 1) % n]);
    }
  }
  return g;
}

Graph Graph::erdos_renyi(std::uint32_t n, double p, util::Rng& rng) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    Graph g(n);
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        if (rng.real() < p) g.add_edge(a, b);
      }
    }
    if (g.is_connected()) return g;
  }
  // Sparse p on a tiny n may never connect; fall back to a cycle so the
  // caller always gets a usable graph.
  return cycle(n);
}

namespace {

/// n split into k near-equal parts, first n % k parts one larger — the
/// shared layout of Graph::complete_multipartite and BlockedTopology, so
/// the materialized and closed-form views agree agent-for-agent.
std::vector<std::uint64_t> near_equal_split(std::uint64_t n, std::uint32_t k) {
  std::vector<std::uint64_t> sizes(k, n / k);
  for (std::uint32_t c = 0; c < n % k; ++c) ++sizes[c];
  return sizes;
}

[[noreturn]] void topology_fatal(const char* what) {
  std::fprintf(stderr, "BlockedTopology: %s\n", what);
  std::exit(2);
}

}  // namespace

Graph Graph::complete_multipartite(std::uint32_t n, std::uint32_t k) {
  Graph g(n);
  if (k == 0) return g;
  const auto sizes = near_equal_split(n, k);
  std::vector<std::uint32_t> block(n);
  std::uint32_t v = 0;
  for (std::uint32_t c = 0; c < k; ++c) {
    for (std::uint64_t j = 0; j < sizes[c]; ++j) block[v++] = c;
  }
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (block[a] != block[b]) g.add_edge(a, b);
    }
  }
  return g;
}

GraphScheduler::GraphScheduler(Graph graph, std::uint64_t seed)
    : graph_(std::move(graph)), rng_(seed) {
  if (graph_.edges() > 0) return;
  std::fprintf(stderr,
               "error: a graph scheduler draws edges, but the graph on %u "
               "vertices has none (field: graph.edges)\n",
               graph_.vertices());
  std::exit(2);
}

BlockedTopology::BlockedTopology(std::string name,
                                 std::vector<std::uint64_t> sizes,
                                 double intra, double inter)
    : name_(std::move(name)),
      sizes_(std::move(sizes)),
      intra_(intra),
      inter_(inter) {
  const auto k = static_cast<std::uint32_t>(sizes_.size());
  if (k == 0) topology_fatal("needs at least one community");
  if (intra_ < 0.0 || inter_ < 0.0) topology_fatal("edge weights must be >= 0");
  offsets_.resize(k);
  for (std::uint32_t c = 0; c < k; ++c) {
    if (sizes_[c] == 0) topology_fatal("zero-size community");
    offsets_[c] = total_;
    total_ += sizes_[c];
  }
  if (total_ < 2) topology_fatal("needs at least two agents");
  // Connectivity of the weighted interaction graph: with one community
  // agents must talk within it; with several, only inter edges bridge them.
  if (k == 1 && intra_ <= 0.0) {
    topology_fatal("single community with intra weight 0 is disconnected");
  }
  if (k > 1 && inter_ <= 0.0) {
    topology_fatal("multiple communities with inter weight 0 are disconnected");
  }
  // Complete multipartite needs every block nonempty *and* a partner; a
  // lone community with intra = 0 has no edges at all (caught above), and
  // k > 1 with inter > 0 is always connected.
  cum_.resize(static_cast<std::size_t>(k) * k);
  double running = 0.0;
  for (std::uint32_t a = 0; a < k; ++a) {
    for (std::uint32_t b = 0; b < k; ++b) {
      running += pair_weight(a, b);
      cum_[static_cast<std::size_t>(a) * k + b] = running;
    }
  }
  total_weight_ = running;
  if (!(total_weight_ > 0.0)) topology_fatal("total edge weight is zero");
}

std::uint32_t BlockedTopology::community_of_agent(std::uint64_t agent) const {
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), agent);
  return static_cast<std::uint32_t>(it - offsets_.begin()) - 1;
}

double BlockedTopology::pair_weight(std::uint32_t a, std::uint32_t b) const {
  const auto ma = static_cast<double>(sizes_[a]);
  const auto mb = static_cast<double>(sizes_[b]);
  return a == b ? intra_ * ma * (ma - 1.0) : inter_ * ma * mb;
}

std::pair<std::uint32_t, std::uint32_t> BlockedTopology::sample_pair(
    util::Rng& rng) const {
  const auto k = static_cast<std::uint32_t>(sizes_.size());
  if (k == 1) return {0, 0};
  // Inverse transform on the cumulative table.  u < cum_.back() strictly
  // (real() < 1 and total_weight_ == cum_.back()), and upper_bound skips
  // zero-weight pairs because their cumulative entry equals the previous.
  const double u = rng.real() * total_weight_;
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
  const auto idx = static_cast<std::size_t>(
      std::min(it - cum_.begin(),
               static_cast<std::ptrdiff_t>(cum_.size()) - 1));
  return {static_cast<std::uint32_t>(idx / k),
          static_cast<std::uint32_t>(idx % k)};
}

BlockedTopology BlockedTopology::complete(std::uint64_t n) {
  return BlockedTopology("complete", {n}, 1.0, 1.0);
}

BlockedTopology BlockedTopology::islands(std::uint64_t n, std::uint32_t k,
                                         double intra, double inter) {
  if (k == 0) topology_fatal("islands: K must be >= 1");
  if (n < k) topology_fatal("islands: need n >= K agents");
  return BlockedTopology("islands:" + std::to_string(k),
                         near_equal_split(n, k), intra, inter);
}

BlockedTopology BlockedTopology::multipartite(std::uint64_t n,
                                              std::uint32_t k) {
  if (k < 2) topology_fatal("multipartite: K must be >= 2");
  if (n < k) topology_fatal("multipartite: need n >= K agents");
  return BlockedTopology("multipartite:" + std::to_string(k),
                         near_equal_split(n, k), 0.0, 1.0);
}

}  // namespace ssle::pp
