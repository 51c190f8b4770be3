// Uniformly random pair scheduler (paper §1.1): in each step a uniformly
// random *ordered* pair of distinct agents interacts.  The paper's
// transition function δ: Q×Q → Q×Q is on ordered pairs (initiator,
// responder); our draw is uniform over ordered pairs, which is the standard
// population-model scheduler.
#pragma once

#include <cstdint>
#include <utility>

#include "util/rng.hpp"

namespace ssle::pp {

struct Pair {
  std::uint32_t initiator;
  std::uint32_t responder;
};

class UniformScheduler {
 public:
  UniformScheduler(std::uint32_t n, std::uint64_t seed)
      : n_(n), rng_(seed) {}

  /// Draws a uniformly random ordered pair of distinct agents.
  Pair next() {
    const auto a = static_cast<std::uint32_t>(rng_.below(n_));
    auto b = static_cast<std::uint32_t>(rng_.below(n_ - 1));
    // Skip a without a jump: b >= a is a coin flip, and GCC 12 turns
    // `if (b >= a) ++b` into a mispredicted branch inside Simulator::step.
    b += static_cast<std::uint32_t>(b >= a);
    return {a, b};
  }

  std::uint32_t population_size() const { return n_; }
  void set_population_size(std::uint32_t n) { n_ = n; }
  util::Rng& rng() { return rng_; }
  const util::Rng& rng() const { return rng_; }

 private:
  std::uint32_t n_;
  util::Rng rng_;
};

}  // namespace ssle::pp
