// Deterministic pseudo-random number generation for simulations.
//
// The population model assumes a uniformly random scheduler and agents that
// can sample values (almost) u.a.r. (paper §1.1).  Every simulation in this
// repository is a pure function of (seed, parameters); we use xoshiro256**
// seeded through SplitMix64, which is fast, high-quality and reproducible
// across platforms (unlike std::mt19937 + std::uniform_int_distribution,
// whose output is implementation-defined for bounded draws).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

namespace ssle::util {

/// SplitMix64: used to expand a 64-bit seed into xoshiro256** state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the repository-wide PRNG.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform draw from {0, 1, ..., bound-1}.  Uses Lemire's multiply-shift
  /// with rejection, so the result is exactly uniform.
  std::uint64_t below(std::uint64_t bound) {
    // bound == 0 is a caller bug; return 0 deterministically.
    if (bound <= 1) return 0;
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform draw from {lo, ..., hi} inclusive.  Requires lo <= hi.
  /// The span is computed in uint64, where wraparound is well defined, so
  /// extreme ranges (e.g. the full int64 domain) are exact instead of UB.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    // span == 0 means hi - lo + 1 wrapped: the full 2^64 domain.  Every
    // 64-bit value is in range, so a raw draw is already uniform.
    const std::uint64_t offset = span == 0 ? next() : below(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Uniform real in [0, 1).
  double real() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool coin() { return (next() >> 63) != 0; }

  /// Derives the k-th child generator from this generator's CURRENT state,
  /// without consuming any of the parent's randomness (the parent's next
  /// draw is the same whether or not split was called).  Stream-identity
  /// guarantees, pinned by tests/test_rng.cpp:
  ///
  ///   * deterministic — the same parent state and the same k always yield
  ///     the same child, on every platform;
  ///   * parent-independent — split() is const: it never advances the
  ///     parent, and the child owns fresh state, so interleaving child and
  ///     parent draws in any order cannot change either stream;
  ///   * pairwise distinct — children for different k (and children of
  ///     parents differing in ANY state word) are seeded through SplitMix64
  ///     chains over (k, full 256-bit state), the same whitening the seed
  ///     path uses, so distinct inputs give statistically independent
  ///     streams (no additive-lattice correlations between siblings).
  ///
  /// substream() keys a run's top-level components; split() keys dynamic
  /// per-component families.
  Rng split(std::uint64_t k) const {
    SplitMix64 mix(0x8e9d3c1fb2a45679ULL ^ (k * 0x9e3779b97f4a7c15ULL));
    std::uint64_t acc = mix.next();
    for (const std::uint64_t w : state_) {
      SplitMix64 m(acc ^ w);
      acc = m.next();
    }
    return Rng(acc);
  }

  /// Raw 256-bit generator state, for crash-safe checkpoints
  /// (obs/checkpoint).  Restoring a saved state with set_state() resumes
  /// the stream exactly where state() captured it.  Only feed set_state()
  /// words previously obtained from state(): the all-zero state is a fixed
  /// point of xoshiro256** and must never be installed (asserted).
  std::array<std::uint64_t, 4> state() const { return state_; }

  void set_state(const std::array<std::uint64_t, 4>& s) {
    assert((s[0] | s[1] | s[2] | s[3]) != 0);
    state_ = s;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives a stream-specific seed so that independent components of one
/// experiment (scheduler, adversary, agent sampling) never share a stream.
constexpr std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 sm(seed ^ (0xabcdef1234567890ULL + stream * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

}  // namespace ssle::util
