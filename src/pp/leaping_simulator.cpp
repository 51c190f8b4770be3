#include "pp/leaping_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pp/log_combinatorics.hpp"

namespace ssle::pp {

namespace {

/// B(trials, p) for p ≤ ½ and trials·p ≥ 10 by Hörmann's BTRS
/// transformed rejection ("The generation of binomial random variates",
/// J. Stat. Comput. Simul. 46, 1993): ≈ 1.15 iterations per draw, and
/// most accept on the squeeze without a transcendental.  The acceptance
/// bound is Hörmann's log ratio log f(k)/f(m) with the log-factorials
/// written as Stirling's leading terms plus their tails fc, so every term
/// is O(σ) even at trials ~ 10^10.
std::uint64_t sample_btrs(util::Rng& rng, std::uint64_t trials, double p) {
  const double nd = static_cast<double>(trials);
  const double spq = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double r = p / (1.0 - p);
  // (trials + 1)·p < trials + 1 ≤ 2^64: the cast is in range.
  const double m = std::floor((nd + 1.0) * p);
  const std::uint64_t mi = static_cast<std::uint64_t>(m);
  // The largest double below 2^64, so an accepted k always casts; for
  // trials ≥ 2^64 − 2048 it excludes points ≥ 2^31 σ above a mean ≤ 2^63.
  const double k_max = std::min(nd, 0x1.fffffffffffffp63);
  for (;;) {
    const double u = rng.real() - 0.5;
    const double v = rng.real();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (!(kd >= 0.0 && kd <= k_max)) continue;
    const std::uint64_t k = static_cast<std::uint64_t>(kd);
    if (us >= 0.07 && v <= v_r) return k;  // 0.86·v_r: 72–77 % at σ = 20–64
    const double bound =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log1p((kd - m) / (nd - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(mi) + stirling_tail(trials - mi) - stirling_tail(k) -
        stirling_tail(trials - k);
    if (std::log(v * alpha / (a / (us * us) + b)) <= bound) return k;
  }
}

}  // namespace

std::uint64_t sample_binomial(util::Rng& rng, std::uint64_t trials,
                              double p) {
  if (!std::isfinite(p)) {
    std::fprintf(stderr,
                 "sample_binomial: probability %g is not finite (trials = "
                 "%llu) — an upstream weight is NaN or infinite.\n",
                 p, static_cast<unsigned long long>(trials));
    std::abort();
  }
  if (trials == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return trials;

  const double nd = static_cast<double>(trials);
  if (nd * std::min(p, 1.0 - p) >= 10.0) {
    return p <= 0.5 ? sample_btrs(rng, trials, p)
                    : trials - sample_btrs(rng, trials, 1.0 - p);
  }

  // Small mean (< 10 on the narrow side): inverse transform expanding
  // outward from the mode ⌊(trials+1)·p⌋, using the pmf recurrence
  // p(k+1)/p(k) = (trials−k)/(k+1) · p/(1−p); it visits ≈ 3σ ≤ 10 points.
  // The pmf at the mode is computed once in log space, by
  // log_choose_stirling, which keeps ≈ 1e-14 at trials ~ 10^10: an error
  // of 10^-5 there starves the upper tail.  (trials+1)·p rounds to at
  // most trials·p·(1 + 2^-52) < 2^64, so the cast is in range.
  std::uint64_t mode = static_cast<std::uint64_t>((nd + 1.0) * p);
  mode = std::min(mode, trials);

  const double log_pmode = log_choose_stirling(trials, mode) +
                           static_cast<double>(mode) * std::log(p) +
                           (nd - static_cast<double>(mode)) * std::log1p(-p);
  double u = rng.real();
  const double p_mode = std::exp(log_pmode);
  u -= p_mode;
  if (u < 0.0) return mode;

  const double odds = p / (1.0 - p);
  double p_up = p_mode;
  double p_down = p_mode;
  std::uint64_t k_up = mode;
  std::uint64_t k_down = mode;
  while (k_up < trials || k_down > 0) {
    if (k_up < trials) {
      const double k = static_cast<double>(k_up);
      p_up *= (nd - k) / (k + 1.0) * odds;
      ++k_up;
      u -= p_up;
      if (u < 0.0) return k_up;
    }
    if (k_down > 0) {
      const double k = static_cast<double>(k_down);
      p_down *= k / ((nd - k + 1.0) * odds);
      --k_down;
      u -= p_down;
      if (u < 0.0) return k_down;
    }
    // Unlike the hypergeometric (support bounded by min(draws, successes))
    // the binomial support runs to `trials`: once both running pmfs have
    // decayed to zero the remaining mass is below double resolution and
    // walking further is pure waste — attribute the residue to the heavier
    // outermost *visited* point, an O(double-epsilon) overweight of that
    // endpoint (same tail policy as sample_hypergeometric).
    if (p_up < 1e-300 && p_down < 1e-300) break;
  }
  return p_up >= p_down ? k_up : k_down;
}

}  // namespace ssle::pp
