// Log-domain combinatorics shared by the exact count samplers
// (sample_hypergeometric in pp/batched_simulator.cpp, sample_binomial in
// pp/leaping_simulator.cpp).  Everything works in log space because the
// quantities involved (C(10^10, 5·10^9), …) overflow double directly.
//
// log_factorial and log_choose serve pmf values at moderate arguments.
// Near 10^10 a log-factorial is ≈ 2·10^11, so a difference of two of them
// keeps only ≈ 10^-5 of absolute precision; sample_binomial works there
// through stirling_tail and log_choose_stirling instead, whose terms stay
// far smaller.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace ssle::pp {

inline constexpr double kLnSqrt2Pi = 0.91893853320467274178;  // ln√(2π)

/// ln k!: exact table for small k, Stirling's series beyond (absolute
/// error < 1e-18 at k ≥ 1024 — below double rounding).  ~10x faster than
/// lgamma, which dominates hypergeometric sampling otherwise.
inline double log_factorial(std::uint64_t k) {
  static const std::array<double, 1024> small = [] {
    std::array<double, 1024> t{};
    double acc = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      acc += std::log(static_cast<double>(i));
      t[i] = acc;
    }
    return t;
  }();
  if (k < small.size()) return small[k];
  const double x = static_cast<double>(k);
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  return (x + 0.5) * std::log(x) - x + kLnSqrt2Pi + inv * (1.0 / 12.0) -
         inv * inv2 * (1.0 / 360.0) + inv * inv2 * inv2 * (1.0 / 1260.0);
}

/// Hörmann's fc(k), the tail of Stirling's series for ln k!:
///
///   ln k! = (k + ½)·ln(k + 1) − (k + 1) + ln√(2π) + fc(k).
///
/// A table for k ≤ 9, five terms of the series in 1/(k + 1) beyond
/// (truncation error < 1e-14 at k = 10, falling as (k + 1)^-11).  Used
/// where two log-factorials near 10^10 would otherwise be differenced
/// (sample_binomial's BTRS acceptance bound, log_choose_stirling):
/// fc(k) ≤ 1/12, so nothing large cancels.
inline double stirling_tail(std::uint64_t k) {
  static constexpr std::array<double, 10> small = {
      0.08106146679532725822, 0.04134069595540929409, 0.02767792568499833915,
      0.02079067210376509311, 0.01664469118982119216, 0.01387612882307074800,
      0.01189670994589177010, 0.01041126526197209650, 0.00925546218271273292,
      0.00833056343336287126};
  if (k < small.size()) return small[k];
  const double x = static_cast<double>(k) + 1.0;
  const double inv2 = 1.0 / (x * x);
  return (1.0 / 12.0 -
          inv2 * (1.0 / 360.0 -
                  inv2 * (1.0 / 1260.0 -
                          inv2 * (1.0 / 1680.0 - inv2 * (1.0 / 1188.0))))) /
         x;
}

/// log C(n, r).
inline double log_choose(std::uint64_t n, std::uint64_t r) {
  return log_factorial(n) - log_factorial(r) - log_factorial(n - r);
}

/// log C(n, r) from Stirling's leading terms plus stirling_tail, with the
/// two terms of size ln n! merged by log1p: absolute error ≈ 1e-16·r·ln n
/// for r ≤ n/2 (by symmetry, any r), so ≈ 1e-14 at n ~ 10^10 and small r,
/// where log_choose keeps only ≈ 10^-5.  sample_hypergeometric keeps
/// log_choose, so the batched engine's draws stay as they are.
inline double log_choose_stirling(std::uint64_t n, std::uint64_t r) {
  r = std::min(r, n - r);
  const double nd = static_cast<double>(n);
  const double rd = static_cast<double>(r);
  return rd * std::log(nd + 1.0) +
         (nd - rd + 0.5) * std::log1p(rd / (nd - rd + 1.0)) -
         (rd + 0.5) * std::log(rd + 1.0) + 1.0 - kLnSqrt2Pi +
         stirling_tail(n) - stirling_tail(r) - stirling_tail(n - r);
}

}  // namespace ssle::pp
