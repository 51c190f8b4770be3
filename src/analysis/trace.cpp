#include "analysis/trace.hpp"

#include <sstream>

#include "core/safety.hpp"

namespace ssle::analysis {

void Trace::record(std::uint64_t interactions,
                   const std::vector<core::Agent>& config) {
  points_.push_back({interactions, take_census(params_, config)});
  safe_.push_back(core::is_safe_configuration(params_, config));
}

std::optional<std::uint64_t> Trace::first_verifier() const {
  for (const auto& pt : points_) {
    if (pt.census.verifiers > 0) return pt.interactions;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Trace::all_verifiers() const {
  for (const auto& pt : points_) {
    if (pt.census.verifiers == params_.n) return pt.interactions;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Trace::first_safe() const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (safe_[i]) return points_[i].interactions;
  }
  return std::nullopt;
}

std::uint32_t Trace::reset_waves() const {
  std::uint32_t waves = 0;
  bool in_wave = false;
  for (const auto& pt : points_) {
    const bool resetting = pt.census.resetters > 0;
    if (resetting && !in_wave) ++waves;
    in_wave = resetting;
  }
  return waves;
}

std::string Trace::summary() const {
  std::ostringstream os;
  auto show = [&](const char* label, std::optional<std::uint64_t> t) {
    os << "  " << label << ": ";
    if (t) {
      os << *t << " interactions ("
         << static_cast<double>(*t) / params_.n << " parallel)";
    } else {
      os << "never";
    }
    os << '\n';
  };
  os << "Trace over " << points_.size() << " probes:\n";
  show("first verifier", first_verifier());
  show("all verifiers", all_verifiers());
  show("first safe", first_safe());
  os << "  reset waves: " << reset_waves() << '\n';
  return os.str();
}

}  // namespace ssle::analysis
