// Minimal command-line option parsing for the bench/example binaries.
// Supports "--key=value" and "--flag" forms.  Every getter records the key
// it reads; reject_unknown_flags(), called once a binary has read all of
// its flags, exits 2 naming any given flag that nothing read.
//
// Numeric getters are strict: a present-but-unparseable value (e.g.
// "--n=abc", "--x=1.2.3") prints a clear error and exits with status 2
// instead of silently yielding 0 and feeding nonsense downstream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ssle::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  /// get_int for count-like flags (--trials, --n, --jobs, --budget, …):
  /// additionally rejects negative values, which would otherwise wrap to
  /// huge unsigned counts at the cast.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// get_count for parameters stored in 32 bits (population sizes): also
  /// rejects values above 2^32−1 instead of silently truncating at the
  /// narrowing cast.
  std::uint32_t get_count_u32(const std::string& key,
                              std::uint32_t fallback) const;

  /// The repo-wide `--jobs` flag: worker threads for parallel_sweep.
  /// Absent or 0 means "all hardware threads" (resolved by the runner).
  std::size_t get_jobs() const { return get_count("jobs", 0); }

  /// Exits with status 2 when a `--flag` was given that no getter or has()
  /// has read, naming each such flag and listing the flags that were read
  /// (a typo'd or removed flag must not silently run the default).  Call it
  /// after the binary has read every flag it takes.
  void reject_unknown_flags() const;

  /// Positional (non --option) arguments.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The value given for `key` (nullptr when absent); records the read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> options_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace ssle::util
