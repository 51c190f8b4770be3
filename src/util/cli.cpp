#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace ssle::util {

namespace {

[[noreturn]] void die_bad_value(const std::string& key,
                                const std::string& value, const char* kind) {
  std::fprintf(stderr, "error: --%s=%s is not a valid %s\n", key.c_str(),
               value.c_str(), kind);
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        options_[arg.substr(2)] = "1";
      } else {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

const std::string* Cli::find(const std::string& key) const {
  read_.insert(key);
  const auto it = options_.find(key);
  return it == options_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& key) const { return find(key) != nullptr; }

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  const char* begin = text->c_str();
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    die_bad_value(key, *text, "integer");
  }
  return value;
}

std::size_t Cli::get_count(const std::string& key, std::size_t fallback) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  const std::int64_t value = get_int(key, 0);
  if (value < 0) die_bad_value(key, *text, "non-negative count");
  return static_cast<std::size_t>(value);
}

std::uint32_t Cli::get_count_u32(const std::string& key,
                                 std::uint32_t fallback) const {
  const std::size_t value = get_count(key, fallback);
  if (value > 0xffffffffULL) {
    die_bad_value(key, options_.at(key), "32-bit count");
  }
  return static_cast<std::uint32_t>(value);
}

double Cli::get_double(const std::string& key, double fallback) const {
  const std::string* text = find(key);
  if (text == nullptr) return fallback;
  const char* begin = text->c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    die_bad_value(key, *text, "number");
  }
  return value;
}

std::string Cli::get_string(const std::string& key,
                            const std::string& fallback) const {
  const std::string* text = find(key);
  return text == nullptr ? fallback : *text;
}

void Cli::reject_unknown_flags() const {
  const auto append = [](std::string& list, const std::string& key) {
    list += (list.empty() ? "--" : ", --") + key;
  };
  std::string unknown;
  std::size_t count = 0;
  for (const auto& [key, value] : options_) {
    if (read_.count(key) == 0) {
      append(unknown, key);
      ++count;
    }
  }
  if (count == 0) return;
  std::string known;
  for (const std::string& key : read_) append(known, key);
  std::fprintf(stderr, "error: unknown flag%s %s (this binary reads %s)\n",
               count > 1 ? "s" : "", unknown.c_str(),
               known.empty() ? "no flags" : known.c_str());
  std::exit(2);
}

}  // namespace ssle::util
