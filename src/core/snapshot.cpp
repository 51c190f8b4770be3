#include "core/snapshot.hpp"

#include <charconv>
#include <sstream>
#include <vector>

namespace ssle::core {

namespace {

constexpr const char* kHeader = "ssle-snapshot v1";

void write_u64(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << ' ' << key << '=' << v;
}

/// Parses "key=value" returning value; fails if the key does not match.
bool read_u64(std::istringstream& is, const char* key, std::uint64_t* out) {
  std::string token;
  if (!(is >> token)) return false;
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return false;
  const char* begin = token.data() + prefix.size();
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end;
}

bool read_u32(std::istringstream& is, const char* key, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!read_u64(is, key, &v) || v > 0xFFFFFFFFull) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

/// Strict uint32 parse of a whole token (from_chars: no sign, no wrap —
/// unlike std::stoul, which silently wraps "-1" to ULONG_MAX).
bool parse_u32_token(const std::string& token, std::uint32_t* out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end && !token.empty();
}

void write_agent(std::ostringstream& os, const Params& params,
                 const Agent& a) {
  os << "agent";
  write_u64(os, "role", static_cast<std::uint64_t>(a.role));
  write_u64(os, "rank", a.rank);
  write_u64(os, "countdown", a.countdown);
  write_u64(os, "reset_count", a.reset.reset_count);
  write_u64(os, "delay_timer", a.reset.delay_timer);
  os << '\n';

  // AssignRanks sub-state.
  os << "ar";
  write_u64(os, "type", static_cast<std::uint64_t>(a.ar.type));
  write_u64(os, "drawn", a.ar.le.drawn ? 1 : 0);
  write_u64(os, "id", a.ar.le.identifier);
  write_u64(os, "min_id", a.ar.le.min_identifier);
  write_u64(os, "le_count", a.ar.le.le_count);
  write_u64(os, "done", a.ar.le.leader_done ? 1 : 0);
  write_u64(os, "bit", a.ar.le.leader_bit ? 1 : 0);
  write_u64(os, "low", a.ar.low_badge);
  write_u64(os, "high", a.ar.high_badge);
  write_u64(os, "dep", a.ar.deputy_id);
  write_u64(os, "ctr", a.ar.counter);
  write_u64(os, "lab_d", a.ar.label.deputy);
  write_u64(os, "lab_i", a.ar.label.index);
  write_u64(os, "sleep", a.ar.sleep_timer);
  write_u64(os, "ar_rank", a.ar.rank);
  write_u64(os, "chan_n", a.ar.channel.size());
  for (const auto c : a.ar.channel) os << ' ' << c;
  os << '\n';

  // StableVerify / DetectCollision sub-state.
  os << "sv";
  write_u64(os, "gen", a.sv.generation);
  write_u64(os, "prob", a.sv.probation_timer);
  write_u64(os, "err", a.sv.dc.error ? 1 : 0);
  write_u64(os, "sig", a.sv.dc.signature);
  write_u64(os, "ctr", a.sv.dc.counter);
  write_u64(os, "obs_n", a.sv.dc.observations.size());
  for (const auto o : a.sv.dc.observations) os << ' ' << o;
  write_u64(os, "buckets", a.sv.dc.msgs.size());
  os << '\n';
  for (const auto bucket : a.sv.dc.msgs) {
    os << "msgs n=" << bucket.size();
    for (const Msg& m : bucket) os << ' ' << m.id << ':' << m.content;
    os << '\n';
  }
  (void)params;
}

std::optional<Agent> read_agent(std::istringstream& is) {
  Agent a;
  std::string tag;
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;

  if (!(is >> tag) || tag != "agent") return std::nullopt;
  if (!read_u64(is, "role", &u64) || u64 > 2) return std::nullopt;
  a.role = static_cast<Role>(u64);
  if (!read_u32(is, "rank", &a.rank)) return std::nullopt;
  if (!read_u32(is, "countdown", &a.countdown)) return std::nullopt;
  if (!read_u32(is, "reset_count", &a.reset.reset_count)) return std::nullopt;
  if (!read_u32(is, "delay_timer", &a.reset.delay_timer)) return std::nullopt;

  if (!(is >> tag) || tag != "ar") return std::nullopt;
  if (!read_u64(is, "type", &u64) || u64 > 5) return std::nullopt;
  a.ar.type = static_cast<ArType>(u64);
  if (!read_u64(is, "drawn", &u64)) return std::nullopt;
  a.ar.le.drawn = u64 != 0;
  if (!read_u64(is, "id", &a.ar.le.identifier)) return std::nullopt;
  if (!read_u64(is, "min_id", &a.ar.le.min_identifier)) return std::nullopt;
  if (!read_u32(is, "le_count", &a.ar.le.le_count)) return std::nullopt;
  if (!read_u64(is, "done", &u64)) return std::nullopt;
  a.ar.le.leader_done = u64 != 0;
  if (!read_u64(is, "bit", &u64)) return std::nullopt;
  a.ar.le.leader_bit = u64 != 0;
  if (!read_u32(is, "low", &a.ar.low_badge)) return std::nullopt;
  if (!read_u32(is, "high", &a.ar.high_badge)) return std::nullopt;
  if (!read_u32(is, "dep", &a.ar.deputy_id)) return std::nullopt;
  if (!read_u32(is, "ctr", &a.ar.counter)) return std::nullopt;
  if (!read_u32(is, "lab_d", &a.ar.label.deputy)) return std::nullopt;
  if (!read_u32(is, "lab_i", &a.ar.label.index)) return std::nullopt;
  if (!read_u32(is, "sleep", &a.ar.sleep_timer)) return std::nullopt;
  if (!read_u32(is, "ar_rank", &a.ar.rank)) return std::nullopt;
  if (!read_u32(is, "chan_n", &u32)) return std::nullopt;
  if (u32 > (1u << 20)) return std::nullopt;
  std::vector<std::uint32_t> channel(u32);
  for (auto& c : channel) {
    if (!(is >> c)) return std::nullopt;
  }
  a.ar.channel = Channel(channel.data(), channel.size());

  if (!(is >> tag) || tag != "sv") return std::nullopt;
  if (!read_u32(is, "gen", &a.sv.generation)) return std::nullopt;
  if (!read_u32(is, "prob", &a.sv.probation_timer)) return std::nullopt;
  if (!read_u64(is, "err", &u64)) return std::nullopt;
  a.sv.dc.error = u64 != 0;
  if (!read_u32(is, "sig", &a.sv.dc.signature)) return std::nullopt;
  if (!read_u32(is, "ctr", &a.sv.dc.counter)) return std::nullopt;
  if (!read_u32(is, "obs_n", &u32)) return std::nullopt;
  if (u32 > (1u << 26)) return std::nullopt;
  a.sv.dc.observations.resize(u32);
  for (auto& o : a.sv.dc.observations) {
    if (!(is >> o)) return std::nullopt;
  }
  if (!read_u32(is, "buckets", &u32)) return std::nullopt;
  if (u32 > (1u << 20)) return std::nullopt;
  const std::uint32_t buckets = u32;
  MsgStore& msgs = a.sv.dc.msgs;
  msgs.clear(buckets);
  for (std::uint32_t k = 0; k < buckets; ++k) {
    std::string line_tag;
    std::uint32_t count = 0;
    if (!(is >> line_tag) || line_tag != "msgs") return std::nullopt;
    if (!read_u32(is, "n", &count) || count > (1u << 26)) return std::nullopt;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string pair;
      if (!(is >> pair)) return std::nullopt;
      const auto colon = pair.find(':');
      if (colon == std::string::npos) return std::nullopt;
      Msg m;
      if (!parse_u32_token(pair.substr(0, colon), &m.id)) return std::nullopt;
      if (!parse_u32_token(pair.substr(colon + 1), &m.content)) {
        return std::nullopt;
      }
      *msgs.extend(1) = m;
    }
    msgs.close_bucket(k);
  }
  return a;
}

/// Whether the stream holds nothing but whitespace from here on — the
/// trailing-garbage check that rejects extra/duplicated agent stanzas.
bool at_clean_end(std::istringstream& is) {
  std::string extra;
  return !(is >> extra);
}

}  // namespace

std::string snapshot_write(const Params& params,
                           const std::vector<Agent>& config) {
  std::ostringstream os;
  os << kHeader << " n=" << params.n << " r=" << params.r << '\n';
  for (const Agent& a : config) write_agent(os, params, a);
  return os.str();
}

std::optional<std::vector<Agent>> snapshot_read(const Params& params,
                                                const std::string& text) {
  std::istringstream is(text);
  std::string word1, word2;
  std::uint32_t n = 0, r = 0;
  if (!(is >> word1 >> word2)) return std::nullopt;
  if (word1 + " " + word2 != kHeader) return std::nullopt;
  if (!read_u32(is, "n", &n) || !read_u32(is, "r", &r)) return std::nullopt;
  if (n != params.n || r != params.r) return std::nullopt;

  std::vector<Agent> config;
  config.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto agent = read_agent(is);
    if (!agent) return std::nullopt;
    config.push_back(std::move(*agent));
  }
  // Exactly n stanzas: trailing content (a duplicated agent stanza, a
  // concatenated second snapshot) means the text does not describe the
  // configuration it claims to.
  if (!at_clean_end(is)) return std::nullopt;
  return config;
}

std::string snapshot_write_agent(const Agent& a) {
  std::ostringstream os;
  write_agent(os, Params{}, a);
  return os.str();
}

std::optional<Agent> snapshot_read_agent(const std::string& text) {
  std::istringstream is(text);
  auto agent = read_agent(is);
  if (!agent || !at_clean_end(is)) return std::nullopt;
  return agent;
}

}  // namespace ssle::core
