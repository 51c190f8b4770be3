#include "obs/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace ssle::obs {

namespace {

constexpr const char* kKind = "ssle-checkpoint";

}  // namespace

std::string hex_u64(std::uint64_t w) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(w));
  return buf;
}

std::optional<std::uint64_t> parse_hex_u64(const std::string& s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

util::Json rng_state_to_json(const std::array<std::uint64_t, 4>& state) {
  auto arr = util::Json::array();
  for (const std::uint64_t w : state) arr.push(hex_u64(w));
  return arr;
}

std::optional<std::array<std::uint64_t, 4>> rng_state_from_json(
    const util::Json& j) {
  if (!j.is_array() || j.size() != 4) return std::nullopt;
  std::array<std::uint64_t, 4> words{};
  for (std::size_t k = 0; k < 4; ++k) {
    const auto word_str = j.at(k)->as_string();
    if (!word_str) return std::nullopt;
    const auto word = parse_hex_u64(*word_str);
    if (!word) return std::nullopt;
    words[k] = *word;
  }
  // The all-zero state is a fixed point of xoshiro256** — a checkpoint
  // claiming it is corrupt (the generator can never reach it).
  if ((words[0] | words[1] | words[2] | words[3]) == 0) return std::nullopt;
  return words;
}

util::Json checkpoint_to_json(const CheckpointDoc& doc) {
  auto j = util::Json::object();
  j.set("kind", kKind);
  j.set("v", kCheckpointVersion);
  j.set("engine", doc.engine);
  j.set("protocol", doc.protocol);
  j.set("n", doc.n);
  j.set("interactions", doc.interactions);
  auto rngs = util::Json::array();
  for (const auto& state : doc.rngs) rngs.push(rng_state_to_json(state));
  j.set("rngs", std::move(rngs));
  auto shards = util::Json::array();
  for (const auto& shard : doc.shards) {
    auto classes = util::Json::array();
    for (const auto& [enc, c] : shard) {
      auto entry = util::Json::array();
      entry.push(enc);
      entry.push(c);
      classes.push(std::move(entry));
    }
    shards.push(std::move(classes));
  }
  j.set("shards", std::move(shards));
  if (doc.cursor) j.set("cursor", *doc.cursor);
  return j;
}

std::optional<CheckpointDoc> checkpoint_from_json(const util::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const auto* kind = j.find("kind");
  if (!kind || kind->as_string() != kKind) return std::nullopt;
  const auto* v = j.find("v");
  if (!v || v->as_i64() != kCheckpointVersion) return std::nullopt;

  CheckpointDoc doc;
  const auto* engine = j.find("engine");
  const auto* protocol = j.find("protocol");
  const auto* n = j.find("n");
  const auto* interactions = j.find("interactions");
  const auto* rngs = j.find("rngs");
  const auto* shards = j.find("shards");
  if (!engine || !engine->is_string() || !protocol || !protocol->is_string() ||
      !n || !interactions || !rngs || !rngs->is_array() || !shards ||
      !shards->is_array()) {
    return std::nullopt;
  }
  doc.engine = *engine->as_string();
  doc.protocol = *protocol->as_string();
  const auto n_val = n->as_u64();
  const auto t_val = interactions->as_u64();
  if (!n_val || !t_val) return std::nullopt;
  doc.n = *n_val;
  doc.interactions = *t_val;

  for (std::size_t i = 0; i < rngs->size(); ++i) {
    const auto words = rng_state_from_json(*rngs->at(i));
    if (!words) return std::nullopt;
    doc.rngs.push_back(*words);
  }

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards->size(); ++i) {
    const util::Json* shard = shards->at(i);
    if (!shard->is_array()) return std::nullopt;
    doc.shards.emplace_back();
    for (std::size_t k = 0; k < shard->size(); ++k) {
      const util::Json* entry = shard->at(k);
      if (!entry->is_array() || entry->size() != 2) return std::nullopt;
      const auto enc = entry->at(0)->as_string();
      const auto count = entry->at(1)->as_u64();
      if (!enc || !count || *count == 0) return std::nullopt;
      // Count overflow guard: the running population total must not wrap.
      if (total + *count < total) return std::nullopt;
      total += *count;
      doc.shards.back().emplace_back(*enc, *count);
    }
  }
  if (total != doc.n) return std::nullopt;

  if (const auto* cursor = j.find("cursor")) doc.cursor = *cursor;
  return doc;
}

std::string checkpoint_dump(const CheckpointDoc& doc) {
  return checkpoint_to_json(doc).dump() + "\n";
}

std::optional<CheckpointDoc> checkpoint_parse(const std::string& text) {
  const auto j = util::Json::parse(text);
  if (!j) return std::nullopt;
  return checkpoint_from_json(*j);
}

bool checkpoint_save(const std::string& path, const CheckpointDoc& doc) {
  const std::string tmp = path + ".tmp";
  const std::string text = checkpoint_dump(doc);
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "checkpoint: cannot open %s for writing\n",
                 tmp.c_str());
    return false;
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "checkpoint: failed writing %s\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  // Atomic publish: a crash before this rename leaves the previous
  // checkpoint intact; after it, the new one is complete.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "checkpoint: cannot rename %s -> %s\n", tmp.c_str(),
                 path.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CheckpointDoc> checkpoint_load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return checkpoint_parse(buf.str());
}

bool checkpoint_present(const std::string& path) {
  std::error_code no_status;
  return std::filesystem::exists(path, no_status) || no_status;
}

}  // namespace ssle::obs
