// Agent state of ElectLeader_r (paper §4, Fig. 1–3).
//
// The paper stores, per role, only the "active" fields and takes the state
// space as the disjoint union of the roles' cross-products.  The simulation
// keeps all sub-records in one struct and resets newly-inactive fields on
// every role change; state-space *size* accounting (which is what the
// paper's bounds are about) lives in core/state_size.*.
//
// Memory layout.  An Agent is at most 184 inline bytes.  Its heap state is
// the ranker's channel, plus, for a verifier, two DetectCollision blocks:
// the MsgStore buffer (bucket bounds and every held message) and the
// observations array.  The channel is an 8-byte handle to a buffer that
// rankers with equal channels may share (core/channel.hpp).  The store is
// sized per agent rather than at a fixed stride: a stride sized for
// verifiers would give every ranker and resetter a verifier's few
// kilobytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "core/channel.hpp"
#include "util/hash.hpp"

namespace ssle::core {

// ---------------------------------------------------------------------------
// PropagateReset fields (App. C, Protocol 4/5/6)
// ---------------------------------------------------------------------------
struct ResetState {
  std::uint32_t reset_count = 0;  ///< resetCount ∈ {0, ..., R_max}
  std::uint32_t delay_timer = 0;  ///< delayTimer ∈ {0, ..., D_max}
  friend bool operator==(const ResetState&, const ResetState&) = default;
};

// ---------------------------------------------------------------------------
// AssignRanks_r fields (App. D, Protocols 7–11) including the embedded
// FastLeaderElect (App. D.2, Fig. 4)
// ---------------------------------------------------------------------------
enum class ArType : std::uint8_t {
  kLeaderElection,  ///< running FastLeaderElect
  kSheriff,         ///< holds a badge range [lowBadge, highBadge]
  kDeputy,          ///< holds a single badge = deputy id
  kRecipient,       ///< waiting for / holding a label
  kSleeper,         ///< waiting c_sleep·log n interactions before ranking
  kRanked,          ///< final: rank chosen, AssignRanks is silent
};

/// Temporary label (deputy id, counter value); deputy == 0 means ⊥.
struct Label {
  std::uint32_t deputy = 0;
  std::uint32_t index = 0;
  bool valid() const { return deputy != 0; }
  friend bool operator==(const Label&, const Label&) = default;
};

struct FastLeState {
  bool drawn = false;           ///< identifier sampled on first activation
  std::uint64_t identifier = 0;      ///< ∈ [n³]
  std::uint64_t min_identifier = 0;  ///< min seen via two-way epidemic
  std::uint32_t le_count = 0;        ///< countdown Θ(log n)
  bool leader_done = false;
  bool leader_bit = false;
  friend bool operator==(const FastLeState&, const FastLeState&) = default;
};

struct ArState {
  ArType type = ArType::kLeaderElection;
  FastLeState le;

  // Sheriff fields.
  std::uint32_t low_badge = 0;
  std::uint32_t high_badge = 0;

  // Deputy fields.
  std::uint32_t deputy_id = 0;
  std::uint32_t counter = 0;  ///< labels handed out (including its own)

  // Recipient / sleeper fields.
  Label label;
  std::uint32_t sleep_timer = 0;

  /// channel[i] = highest label count heard from deputy i+1 (max-epidemic).
  /// Active for all non-LE, non-Ranked types.
  Channel channel;

  /// Final rank; meaningful only once type == kRanked (initialized to 1:
  /// "This is initialised to 1 and updated only when agent becomes ranked").
  std::uint32_t rank = 1;

  friend bool operator==(const ArState&, const ArState&) = default;
};

// ---------------------------------------------------------------------------
// DetectCollision_r fields (§5.1, Fig. 3)
// ---------------------------------------------------------------------------

/// One circulating message (ID, content); the governing rank is implied by
/// the bucket the message is stored in.  Content is the governor's signature
/// at the time of the last re-stamp.
struct Msg {
  std::uint32_t id = 0;
  std::uint32_t content = 0;
  friend bool operator==(const Msg&, const Msg&) = default;
  friend auto operator<=>(const Msg& a, const Msg& b) { return a.id <=> b.id; }
};

/// One bucket of a MsgStore: a contiguous, ID-sorted run of messages.  A
/// view stays valid until the next edit that changes the store's shape
/// (clear, extend, insert, retain); editing message fields through it is
/// fine.
template <typename T>
class BucketView {
 public:
  BucketView(T* first, T* last, T* limit)
      : first_(first), last_(last), limit_(limit) {}

  T* begin() const { return first_; }
  T* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  /// Slots up to the next bucket's first message (the store's reserved tail
  /// for the last bucket), so the buckets' capacities sum to the store's
  /// message slots.
  std::size_t capacity() const {
    return static_cast<std::size_t>(limit_ - first_);
  }
  T& operator[](std::size_t i) const { return first_[i]; }
  T& front() const { return *first_; }
  T& back() const { return last_[-1]; }

 private:
  T* first_;
  T* last_;
  T* limit_;
};

/// The sparse message arrays of Fig. 3 for one agent, in one buffer.
///
/// The buffer opens with a header of 32-bit words packed two per slot: the
/// bucket count, then one end index (one past the last message) per bucket.
/// Bucket 0 starts right after the header and bucket k where bucket k − 1
/// ends.  An even bucket count leaves the header's last half-slot spare; it
/// is always zero.  The messages follow, bucket-major and ID-sorted within
/// each bucket.  Buckets are packed, so equal stores have equal buffers:
/// copy, == and the hash are single passes.
class MsgStore {
 public:
  using Bucket = BucketView<Msg>;
  using ConstBucket = BucketView<const Msg>;

  template <typename Store, typename View>
  class Iterator {
   public:
    Iterator(Store* store, std::size_t k) : store_(store), k_(k) {}
    View operator*() const { return (*store_)[k_]; }
    Iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    Store* store_;
    std::size_t k_;
  };

  MsgStore() = default;
  /// One bucket per entry of `buckets`, each kept in the given order.
  explicit MsgStore(const std::vector<std::vector<Msg>>& buckets) {
    std::size_t total = 0;
    for (const auto& b : buckets) total += b.size();
    clear(buckets.size(), total);
    for (std::size_t k = 0; k < buckets.size(); ++k) {
      const auto& bucket = buckets[k];
      std::copy(bucket.begin(), bucket.end(), extend(bucket.size()));
      close_bucket(k);
    }
  }

  /// Number of buckets.
  std::size_t size() const { return slots_.empty() ? 0 : slots_[0].id; }
  bool empty() const { return slots_.empty(); }
  /// Header slots reserved: (size() + 2) / 2, or the whole buffer while the
  /// store holds no bucket.  With the buckets' capacity() this accounts for
  /// every reserved slot.
  std::size_t capacity() const {
    return empty() ? slots_.capacity() : header_end();
  }
  /// Messages held, over all buckets.
  std::size_t message_count() const {
    return empty() ? 0 : slots_.size() - header_end();
  }
  /// Heap bytes of the buffer.
  std::size_t heap_bytes() const { return slots_.capacity() * sizeof(Msg); }

  Bucket operator[](std::size_t k) {
    Msg* data = slots_.data();
    return {data + first_of(k), data + end_of(k), data + limit_of(k)};
  }
  ConstBucket operator[](std::size_t k) const {
    const Msg* data = slots_.data();
    return {data + first_of(k), data + end_of(k), data + limit_of(k)};
  }
  Iterator<MsgStore, Bucket> begin() { return {this, 0}; }
  Iterator<MsgStore, Bucket> end() { return {this, size()}; }
  Iterator<const MsgStore, ConstBucket> begin() const { return {this, 0}; }
  Iterator<const MsgStore, ConstBucket> end() const { return {this, size()}; }

  // --- Rewriting, reusing the buffer -----------------------------------------
  // A rewrite is clear(buckets), then for k = 0, 1, ...: extend() for the
  // bucket's messages and close_bucket(k).  Every bucket must be closed, in
  // order, before the store is read again.

  /// Drops every message and sets `buckets` empty buckets; reserves room
  /// for `messages` messages, so a rewrite of known size allocates at most
  /// once and exactly.
  void clear(std::size_t buckets, std::size_t messages = 0) {
    slots_.clear();
    if (buckets == 0) return;
    const std::size_t head = header_slots(buckets);
    slots_.reserve(head + messages);
    const auto at = static_cast<std::uint32_t>(head);
    slots_.resize(head, Msg{at, at});
    set_word(0, static_cast<std::uint32_t>(buckets));
    if (buckets % 2 == 0) set_word(buckets + 1, 0);
  }
  /// Appends `count` message slots at the tail and returns the first; the
  /// pointer is valid until the next extend.
  Msg* extend(std::size_t count) {
    const std::size_t at = slots_.size();
    if (at + count > slots_.capacity()) slots_.reserve(at + count + at / 8);
    slots_.resize(at + count);
    return slots_.data() + at;
  }
  /// Ends bucket k at the tail: it holds every message after bucket k − 1.
  void close_bucket(std::size_t k) {
    set_word(k + 1, static_cast<std::uint32_t>(slots_.size()));
  }

  /// Replaces the contents with `buckets` buckets that each hold the IDs
  /// first_id, first_id + 1, ..., first_id + width − 1, all with content
  /// `content`.  One exact reservation, and one pass writes the header and
  /// the messages.
  void assign_runs(std::uint32_t buckets, std::uint32_t first_id,
                   std::uint32_t width, std::uint32_t content) {
    slots_.clear();
    if (buckets == 0) return;
    const std::size_t head = header_slots(buckets);
    slots_.reserve(head + std::size_t{buckets} * width);
    slots_.resize(head + std::size_t{buckets} * width);
    set_word(0, buckets);
    Msg* out = slots_.data() + head;
    for (std::uint32_t k = 0; k < buckets; ++k) {
      for (std::uint32_t i = 0; i < width; ++i) {
        *out++ = {first_id + i, content};
      }
      set_word(k + 1, static_cast<std::uint32_t>(out - slots_.data()));
    }
  }

  // --- Single-message edits (adversaries, tests) -----------------------------

  /// Inserts `msg` into bucket k after every message with ID ≤ msg.id.
  void insert(std::size_t k, Msg msg) {
    const Bucket b = (*this)[k];
    const Msg* at = std::upper_bound(b.begin(), b.end(), msg);
    slots_.insert(slots_.begin() + (at - slots_.data()), msg);
    for (std::size_t j = k + 1; j <= size(); ++j) set_word(j, word(j) + 1);
  }
  /// Keeps, in order, the messages for which keep(bucket, msg) is true;
  /// `keep` may edit the message it is given.
  template <typename Keep>
  void retain(Keep keep) {
    if (empty()) return;
    std::size_t read = header_end();
    std::size_t write = read;
    for (std::size_t k = 0; k < size(); ++k) {
      for (const std::size_t last = end_of(k); read < last; ++read) {
        Msg msg = slots_[read];
        if (keep(k, msg)) slots_[write++] = msg;
      }
      set_word(k + 1, static_cast<std::uint32_t>(write));
    }
    slots_.resize(write);
  }

  friend bool operator==(const MsgStore&, const MsgStore&) = default;

 private:
  /// Slots the header of `buckets` ≥ 1 buckets takes: buckets + 1 words.
  static std::size_t header_slots(std::size_t buckets) {
    return (buckets + 2) / 2;
  }
  /// Where bucket 0 starts; the store must hold a bucket.
  std::size_t header_end() const { return header_slots(slots_[0].id); }
  /// Header word i: word 0 is the bucket count, word k + 1 bucket k's end.
  /// Slot i / 2's id is word i for even i, its content for odd i; copying
  /// the bytes makes that one load, with no branch on the parity.
  std::uint32_t word(std::size_t i) const {
    std::uint32_t w = 0;
    std::memcpy(&w, reinterpret_cast<const unsigned char*>(slots_.data()) +
                        i * sizeof w, sizeof w);
    return w;
  }
  void set_word(std::size_t i, std::uint32_t w) {
    std::memcpy(reinterpret_cast<unsigned char*>(slots_.data()) + i * sizeof w,
                &w, sizeof w);
  }
  std::size_t end_of(std::size_t k) const { return word(k + 1); }
  std::size_t first_of(std::size_t k) const {
    return k == 0 ? header_end() : end_of(k - 1);
  }
  std::size_t limit_of(std::size_t k) const {
    return k + 1 < size() ? end_of(k) : slots_.capacity();
  }

  std::vector<Msg> slots_;  ///< header words, then messages
};

struct DcState {
  bool error = false;  ///< the ⊤ state

  std::uint32_t signature = 0;  ///< ∈ [m⁵] (capped at 2³²−1)
  std::uint32_t counter = 0;    ///< interactions until signature refresh

  /// msgs[k] = messages governed by the k-th rank of this agent's group
  /// that this agent currently holds, sorted by ID (sparse array of Fig. 3).
  MsgStore msgs;

  /// observations[j] = content this agent last stamped into its own message
  /// with ID j+1 (dense array of Fig. 3).
  std::vector<std::uint32_t> observations;

  friend bool operator==(const DcState&, const DcState&) = default;
};

// ---------------------------------------------------------------------------
// StableVerify_r fields (§5, Fig. 2)
// ---------------------------------------------------------------------------
struct SvState {
  std::uint32_t generation = 0;       ///< ∈ Z₆
  std::uint32_t probation_timer = 0;  ///< ∈ [P_max]
  DcState dc;
  friend bool operator==(const SvState&, const SvState&) = default;
};

// ---------------------------------------------------------------------------
// ElectLeader_r wrapper (§4, Protocol 1)
// ---------------------------------------------------------------------------
enum class Role : std::uint8_t { kResetting, kRanking, kVerifying };

struct Agent {
  Role role = Role::kRanking;
  std::uint32_t countdown = 0;  ///< ∈ [C_max], rankers only
  std::uint32_t rank = 1;       ///< presumed rank ∈ [n]

  ResetState reset;  ///< active while role == kResetting
  ArState ar;        ///< active while role == kRanking
  SvState sv;        ///< active while role == kVerifying

  friend bool operator==(const Agent&, const Agent&) = default;
};

// Naive populations hold n agents inline; keep rankers cache-sized.
static_assert(sizeof(MsgStore) == sizeof(std::vector<Msg>));
static_assert(sizeof(Msg) == 2 * sizeof(std::uint32_t));  // header words
static_assert(sizeof(Agent) <= 184);

// ---------------------------------------------------------------------------
// Hashing: a nested combine over every field operator== compares, so equal
// agents hash equal.  The std::hash<Agent> specialization below switches
// pp::CountsConfiguration<ElectLeader> onto its O(1) hash-indexed registry
// path (instead of linear scans over the distinct states), which is what
// makes the batched engine usable for ElectLeader_r beyond toy n.
// ---------------------------------------------------------------------------
namespace detail {

using util::hash_mix;

}  // namespace detail

inline std::size_t hash_value(const ResetState& s) {
  std::size_t h = s.reset_count;
  detail::hash_mix(h, s.delay_timer);
  return h;
}

inline std::size_t hash_value(const Label& l) {
  std::size_t h = l.deputy;
  detail::hash_mix(h, l.index);
  return h;
}

inline std::size_t hash_value(const FastLeState& s) {
  std::size_t h = s.drawn;
  detail::hash_mix(h, s.identifier);
  detail::hash_mix(h, s.min_identifier);
  detail::hash_mix(h, s.le_count);
  detail::hash_mix(h, s.leader_done);
  detail::hash_mix(h, s.leader_bit);
  return h;
}

inline std::size_t hash_value(const ArState& s) {
  std::size_t h = static_cast<std::size_t>(s.type);
  detail::hash_mix(h, hash_value(s.le));
  detail::hash_mix(h, s.low_badge);
  detail::hash_mix(h, s.high_badge);
  detail::hash_mix(h, s.deputy_id);
  detail::hash_mix(h, s.counter);
  detail::hash_mix(h, hash_value(s.label));
  detail::hash_mix(h, s.sleep_timer);
  detail::hash_mix(h, s.channel.size());
  for (const std::uint32_t c : s.channel) detail::hash_mix(h, c);
  detail::hash_mix(h, s.rank);
  return h;
}

inline std::size_t hash_value(const Msg& m) {
  std::size_t h = m.id;
  detail::hash_mix(h, m.content);
  return h;
}

inline std::size_t hash_value(const DcState& s) {
  std::size_t h = s.error;
  detail::hash_mix(h, s.signature);
  detail::hash_mix(h, s.counter);
  detail::hash_mix(h, s.msgs.size());
  for (const auto bucket : s.msgs) {
    detail::hash_mix(h, bucket.size());
    for (const Msg& m : bucket) detail::hash_mix(h, hash_value(m));
  }
  detail::hash_mix(h, s.observations.size());
  for (const std::uint32_t o : s.observations) detail::hash_mix(h, o);
  return h;
}

inline std::size_t hash_value(const SvState& s) {
  std::size_t h = s.generation;
  detail::hash_mix(h, s.probation_timer);
  detail::hash_mix(h, hash_value(s.dc));
  return h;
}

inline std::size_t hash_value(const Agent& a) {
  std::size_t h = static_cast<std::size_t>(a.role);
  detail::hash_mix(h, a.countdown);
  detail::hash_mix(h, a.rank);
  detail::hash_mix(h, hash_value(a.reset));
  detail::hash_mix(h, hash_value(a.ar));
  detail::hash_mix(h, hash_value(a.sv));
  return h;
}

}  // namespace ssle::core

template <>
struct std::hash<ssle::core::Agent> {
  std::size_t operator()(const ssle::core::Agent& a) const noexcept {
    return ssle::core::hash_value(a);
  }
};
