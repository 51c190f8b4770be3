// The channel of AssignRanks_r (App. D, Protocol 7 lines 8–9): one count
// per deputy, spread by a max-epidemic among the rankers that hold one.
//
// Half the merges move identical data.  Over a clean run at n = 10⁴, r = 64
// every agent first holds the same all-zero channel, then ≈ 7 000 distinct
// ones, then fewer than 100 for most of the phase.  A Channel is therefore
// an 8-byte handle to a shared, reference-counted buffer {refs, size, sum,
// values}: copies share the buffer, a write to a shared buffer copies it
// first, and merge_max() leaves agents with equal contents on one buffer.
// In that run (seed 1) 35 % of the 8.7 M merges found one buffer on both
// sides and touched no values, 16 % found equal contents, and 5 %
// allocated.  The count is atomic, so agents that share a buffer may be
// copied and destroyed on different threads (analysis::parallel_sweep).
//
// Contents are what count: operator== and the hash in core/agent.hpp read
// the values, never the buffer's identity.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

namespace ssle::core {

class Channel {
 public:
  using value_type = std::uint32_t;
  using const_iterator = const std::uint32_t*;

  Channel() = default;
  Channel(std::initializer_list<std::uint32_t> values)
      : Channel(values.begin(), values.size()) {}
  /// Copies `size` values; size 0 gives the empty channel.
  Channel(const std::uint32_t* values, std::size_t size);

  Channel(const Channel& other) noexcept : buf_(other.buf_) { retain(); }
  Channel(Channel&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)) {}
  Channel& operator=(const Channel& other) noexcept {
    other.retain();
    release();
    buf_ = other.buf_;
    return *this;
  }
  Channel& operator=(Channel&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = std::exchange(other.buf_, nullptr);
    }
    return *this;
  }
  ~Channel() { release(); }

  std::size_t size() const { return buf_ == nullptr ? 0 : buf_->size; }
  bool empty() const { return buf_ == nullptr; }
  /// Values the buffer holds; a shared buffer counts in full for every
  /// holder, so summed over agents this is an upper bound on the heap.
  std::size_t capacity() const { return size(); }
  /// Σ values, kept with the buffer: O(1).
  std::uint64_t sum() const { return buf_ == nullptr ? 0 : buf_->sum; }
  const std::uint32_t* begin() const { return values(buf_); }
  const std::uint32_t* end() const { return begin() + size(); }
  std::uint32_t operator[](std::size_t i) const { return begin()[i]; }

  /// `size` copies of `value`; size 0 gives the empty channel.
  void assign(std::size_t size, std::uint32_t value);
  /// Sets entry i, copying a shared buffer first.
  void set(std::size_t i, std::uint32_t value);
  /// Keeps the first min(size(), size) entries and zero-fills the rest.
  void resize(std::size_t size);
  void clear() {
    release();
    buf_ = nullptr;
  }

  /// True when this is the only handle to its (non-empty) buffer.
  bool unique() const {
    return buf_ != nullptr && buf_->refs.load() == 1;
  }
  /// True when both handles hold the same non-empty buffer.
  bool shares_buffer_with(const Channel& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// The max-epidemic step: both channels become their entry-wise max.
  /// The channels must have equal sizes.
  ///   - one buffer already: nothing to do;
  ///   - equal contents: both take the more widely shared buffer;
  ///   - both buffers unique: max in place on both, no allocation;
  ///   - one unique: max into it, and the other shares it;
  ///   - both shared: one new buffer, shared by both.
  static void merge_max(Channel& a, Channel& b);

  friend bool operator==(const Channel& a, const Channel& b);

 private:
  /// The values follow the header in the same allocation.
  struct Buffer {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    std::uint64_t sum;
  };
  static_assert(sizeof(Buffer) % alignof(std::uint32_t) == 0);

  static std::uint32_t* values(Buffer* b) {
    return b == nullptr ? nullptr : reinterpret_cast<std::uint32_t*>(b + 1);
  }
  /// A buffer of `size` ≥ 1 uninitialized values, held once.
  static Buffer* allocate(std::size_t size);
  static void deallocate(Buffer* b);

  void retain() const {
    if (buf_ != nullptr) buf_->refs.fetch_add(1);
  }
  void release() {
    if (buf_ != nullptr && buf_->refs.fetch_sub(1) == 1) deallocate(buf_);
  }
  Buffer* buf_ = nullptr;
};

}  // namespace ssle::core
