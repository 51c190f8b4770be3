#include "core/channel.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <vector>

namespace ssle::core {

Channel::Buffer* Channel::allocate(std::size_t size) {
  void* raw = ::operator new(sizeof(Buffer) + size * sizeof(std::uint32_t));
  return ::new (raw) Buffer{1, static_cast<std::uint32_t>(size), 0};
}

void Channel::deallocate(Buffer* b) {
  b->~Buffer();
  ::operator delete(b);
}

Channel::Channel(const std::uint32_t* values_in, std::size_t size) {
  if (size == 0) return;
  buf_ = allocate(size);
  std::uint32_t* out = values(buf_);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = values_in[i];
    sum += values_in[i];
  }
  buf_->sum = sum;
}

void Channel::assign(std::size_t size, std::uint32_t value) {
  if (size == 0) {
    clear();
    return;
  }
  if (!(unique() && buf_->size == size)) {
    release();
    buf_ = allocate(size);
  }
  std::fill_n(values(buf_), size, value);
  buf_->sum = std::uint64_t{value} * size;
}

void Channel::set(std::size_t i, std::uint32_t value) {
  if (!unique()) *this = Channel(begin(), size());
  std::uint32_t& at = values(buf_)[i];
  buf_->sum = buf_->sum - at + value;
  at = value;
}

void Channel::resize(std::size_t size) {
  if (size == this->size()) return;
  std::vector<std::uint32_t> resized(begin(), end());
  resized.resize(size, 0);
  *this = Channel(resized.data(), resized.size());
}

bool operator==(const Channel& a, const Channel& b) {
  if (a.buf_ == b.buf_) return true;
  const std::size_t size = a.size();
  return size == b.size() &&
         std::memcmp(a.begin(), b.begin(), size * sizeof(std::uint32_t)) == 0;
}

void Channel::merge_max(Channel& a, Channel& b) {
  if (a.buf_ == b.buf_) return;
  if (a == b) {
    // Keep the buffer more agents hold, so the others converge on it.
    if (b.buf_->refs.load() > a.buf_->refs.load()) {
      a = b;
    } else {
      b = a;
    }
    return;
  }
  const std::size_t size = a.size();
  std::uint64_t sum = 0;
  if (a.unique() && b.unique()) {
    std::uint32_t* x = values(a.buf_);
    std::uint32_t* y = values(b.buf_);
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t mx = std::max(x[i], y[i]);
      x[i] = mx;
      y[i] = mx;
      sum += mx;
    }
    a.buf_->sum = sum;
    b.buf_->sum = sum;
    return;
  }
  // Write into the unique side when there is one, else into a new buffer,
  // and let both sides share the result.
  Buffer* out = a.unique() ? a.buf_ : b.unique() ? b.buf_ : allocate(size);
  const std::uint32_t* x = a.begin();
  const std::uint32_t* y = b.begin();
  std::uint32_t* z = values(out);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint32_t mx = std::max(x[i], y[i]);
    z[i] = mx;
    sum += mx;
  }
  out->sum = sum;
  if (out == a.buf_) {
    b = a;
  } else if (out == b.buf_) {
    a = b;
  } else {
    a.release();
    a.buf_ = out;
    b = a;
  }
}

}  // namespace ssle::core
