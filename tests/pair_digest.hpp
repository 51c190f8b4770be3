// Golden-stream helper for the scheduler pins: an order-sensitive FNV-1a
// over the bytes of the first `count` pairs a scheduler draws.  A rewrite
// of any `next()` must leave these digests unchanged, which ties it to the
// stream the pins were recorded from rather than to another instance of
// the same code.
#pragma once

#include <cstdint>

#include "pp/scheduler.hpp"

namespace ssle::pp {

template <typename Sched>
std::uint64_t pair_stream_digest(Sched& sched, std::uint64_t count) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Pair p = sched.next();
    const std::uint64_t word =
        (std::uint64_t{p.responder} << 32) | p.initiator;
    for (int k = 0; k < 8; ++k) {
      h ^= (word >> (8 * k)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace ssle::pp
