// util::ThreadPool: the worker pool behind analysis::parallel_sweep.  Pins
// the contract the header documents: submit/wait_idle barrier semantics,
// run_indexed covering every index exactly once (with the calling thread
// participating), inline degradation at 0 threads, and first-exception
// capture + rethrow.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace ssle::util {
namespace {

TEST(ThreadPool, SubmitRunsEveryTaskBeforeWaitIdleReturns) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPool, ZeroThreadsDegradesToInlineExecution) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  // Inline execution: the task already ran, on this thread.
  EXPECT_EQ(ran_on, caller);
  pool.wait_idle();  // still a valid (trivial) barrier
}

TEST(ThreadPool, RunIndexedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  pool.run_indexed(count, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RunIndexedUsesTheCallingThreadToo) {
  // With 0 workers the calling thread is the only executor, so run_indexed
  // must still complete — parallel_sweep's 1-core fallback.
  ThreadPool pool(0);
  std::vector<int> hits(64, 0);
  const auto caller = std::this_thread::get_id();
  pool.run_indexed(hits.size(), [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    hits[i] += 1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WaitIdleRethrowsTheFirstTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed by the rethrow: the pool remains usable.
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPool, RunIndexedRethrowsABodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_indexed(100,
                                [](std::size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error("body failed");
                                  }
                                }),
               std::runtime_error);
  // Usable afterwards, same as wait_idle.
  std::atomic<int> done{0};
  pool.run_indexed(8, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, RunIndexedZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "body ran for count 0"; });
}

}  // namespace
}  // namespace ssle::util
