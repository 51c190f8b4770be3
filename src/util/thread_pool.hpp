// Reusable worker pool: the thread machinery behind analysis::parallel_sweep.
//
// Two usage shapes share one pool:
//
//   * submit()/wait_idle() — fire-and-forget tasks drained by a barrier:
//     what a seed sweep needs (one task per trial batch, join at the end).
//   * run_indexed(count, body) — execute body(0..count-1) across the
//     workers WITH the calling thread participating, returning when every
//     index has finished.  This is how parallel_sweep fans out its trials:
//     a pool of W workers plus the caller gives W+1 executors, and
//     indices are claimed from one atomic counter, so the set of indices
//     each thread runs is nondeterministic but the work per index is not —
//     callers must keep per-index state disjoint (both in-repo users do).
//
// Error contract (matches the historical parallel_sweep behavior): the
// FIRST exception thrown by any task is captured, the remaining queue is
// drained without running, and wait_idle()/run_indexed() rethrow it on the
// calling thread.  Which exception is "first" under concurrency is
// nondeterministic, exactly as it was with the per-call thread vector.
//
// A pool constructed with 0 threads degrades to inline execution on the
// calling thread (submit runs the task immediately) — the serial fallback
// for 1-core hosts, with identical semantics.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ssle::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = inline execution, no threads).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues one task.  With 0 workers the task runs inline here.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first captured task exception (if any).
  void wait_idle();

  /// Runs body(i) for every i in [0, count) across the workers and the
  /// calling thread; returns when all are done.  Rethrows the first
  /// exception (remaining indices are abandoned, matching wait_idle).
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void note_error();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable idle_cv_;  ///< waiters: queue empty and none active
  std::size_t active_ = 0;           ///< tasks currently executing
  bool stop_ = false;
  std::exception_ptr error_;         ///< first task exception, until rethrown
};

}  // namespace ssle::util
