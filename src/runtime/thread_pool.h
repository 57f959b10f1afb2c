// Fixed-size worker pool used by the runtime engine: VSM fused-tile partitions
// run as real concurrent jobs (one per edge worker node), and the per-layer
// kernels borrow it for intra-op parallelism.
//
// Design: a single FIFO job queue guarded by one mutex. Jobs are opaque
// std::function<void()>; parallel_for() is the structured entry point the
// engine uses — it blocks the caller until every index has been processed, so
// all happens-before edges the gathered result needs are established by the
// join, and callers never observe partially-computed tiles. parallel_for is
// safe to call from multiple threads at once (each call tracks its own
// completion count), which is what lets concurrent infer() callers share one
// pool across in-flight requests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace d3::runtime {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1). The pool is non-movable: the
  // engine's kernel hooks hold references to it.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a fire-and-forget job. Must not be called after destruction
  // begins; jobs still queued at destruction are executed before join. An
  // exception escaping the job is caught and dropped — use parallel_for when
  // failures must reach the caller.
  void submit(std::function<void()> job);

  // Runs body(0), body(1), ..., body(n-1) across the pool and blocks until all
  // complete. The caller thread also executes jobs while waiting, so a
  // single-thread pool (or a pool saturated by other callers) cannot deadlock
  // the caller. If any body throws, the first exception is rethrown on the
  // caller after all indices finish; the rest are dropped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  // Number of hardware threads, with a floor of 1 (hardware_concurrency may
  // report 0 on exotic platforms).
  static std::size_t hardware_threads();

 private:
  void worker_loop();
  // Pops and runs one job if available; returns false when the queue is empty.
  bool run_one();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace d3::runtime
