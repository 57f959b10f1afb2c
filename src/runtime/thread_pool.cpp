#include "runtime/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <utility>

namespace d3::runtime {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      // A throwing fire-and-forget job must not take down the process (and a
      // foreign job must not throw into another call's helping caller).
      // parallel_for's jobs capture their exceptions internally and rethrow
      // on their own caller, so nothing is lost for the structured path.
    }
  }
}

bool ThreadPool::run_one() {
  std::function<void()> job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    job = std::move(queue_.front());
    queue_.pop_front();
  }
  try {
    job();
  } catch (...) {  // see worker_loop
  }
  return true;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {  // no dispatch overhead for the degenerate grid
    body(0);
    return;
  }

  // Per-call completion state, shared with the jobs so concurrent parallel_for
  // calls from different requests never interfere.
  struct CallState {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t remaining;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<CallState>();
  state->remaining = n;

  for (std::size_t i = 0; i < n; ++i) {
    submit([state, i, &body] {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->first_error) state->first_error = std::current_exception();
      }
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        last = --state->remaining == 0;
      }
      if (last) state->done_cv.notify_all();
    });
  }

  // Help drain the queue: the caller may pick up jobs from *other* concurrent
  // calls too, which is fine — work is work. Once the queue is empty, block on
  // this call's completion (its last jobs may still be running on workers).
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->mutex);
      if (state->remaining == 0) break;
    }
    if (!run_one()) {
      std::unique_lock<std::mutex> lock(state->mutex);
      state->done_cv.wait(lock, [&] { return state->remaining == 0; });
      break;
    }
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
}

std::size_t ThreadPool::hardware_threads() {
  // The CPUs this thread may run on, not the host's: a process started under
  // taskset (or a cpuset) gets a pool that fits its mask.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&mask));
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

}  // namespace d3::runtime
