// Unit tests of the runtime worker pool: full coverage of every index, safety
// under concurrent parallel_for callers (concurrent infer() calls sharing
// one engine), no deadlock on a single-thread pool, and exception propagation.
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/thread_pool.h"

namespace d3::runtime {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneIndexDegenerateCases) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run for n=0"; });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleThreadPoolDoesNotDeadlock) {
  // The caller helps drain the queue, so even a 1-thread pool completes a wide
  // parallel_for.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, AtLeastOneWorkerEvenWhenZeroRequested) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Several threads issue parallel_for on the same pool at once — concurrent
  // infer() calls' usage. Each call must see exactly its own indices completed.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kN = 128;
  std::vector<std::vector<int>> sums(kCallers, std::vector<int>(kN, 0));
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(kN, [&, c](std::size_t i) { sums[c][i] += static_cast<int>(i); });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c)
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(sums[c][i], static_cast<int>(i));
}

TEST(ThreadPool, BodyExceptionIsRethrownOnCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("tile failed");
                                 }),
               std::runtime_error);
  // The pool survives a failed call.
  std::atomic<int> count{0};
  pool.parallel_for(16, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, SubmitDrainsBeforeDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) pool.submit([&] { ++count; });
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace d3::runtime
