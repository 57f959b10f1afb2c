// Unit tests of the runtime worker pool: full coverage of every index, safety
// under concurrent parallel_for callers (concurrent infer() calls sharing
// one engine), no deadlock on a single-thread pool, exception propagation, and
// a hardware width that follows the affinity mask.
#include <sched.h>

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

TEST(ThreadPool, HardwareThreadsCountsTheAffinityMask) {
  // A worker started under taskset sizes its pool to its mask, not the host.
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(ThreadPool::hardware_threads(), static_cast<std::size_t>(CPU_COUNT(&original)));

  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = ThreadPool::hardware_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(pinned, 1u);
}

}  // namespace
}  // namespace d3::runtime
