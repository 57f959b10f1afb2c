// Concurrency stress for the admission-control paths of the serving reactor
// (run under TSan in CI). Pins the ISSUE-6 bugfix: a request evicted by
// drop-oldest admission between submit() and wait() raises RequestDropped
// exactly once — to whichever caller claims it first — and a concurrent
// drain() skips claimed requests instead of hanging or throwing for them.
#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "sim/pipeline.h"
#include "util/rng.h"

namespace d3::runtime {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kPerThread = 16;

struct Fixture {
  dnn::Network net;
  exec::WeightStore weights;
  dnn::Tensor input;
  dnn::Tensor reference;

  Fixture() : net(dnn::zoo::tiny_chain()), weights(exec::WeightStore::random_for(net, 21)) {
    util::Rng rng(22);
    input = exec::random_tensor(net.input_shape(), rng);
    reference = exec::Executor(net, weights).run(input);
  }
};

core::Assignment three_tier_plan(const dnn::Network& net) {
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  const std::size_t n = net.num_layers();
  for (std::size_t id = 0; id < n; ++id) {
    if (id < 2) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
    else if (id < 2 + (n - 2) / 2) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  }
  return a;
}

// Submits then waits from `kThreads` concurrent threads against `front`.
// Every id is waited by exactly one thread, so the dropped count observed by
// callers must equal the count admission control recorded.
void hammer_own_ids(ServingReactor& front, const dnn::Tensor& input, const dnn::Tensor& reference,
                    std::atomic<std::size_t>& completed, std::atomic<std::size_t>& refused) {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::size_t> ids;
      ids.reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) ids.push_back(front.submit(input));
      for (const std::size_t id : ids) {
        try {
          const InferenceResult result = front.wait(id);
          ASSERT_EQ(result.output.shape(), reference.shape());
          for (std::size_t i = 0; i < reference.size(); ++i)
            ASSERT_EQ(result.output[i], reference[i]);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const RequestDropped&) {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(AdmissionStress, ReactorRefusalsAreObservedExactlyOnce) {
  Fixture f;
  OnlineEngine::Options slow;
  slow.emulated_tier_service_seconds = {0.001, 0.0, 0.0};
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net), std::nullopt, slow);

  ServingReactor::Options options;
  options.admission_capacity = 2;
  options.max_inflight = 4;
  ServingReactor reactor(engine, options);

  std::atomic<std::size_t> completed{0}, refused{0};
  hammer_own_ids(reactor, f.input, f.reference, completed, refused);

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(completed.load() + refused.load(), kThreads * kPerThread);
  EXPECT_EQ(stats.completed, completed.load());
  EXPECT_EQ(stats.dropped + stats.shed + stats.expired, refused.load());
  EXPECT_GT(refused.load(), 0u) << "stress produced no drops; tighten the queue";
}

// drain() racing wait() across threads: each request's result is claimed by
// exactly one caller; drain skips claimed and refused requests rather than
// hanging on them or throwing (the pre-fix drain did both). The regression
// this pins: wait() observing a drop concurrently with drain() walking the
// same id must never deadlock drain().
void run_drain_race(ServingReactor& front, const Fixture& f, std::size_t& drained,
                    std::atomic<std::size_t>& waited, std::atomic<std::size_t>& refused) {
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t id = front.submit(f.input);
        // Half the ids are waited here, racing the drainer for the claim.
        if (id % 2 == 0) {
          try {
            const InferenceResult result = front.wait(id);
            for (std::size_t j = 0; j < f.reference.size(); ++j)
              ASSERT_EQ(result.output[j], f.reference[j]);
            waited.fetch_add(1, std::memory_order_relaxed);
          } catch (const RequestDropped&) {
            refused.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::logic_error&) {
            // the drainer claimed it first — fine, but never twice
          }
        }
      }
    });
  }
  std::thread drainer([&] { drained = front.drain().size(); });
  for (std::thread& thread : submitters) thread.join();
  drainer.join();
  // Late drain: every remaining unclaimed result, and proof the front end is
  // still consistent after the race.
  drained += front.drain().size();
}

TEST(AdmissionStress, ReactorDrainNeverHangsRacingWaiters) {
  Fixture f;
  OnlineEngine::Options slow;
  slow.emulated_tier_service_seconds = {0.001, 0.0, 0.0};
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net), std::nullopt, slow);

  ServingReactor::Options options;
  options.admission_capacity = 2;
  options.max_inflight = 4;
  ServingReactor reactor(engine, options);

  std::size_t drained = 0;
  std::atomic<std::size_t> waited{0}, refused{0};
  run_drain_race(reactor, f, drained, waited, refused);

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(drained + waited.load(), stats.completed);
  EXPECT_EQ(stats.completed + stats.dropped + stats.shed + stats.expired,
            kThreads * kPerThread);
}

}  // namespace
}  // namespace d3::runtime
