// Stress coverage of the concurrent tiered runtime: many in-flight requests
// across several zoo models through the threaded engine (real VSM tile
// parallelism) and the serving reactor. The paper's losslessness
// claim must survive concurrency untouched — every output bitwise-equal to the
// single-node exec::Executor reference — and transcripts must be deterministic:
// byte-identical across repeated seeded runs and identical to the sequential
// engine's, however threads interleave.
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsm.h"
#include "core/vsm_executor.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace d3::runtime {
namespace {

void expect_identical(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

void expect_same_transcript(const InferenceResult& a, const InferenceResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    const MessageRecord& ma = a.messages[i];
    const MessageRecord& mb = b.messages[i];
    EXPECT_EQ(ma.seq, mb.seq);
    EXPECT_EQ(ma.seq, i);
    EXPECT_EQ(ma.from_node, mb.from_node);
    EXPECT_EQ(ma.to_node, mb.to_node);
    EXPECT_EQ(ma.payload, mb.payload);
    EXPECT_EQ(ma.bytes, mb.bytes);
  }
  EXPECT_EQ(a.device_edge_bytes, b.device_edge_bytes);
  EXPECT_EQ(a.edge_cloud_bytes, b.edge_cloud_bytes);
  EXPECT_EQ(a.device_cloud_bytes, b.device_cloud_bytes);
  EXPECT_EQ(a.vsm_scatter_bytes, b.vsm_scatter_bytes);
  EXPECT_EQ(a.vsm_gather_bytes, b.vsm_gather_bytes);
}

// A three-tier workload: model, plan (optionally with a VSM stack on the
// edge), seeded weights and a batch of seeded inputs with their references.
struct Workload {
  std::string name;
  dnn::Network net;
  exec::WeightStore weights;
  core::Assignment plan;
  std::optional<core::FusedTilePlan> vsm;
  std::vector<dnn::Tensor> inputs;
  std::vector<dnn::Tensor> references;

  Workload(std::string label, dnn::Network n, std::size_t batch, std::uint64_t seed)
      : name(std::move(label)),
        net(std::move(n)),
        weights(exec::WeightStore::random_for(net, seed)) {
    plan.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
    plan.tier[0] = core::Tier::kDevice;
    util::Rng rng(seed + 17);
    for (std::size_t k = 0; k < batch; ++k)
      inputs.push_back(exec::random_tensor(net.input_shape(), rng));
    references = exec::Executor(net, weights).run_batch(inputs);
  }

  // Moves a prefix of layers to the edge and tiles its longest run.
  void tile_edge_prefix(std::size_t prefix, int rows, int cols) {
    std::vector<dnn::LayerId> edge_layers;
    for (std::size_t id = 0; id < prefix; ++id) {
      plan.tier[dnn::Network::vertex_of(static_cast<dnn::LayerId>(id))] = core::Tier::kEdge;
      edge_layers.push_back(static_cast<dnn::LayerId>(id));
    }
    const auto run = core::longest_tileable_run(net, edge_layers);
    ASSERT_FALSE(run.empty()) << name;
    vsm = core::make_fused_tile_plan(net, run, rows, cols);
  }
};

std::vector<Workload> zoo_workloads(std::size_t batch, std::uint64_t seed) {
  std::vector<Workload> workloads;
  workloads.emplace_back("tiny_chain", dnn::zoo::tiny_chain(), batch, seed);
  workloads.back().tile_edge_prefix(6, 2, 2);
  workloads.emplace_back("tiny_branch", dnn::zoo::tiny_branch(), batch, seed + 1);
  workloads.back().tile_edge_prefix(2, 2, 2);
  workloads.emplace_back("grid_module", dnn::zoo::grid_module(3, 3), batch, seed + 2);
  return workloads;
}

TEST(ConcurrencyStress, ConcurrentInferBitwiseLosslessAcrossZooModels) {
  // N threads x M models, every thread hammering the same shared engine.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kBatch = kThreads;
  for (Workload& w : zoo_workloads(kBatch, 2026)) {
    const OnlineEngine engine(w.net, w.weights, w.plan, w.vsm,
                              OnlineEngine::Options{.vsm_workers = 4});
    std::vector<InferenceResult> results(kBatch);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t k = t; k < kBatch; k += kThreads)
          results[k] = engine.infer(w.inputs[k]);
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t k = 0; k < kBatch; ++k)
      expect_identical(results[k].output, w.references[k]);
  }
}

TEST(ConcurrencyStress, ThreadedTranscriptMatchesSequentialEngine) {
  for (Workload& w : zoo_workloads(4, 4242)) {
    const OnlineEngine sequential(w.net, w.weights, w.plan, w.vsm);
    const OnlineEngine threaded(w.net, w.weights, w.plan, w.vsm,
                                OnlineEngine::Options{.vsm_workers = 4});
    ASSERT_EQ(sequential.vsm_workers(), 0u);
    ASSERT_EQ(threaded.vsm_workers(), 4u);
    for (const dnn::Tensor& input : w.inputs) {
      const InferenceResult a = sequential.infer(input);
      const InferenceResult b = threaded.infer(input);
      expect_identical(a.output, b.output);
      expect_same_transcript(a, b);
    }
  }
}

TEST(ConcurrencyStress, RepeatedSeededRunsProduceIdenticalTranscripts) {
  // Same seeds, three repetitions: transcripts must be byte-identical run to
  // run — thread interleaving must never leak into the observable record.
  for (int rep = 0; rep < 3; ++rep) {
    for (Workload& w : zoo_workloads(2, 999)) {
      const OnlineEngine threaded(w.net, w.weights, w.plan, w.vsm,
                                  OnlineEngine::Options{.vsm_workers = 3});
      const OnlineEngine reference_engine(w.net, w.weights, w.plan, w.vsm);
      for (std::size_t k = 0; k < w.inputs.size(); ++k) {
        const InferenceResult run = threaded.infer(w.inputs[k]);
        const InferenceResult expected = reference_engine.infer(w.inputs[k]);
        expect_identical(run.output, w.references[k]);
        expect_same_transcript(run, expected);
      }
    }
  }
}

TEST(ConcurrencyStress, ReactorPipelinesManyInFlightRequests) {
  constexpr std::size_t kBatch = 10;
  for (Workload& w : zoo_workloads(kBatch, 31337)) {
    const OnlineEngine engine(w.net, w.weights, w.plan, w.vsm,
                              OnlineEngine::Options{.vsm_workers = 4});
    const OnlineEngine sequential(w.net, w.weights, w.plan, w.vsm);

    ServingReactor::Options serving;
    serving.readiness_dispatch = true;
    ServingReactor reactor(engine, serving);
    for (std::size_t k = 0; k < kBatch; ++k)
      ASSERT_EQ(reactor.submit(w.inputs[k]), k) << w.name;
    EXPECT_EQ(reactor.stats().submitted, kBatch);
    const std::vector<InferenceResult> results = reactor.drain();
    EXPECT_EQ(reactor.stats().completed, kBatch);

    ASSERT_EQ(results.size(), kBatch);
    for (std::size_t k = 0; k < kBatch; ++k) {
      expect_identical(results[k].output, w.references[k]);
      // Pipelined execution leaves no trace in the per-request transcript.
      const InferenceResult expected = sequential.infer(w.inputs[k]);
      expect_same_transcript(results[k], expected);
    }
  }
}

TEST(ConcurrencyStress, ReactorWaitByIdAndErrors) {
  Workload w("tiny_chain", dnn::zoo::tiny_chain(), 2, 55);
  const OnlineEngine engine(w.net, w.weights, w.plan, std::nullopt,
                            OnlineEngine::Options{.vsm_workers = 2});
  ServingReactor reactor(engine);
  const std::size_t a = reactor.submit(w.inputs[0]);
  const std::size_t b = reactor.submit(w.inputs[1]);
  // Out-of-order waits are fine; double-collect and unknown ids are errors.
  expect_identical(reactor.wait(b).output, w.references[1]);
  expect_identical(reactor.wait(a).output, w.references[0]);
  EXPECT_THROW(reactor.wait(a), std::logic_error);
  EXPECT_THROW(reactor.wait(99), std::out_of_range);
  // A bad shape is rejected at submit time, before any stage runs.
  EXPECT_THROW(reactor.submit(dnn::Tensor(dnn::Shape{1, 2, 2})), std::invalid_argument);
}

TEST(ConcurrencyStress, RunFusedTilesParallelForHookIsLossless) {
  // The core-level tile runner with a real pool behind its TileParallelFor
  // hook must still equal the serial stack bitwise.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 13);
  util::Rng rng(29);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const std::vector<dnn::LayerId> stack = {0, 1, 2, 3, 4, 5};
  const auto plan = core::make_fused_tile_plan(net, stack, 2, 2);

  const dnn::Tensor serial = core::run_fused_tiles(net, weights, input, plan);
  ThreadPool pool(4);
  const dnn::Tensor parallel = core::run_fused_tiles(
      net, weights, input, plan,
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      });
  expect_identical(parallel, serial);
  expect_identical(parallel, core::run_stack_serial(net, weights, input, stack));
}

TEST(ConcurrencyStress, ReactorDestructorCompletesInFlightRequests) {
  // Destroying the reactor with uncollected requests must finish them (not
  // strand them between stages) and then join cleanly.
  Workload w("tiny_chain", dnn::zoo::tiny_chain(), 4, 91);
  const OnlineEngine engine(w.net, w.weights, w.plan, std::nullopt,
                            OnlineEngine::Options{.vsm_workers = 2});
  {
    ServingReactor reactor(engine);
    for (const dnn::Tensor& input : w.inputs) reactor.submit(input);
  }  // no wait()/drain(): the destructor must not hang or drop stage work
}

TEST(ConcurrencyStress, ConcurrentSubmittersOneReactor) {
  Workload w("grid_module", dnn::zoo::grid_module(3, 3), 8, 77);
  const OnlineEngine engine(w.net, w.weights, w.plan, std::nullopt,
                            OnlineEngine::Options{.vsm_workers = 2});
  ServingReactor reactor(engine);
  std::vector<std::size_t> ids(w.inputs.size());
  std::vector<std::thread> submitters;
  submitters.reserve(4);
  for (std::size_t t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t k = t; k < w.inputs.size(); k += 4)
        ids[k] = reactor.submit(w.inputs[k]);
    });
  }
  for (auto& t : submitters) t.join();
  for (std::size_t k = 0; k < w.inputs.size(); ++k)
    expect_identical(reactor.wait(ids[k]).output, w.references[k]);
}

}  // namespace
}  // namespace d3::runtime
