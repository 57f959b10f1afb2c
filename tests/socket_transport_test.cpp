// Multi-process end-to-end: each tier of the online engine runs in its own OS
// process (fork/exec of the d3_node worker binary, localhost TCP), and the
// distributed inference must be bitwise-identical to the single-process
// exec::Executor, with a transcript byte-identical to the in-process engine
// and per-boundary byte counts matching core::boundary_traffic. On top of the
// PR-3 star topology this suite covers edge fan-out (the VSM tile plan
// sharded across real edge1..edgeN worker processes), peer-to-peer channels
// (boundary tensors pushed producer -> consumer, coordinator relay bytes
// provably zero), and worker-death recovery (bounded-backoff reconnect, the
// failed request replayed bitwise-identically).
#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include <gtest/gtest.h>

#include "core/hpa.h"
#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "net/conditions.h"
#include "profile/profiler.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "socket_transport_test needs D3_NODE_BINARY (set by CMake)"
#endif

namespace d3::runtime {
namespace {

void expect_identical(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

// Spawns worker processes and wires a configured SocketTransport. The default
// constructor attaches the classic one-process-per-tier star; tests may also
// attach named tier nodes and tile-worker shards one by one. `procs` is
// touched by the main test thread (kill_worker) and by respawn hooks running
// on engine/reactor threads, so all access goes through `mutex`.
struct Cluster {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> procs;
  std::shared_ptr<rpc::SocketTransport> transport =
      std::make_shared<rpc::SocketTransport>();

  Cluster() = default;

  Cluster(const dnn::Network& net, const exec::WeightStore& weights,
          const core::SerializablePlan& plan, std::size_t vsm_workers) {
    for (const char* node : {"device0", "edge0", "cloud0"}) attach(node);
    configure(net, weights, plan, vsm_workers);
  }

  // `mutex` guards only `procs`; transport calls happen outside it. Respawn
  // hooks run under the transport's per-node channel lock, so holding `mutex`
  // across a transport call would order the two lock families both ways.
  void attach(const std::string& node) {
    auto proc = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
    rpc::Socket socket = proc->take_socket();
    {
      std::lock_guard<std::mutex> lock(mutex);
      procs[node] = std::move(proc);
    }
    transport->add_node(node, std::move(socket));
  }

  void attach_tile_worker(std::size_t index) {
    const std::string node = "edge" + std::to_string(index + 1);
    auto proc = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
    rpc::Socket socket = proc->take_socket();
    {
      std::lock_guard<std::mutex> lock(mutex);
      procs[node] = std::move(proc);
    }
    transport->add_tile_worker(std::move(socket));
  }

  void configure(const dnn::Network& net, const exec::WeightStore& weights,
                 const core::SerializablePlan& plan, std::size_t vsm_workers) {
    transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan),
                         vsm_workers);
  }

  // Registers respawn-on-death for `node` with a fast test backoff.
  void enable_respawn(const std::string& node) {
    transport->set_reconnect(
        node,
        [this, node] {
          std::lock_guard<std::mutex> lock(mutex);
          procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
          return procs[node]->take_socket();
        },
        rpc::SocketTransport::RetryPolicy{4, std::chrono::milliseconds(10), 2.0});
  }

  void kill_worker(const std::string& node) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_TRUE(procs.count(node));
    ::kill(procs[node]->pid(), SIGKILL);
  }
};

void expect_same_transcript(const InferenceResult& a, const InferenceResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < b.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].seq, b.messages[i].seq);
    EXPECT_EQ(a.messages[i].from_node, b.messages[i].from_node);
    EXPECT_EQ(a.messages[i].to_node, b.messages[i].to_node);
    EXPECT_EQ(a.messages[i].payload, b.messages[i].payload);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
  EXPECT_EQ(a.device_edge_bytes, b.device_edge_bytes);
  EXPECT_EQ(a.edge_cloud_bytes, b.edge_cloud_bytes);
  EXPECT_EQ(a.device_cloud_bytes, b.device_cloud_bytes);
  EXPECT_EQ(a.vsm_scatter_bytes, b.vsm_scatter_bytes);
  EXPECT_EQ(a.vsm_gather_bytes, b.vsm_gather_bytes);
  EXPECT_EQ(a.layers_executed, b.layers_executed);
}

// The tiny-chain three-tier plan with a 2x2 VSM stack used by several tests:
// conv1+relu1 on the device, pool1..pool2 fused on the edge, the fc tail in
// the cloud.
struct ChainVsmCase {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment assignment;
  std::optional<core::FusedTilePlan> vsm;
  core::SerializablePlan plan;

  ChainVsmCase() {
    assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
    assignment.tier[0] = core::Tier::kDevice;
    for (const dnn::LayerId id : {0, 1})
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
    const std::vector<dnn::LayerId> edge_stack = {2, 3, 4, 5};
    for (const dnn::LayerId id : edge_stack)
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
    vsm = core::make_fused_tile_plan(net, edge_stack, 2, 2);
    plan = core::SerializablePlan{net.name(), assignment, vsm};
  }
};

TEST(SocketTransport, TinyChainVsmEndToEndAcrossThreeProcesses) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 5);
  util::Rng rng(6);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  // conv1+relu1 on the device, pool1..pool2 as a 2x2 VSM stack on the edge,
  // the fc tail in the cloud — every engine path exercised, every tier remote.
  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  const std::vector<dnn::LayerId> edge_stack = {2, 3, 4, 5};
  for (const dnn::LayerId id : edge_stack)
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const auto vsm = core::make_fused_tile_plan(net, edge_stack, 2, 2);
  const core::SerializablePlan plan{net.name(), assignment, vsm};

  Cluster cluster(net, weights, plan, /*vsm_workers=*/2);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, vsm, options);

  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, reference);

  // Transcript must be byte-identical to the in-process engine's.
  const InferenceResult local = OnlineEngine(net, weights, assignment, vsm).infer(frame);
  ASSERT_EQ(distributed.messages.size(), local.messages.size());
  for (std::size_t i = 0; i < local.messages.size(); ++i) {
    EXPECT_EQ(distributed.messages[i].from_node, local.messages[i].from_node);
    EXPECT_EQ(distributed.messages[i].to_node, local.messages[i].to_node);
    EXPECT_EQ(distributed.messages[i].payload, local.messages[i].payload);
    EXPECT_EQ(distributed.messages[i].bytes, local.messages[i].bytes);
  }
  EXPECT_EQ(distributed.vsm_scatter_bytes, local.vsm_scatter_bytes);
  EXPECT_EQ(distributed.vsm_gather_bytes, local.vsm_gather_bytes);
  EXPECT_EQ(distributed.layers_executed, local.layers_executed);

  // Per-boundary byte counts match the analytical traffic accounting.
  const auto estimators = profile::Profiler::profile_tiers(profile::paper_testbed());
  const auto problem = core::make_problem(net, estimators, net::wifi());
  const core::BoundaryTraffic traffic = core::boundary_traffic(problem, assignment);
  EXPECT_EQ(distributed.device_edge_bytes, traffic.device_edge_bytes);
  EXPECT_EQ(distributed.edge_cloud_bytes, traffic.edge_cloud_bytes);
  EXPECT_EQ(distributed.device_cloud_bytes, traffic.device_cloud_bytes);

  // Real payload bytes crossed the sockets.
  const rpc::SocketTransport::Stats stats = cluster.transport->stats();
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_GT(stats.payload_bytes_sent, 0u);
  EXPECT_GT(stats.payload_bytes_fetched, 0u);
}

TEST(SocketTransport, BranchNetWithDeferredConsumerAcrossProcesses) {
  const dnn::Network net = dnn::zoo::tiny_branch();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 31);
  util::Rng rng(32);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  // branch_a on the cloud, branch_b + concat on the edge: the edge-assigned
  // concat defers to the cloud stage and its cloud input is relayed
  // cloud -> edge between processes.
  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  assignment.tier[dnn::Network::vertex_of(0)] = core::Tier::kDevice;
  assignment.tier[dnn::Network::vertex_of(1)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {3, 4, 5})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster(net, weights, plan, 0);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);

  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, reference);

  const InferenceResult local = OnlineEngine(net, weights, assignment).infer(frame);
  ASSERT_EQ(distributed.messages.size(), local.messages.size());
  EXPECT_EQ(distributed.device_edge_bytes, local.device_edge_bytes);
  EXPECT_EQ(distributed.edge_cloud_bytes, local.edge_cloud_bytes);
  EXPECT_EQ(distributed.device_cloud_bytes, local.device_cloud_bytes);
}

TEST(SocketTransport, WorkerPoolRunsGridModuleLayersBitwise) {
  // The Inception grid module's 1x1/1x3/3x1 convs (1536 input channels) are
  // far above the kernels' parallelism threshold, so every kRunLayer on the
  // edge and cloud workers splits its GEMM across the worker's intra-op pool.
  // A zoo model: workers resolve the model by name. Outputs must stay
  // bitwise-identical to exec::Executor and the transcript byte-identical to
  // the in-process engine.
  const dnn::Network net = dnn::zoo::grid_module();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 61);
  util::Rng rng(62);

  // relu + avg-pool on the device, the Z2..Z4 convs on the edge, the Z5 convs
  // and the filter concat in the cloud.
  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (dnn::LayerId id = 2; id <= 9; ++id)
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster(net, weights, plan, 0);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const OnlineEngine local(net, weights, assignment);
  const exec::Executor executor(net, weights);

  for (int i = 0; i < 2; ++i) {
    const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
    const InferenceResult distributed = engine.infer(frame);
    expect_identical(distributed.output, executor.run(frame));
    expect_same_transcript(distributed, local.infer(frame));
  }
  EXPECT_GT(cluster.transport->stats().payload_bytes_fetched, 0u);
}

TEST(SocketTransport, PipelinedReactorAcrossProcesses) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 41);
  util::Rng rng(42);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1, 2})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {3, 4, 5})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster(net, weights, plan, 0);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const exec::Executor executor(net, weights);

  // Several in-flight requests pipelined across the three worker processes
  // (readiness dispatch parks each stage on its wire ops and steps the
  // others): per-request isolation on every node, results all bitwise-correct.
  ServingReactor::Options serving;
  serving.readiness_dispatch = true;
  ServingReactor reactor(engine, serving);
  std::vector<dnn::Tensor> frames;
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(exec::random_tensor(net.input_shape(), rng));
    ids.push_back(reactor.submit(frames.back()));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const InferenceResult result = reactor.wait(ids[i]);
    expect_identical(result.output, executor.run(frames[i]));
  }
}

TEST(SocketTransport, MultiEdgeFanOutAcrossFourProcesses) {
  // The acceptance topology: device + edge1 + edge2 + cloud, four real OS
  // processes. The edge *coordinator* role lives in the engine's process; the
  // VSM tile plan (2x2 = 4 tiles) is sharded across the two edge worker
  // processes (tile t -> worker t mod 2). Outputs must stay bitwise-identical
  // and the transcript byte-identical to the in-process engine, with per-
  // boundary bytes matching the analytical accounting and zero coordinator
  // relay bytes.
  const ChainVsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 91);
  util::Rng rng(92);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  Cluster cluster;
  cluster.attach("device0");
  cluster.attach("cloud0");
  cluster.attach_tile_worker(0);
  cluster.attach_tile_worker(1);
  cluster.configure(c.net, weights, c.plan, /*vsm_workers=*/0);
  cluster.transport->connect_peers();
  ASSERT_TRUE(cluster.transport->has_tile_workers());
  ASSERT_EQ(cluster.transport->tile_worker_count(), 2u);

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, reference);

  const InferenceResult local = OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame);
  expect_same_transcript(distributed, local);

  const auto estimators = profile::Profiler::profile_tiers(profile::paper_testbed());
  const auto problem = core::make_problem(c.net, estimators, net::wifi());
  const core::BoundaryTraffic traffic = core::boundary_traffic(problem, c.assignment);
  EXPECT_EQ(distributed.device_edge_bytes, traffic.device_edge_bytes);
  EXPECT_EQ(distributed.edge_cloud_bytes, traffic.edge_cloud_bytes);
  EXPECT_EQ(distributed.device_cloud_bytes, traffic.device_cloud_bytes);

  // Real tile payloads crossed to the shards and back; the coordinator never
  // relayed a remote node's tensor to another remote node.
  const rpc::SocketTransport::Stats stats = cluster.transport->stats();
  EXPECT_GT(stats.payload_bytes_sent, 0u);
  EXPECT_GT(stats.payload_bytes_fetched, 0u);
  EXPECT_EQ(stats.relay_bytes, 0u);
}

TEST(SocketTransport, PeerChannelsEliminateCoordinatorRelay) {
  // Same plan, two runs over all-remote tiers: the star topology relays every
  // boundary tensor through the coordinator (relay_bytes > 0); with peer
  // channels the device pushes to the edge and the edge pushes to the cloud
  // directly, so the coordinator moves zero relay bytes and only ever touches
  // the seeded input and the final output.
  const ChainVsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 71);
  util::Rng rng(72);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  std::uint64_t star_relay = 0;
  {
    Cluster star(c.net, weights, c.plan, /*vsm_workers=*/2);
    OnlineEngine::Options options;
    options.transport = star.transport;
    const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);
    expect_identical(engine.infer(frame).output, reference);
    const rpc::SocketTransport::Stats stats = star.transport->stats();
    star_relay = stats.relay_bytes;
    EXPECT_GT(stats.relay_bytes, 0u);
    EXPECT_EQ(stats.peer_pushes, 0u);
  }

  Cluster p2p(c.net, weights, c.plan, /*vsm_workers=*/2);
  p2p.transport->connect_peers();
  OnlineEngine::Options options;
  options.transport = p2p.transport;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);
  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, reference);

  // The transcript is a pure function of the plan: identical whether tensors
  // were relayed or pushed peer-to-peer.
  expect_same_transcript(distributed,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));

  const rpc::SocketTransport::Stats stats = p2p.transport->stats();
  EXPECT_EQ(stats.relay_bytes, 0u);
  EXPECT_EQ(stats.peer_pushes, 2u);  // device0 -> edge0, edge0 -> cloud0
  EXPECT_GT(stats.peer_bytes, 0u);
  EXPECT_LE(stats.peer_bytes, star_relay * 2);
  // Coordinator payload traffic is exactly: input seeded out, output fetched.
  EXPECT_EQ(stats.payload_bytes_sent, rpc::encode_tensor(frame).size());
  EXPECT_EQ(stats.payload_bytes_fetched, rpc::encode_tensor(reference).size());
}

TEST(SocketTransport, WorkerDeathWithRecoveryOffFailsAndRequestReplays) {
  // The PR-4 contract, still available behind tier_recovery=false: SIGKILL the
  // device worker between requests, the next request fails with
  // TransportError, the transport respawns the worker under bounded backoff
  // and replays kConfig, and re-submitting the same frame yields the
  // bitwise-identical result and transcript (the replay guarantee).
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 51);
  util::Rng rng(52);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster;
  cluster.attach("device0");
  cluster.configure(net, weights, plan, 0);
  cluster.enable_respawn("device0");

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  options.tier_recovery = false;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const InferenceResult before = engine.infer(frame);
  expect_identical(before.output, reference);

  cluster.kill_worker("device0");
  EXPECT_THROW(engine.infer(frame), rpc::TransportError);
  EXPECT_EQ(cluster.transport->stats().reconnects, 1u);
  EXPECT_EQ(engine.stats().recoveries, 0u);

  // The channel is healthy again: the replayed request completes losslessly.
  const InferenceResult replayed = engine.infer(frame);
  expect_identical(replayed.output, reference);
  expect_same_transcript(replayed, before);
}

TEST(SocketTransport, WorkerDeathRecoversInPlaceByDefault) {
  // Same kill, default options: the request that trips over the dead channel
  // recovers *in place* — the transport respawns the worker, the engine
  // reopens the request, re-seeds the lost slots, and the same infer() call
  // returns the bitwise-identical result with the byte-identical transcript.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 51);
  util::Rng rng(52);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster;
  cluster.attach("device0");
  cluster.configure(net, weights, plan, 0);
  cluster.enable_respawn("device0");

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const InferenceResult before = engine.infer(frame);
  expect_identical(before.output, reference);

  cluster.kill_worker("device0");
  // The death is noticed on the request's very first frame (kBegin): nothing
  // was lost yet, so the engine just re-opens on the respawned worker — no
  // tier needs replaying, and the same call simply succeeds.
  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered, before);
  EXPECT_EQ(cluster.transport->stats().reconnects, 1u);
  EXPECT_EQ(engine.stats().tiers_replayed, 0u);
}

TEST(SocketTransport, KillWorkerMidBatchAllRequestsRecover) {
  // A pipelined batch is in flight across three worker processes when the
  // edge worker dies. With tier-granular recovery on (the default) no request
  // fails: whichever stage trips over the dead channel rebuilds the edge
  // node's state and re-runs only the interrupted tier, and every output in
  // the batch stays bitwise-correct.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 61);
  util::Rng rng(62);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1, 2})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {3, 4, 5})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster(net, weights, plan, 0);
  cluster.enable_respawn("edge0");

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  // Slow the edge stage slightly so the batch is genuinely in flight when the
  // worker dies.
  options.emulated_tier_service_seconds = {0.0, 0.005, 0.0};
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const exec::Executor executor(net, weights);

  // Two requests in flight at a time: the reactor round-robins stages, so
  // with the whole batch admitted every request would be past the edge
  // before request 0 returns, and the kill would touch nothing.
  ServingReactor::Options serving;
  serving.max_inflight = 2;
  ServingReactor reactor(engine, serving);
  std::vector<dnn::Tensor> frames;
  std::vector<std::size_t> ids;
  for (int i = 0; i < 6; ++i) {
    frames.push_back(exec::random_tensor(net.input_shape(), rng));
    ids.push_back(reactor.submit(frames.back()));
  }
  const InferenceResult first = reactor.wait(ids[0]);
  expect_identical(first.output, executor.run(frames[0]));
  cluster.kill_worker("edge0");

  for (std::size_t i = 1; i < ids.size(); ++i)
    expect_identical(reactor.wait(ids[i]).output, executor.run(frames[i]));
  EXPECT_GE(cluster.transport->stats().reconnects, 1u);
  EXPECT_GE(engine.stats().recoveries, 1u);
}

TEST(SocketTransport, ReactorReplaysWhenEngineRecoveryIsOff) {
  // The reactor-level fallback: tier recovery disabled, but
  // Options::max_replays lets the reactor restart a ChannelDied request from
  // its retained input — the batch still completes with every output
  // bitwise-correct and no caller-visible failure.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 63);
  util::Rng rng(64);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1, 2})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {3, 4, 5})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  Cluster cluster(net, weights, plan, 0);
  cluster.enable_respawn("edge0");

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  options.tier_recovery = false;
  options.emulated_tier_service_seconds = {0.0, 0.005, 0.0};
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const exec::Executor executor(net, weights);

  ServingReactor::Options serving;
  serving.max_replays = 2;
  serving.max_inflight = 2;  // as above: keep requests short of the edge at the kill
  ServingReactor reactor(engine, serving);
  std::vector<dnn::Tensor> frames;
  std::vector<std::size_t> ids;
  for (int i = 0; i < 6; ++i) {
    frames.push_back(exec::random_tensor(net.input_shape(), rng));
    ids.push_back(reactor.submit(frames.back()));
  }
  const InferenceResult first = reactor.wait(ids[0]);
  expect_identical(first.output, executor.run(frames[0]));
  cluster.kill_worker("edge0");

  for (std::size_t i = 1; i < ids.size(); ++i)
    expect_identical(reactor.wait(ids[i]).output, executor.run(frames[i]));
  EXPECT_GE(cluster.transport->stats().reconnects, 1u);
  EXPECT_GE(reactor.stats().replayed, 1u);
  EXPECT_EQ(engine.stats().recoveries, 0u);
}

TEST(SocketTransport, PrunedTileWorkerIsReadmittedByLateReconnectHook) {
  // The ISSUE-6 re-admission fix. Phase 1: edge2 dies with no reconnect hook,
  // so recovery prunes it and reshards its tiles onto edge1 — before the fix
  // the pool stayed degraded forever, even once the operator brought the
  // worker back. Phase 2: a late set_reconnect() re-admits a fresh edge2
  // incarnation (dialled, kConfig replayed, shard slot restored in attachment
  // order), and the next request runs the original two-shard layout with a
  // transcript byte-identical to the pre-fault run.
  const ChainVsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 81);
  util::Rng rng(82);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  Cluster cluster;
  cluster.attach("device0");
  cluster.attach("cloud0");
  cluster.attach_tile_worker(0);
  cluster.attach_tile_worker(1);
  cluster.configure(c.net, weights, c.plan, /*vsm_workers=*/0);

  OnlineEngine::Options options;
  options.transport = cluster.transport;
  options.vsm_workers = 0;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult before = engine.infer(frame);
  expect_identical(before.output, reference);

  // Phase 1: death without a hook degrades the pool to one shard.
  cluster.kill_worker("edge2");
  const InferenceResult degraded = engine.infer(frame);
  expect_identical(degraded.output, reference);
  expect_same_transcript(degraded, before);  // virtual tile nodes, not shards
  EXPECT_EQ(cluster.transport->tile_worker_count(), 1u);
  EXPECT_EQ(cluster.transport->stats().detached_workers, 1u);

  // Phase 2: the late hook re-admits edge2 immediately (no fault needed).
  cluster.enable_respawn("edge2");
  EXPECT_EQ(cluster.transport->tile_worker_count(), 2u);
  EXPECT_EQ(cluster.transport->stats().readmitted_workers, 1u);

  const InferenceResult restored = engine.infer(frame);
  expect_identical(restored.output, reference);
  expect_same_transcript(restored, before);
}

TEST(SocketTransport, PeerChannelsWorkOnNonLoopbackInterface) {
  // Regression for the hardcoded-127.0.0.1 peer handshake: when the whole
  // cluster runs on a real interface, a worker's peer listener binds the
  // address its coordinator channel uses — not loopback — so a handshake that
  // advertises 127.0.0.1 dials a port nobody listens on. The fix advertises
  // the coordinator-observed peer address.
  const std::string host = rpc::first_non_loopback_address();
  if (host.empty()) GTEST_SKIP() << "host has no non-loopback IPv4 interface";

  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 83);
  util::Rng rng(84);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  assignment.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3, 4, 5})
    assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> procs;
  auto transport = std::make_shared<rpc::SocketTransport>();
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    procs[node] = std::make_unique<rpc::WorkerProcess>(
        D3_NODE_BINARY, std::vector<std::string>{}, host);
    transport->add_node(node, procs[node]->take_socket());
  }
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  transport->connect_peers();

  OnlineEngine::Options options;
  options.transport = transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, reference);
  expect_same_transcript(distributed,
                         OnlineEngine(net, weights, assignment).infer(frame));

  const rpc::SocketTransport::Stats stats = transport->stats();
  EXPECT_EQ(stats.peer_pushes, 2u);  // device0 -> edge0 -> cloud0, off loopback
  EXPECT_EQ(stats.relay_bytes, 0u);
}

TEST(SocketTransport, WorkerRejectsGarbageWithClearError) {
  // A node fed a plan for the wrong model answers kError (TransportError
  // here), not a partially-configured state.
  const dnn::Network chain = dnn::zoo::tiny_chain();
  const dnn::Network branch = dnn::zoo::tiny_branch();
  const exec::WeightStore weights = exec::WeightStore::random_for(chain, 7);

  core::Assignment assignment;
  assignment.tier.assign(chain.num_layers() + 1, core::Tier::kDevice);
  const core::SerializablePlan plan{chain.name(), assignment, std::nullopt};

  // Declared before the transport so the transport (which holds the socket)
  // is destroyed first and the worker exits on EOF instead of timing out.
  rpc::WorkerProcess worker(D3_NODE_BINARY);
  auto transport = std::make_shared<rpc::SocketTransport>();
  transport->add_node("device0", worker.take_socket());
  // Model name says tiny-branch, weights and plan are tiny-chain's: the worker
  // must reject the bundle.
  EXPECT_THROW(transport->configure(branch.name(), chain, weights,
                                    core::serialize_plan_binary(plan), 0),
               rpc::TransportError);
}

TEST(SocketTransport, WorkerAnswersRetiredKind15WithError) {
  // Kind 15 was the buddy replica store's put. It is retired: a worker
  // answers it like any unknown kind, with kError, and keeps serving.
  rpc::WorkerProcess worker(D3_NODE_BINARY);
  const rpc::Socket socket = worker.take_socket();
  rpc::write_frame(socket.fd(), static_cast<rpc::MsgKind>(15), {});
  EXPECT_EQ(rpc::read_frame(socket.fd()).kind, rpc::MsgKind::kError);
  rpc::write_frame(socket.fd(), rpc::MsgKind::kPing, {});
  EXPECT_EQ(rpc::read_frame(socket.fd()).kind, rpc::MsgKind::kPong);
}

}  // namespace
}  // namespace d3::runtime
