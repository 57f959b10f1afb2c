// Crash-point sweep over the distributed runtime's tier-granular recovery.
//
// Every test builds a real multi-process cluster (fork/exec'd d3_node workers
// over localhost TCP), wraps the SocketTransport in a FaultInjectionTransport,
// and SIGKILLs a worker at an exactly scripted protocol point — "before the
// Nth op of kind K targeting node X" — covering every message kind
// (kPut/kRunLayer/kRunStack/kGet/kPutTile/kRunTile/kGetTile/kPushPeer, plus
// the kConfig replay and a worker-side --crash-after frame counter) across
// every tier. The two invariants must survive every kill point:
//
//   1. the recovered output is bitwise-identical to exec::Executor, and
//   2. the final transcript is byte-identical to the in-process engine's
//      (messages are recorded exactly once, however many times recovery
//      re-ran a tier).
//
// Plus the recovery-cost pins of ISSUE 5: a SIGKILL during the edge tier of a
// 3-tier plan replays exactly one tier (tiers_replayed == 1) and moves
// strictly fewer bytes than an end-to-end replay; a death that lost no work
// re-executes zero layers.
#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/fault_injection.h"
#include "rpc/socket_transport.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "fault_injection_test needs D3_NODE_BINARY (set by CMake)"
#endif

namespace d3::runtime {
namespace {

using rpc::FaultInjectionTransport;
using Op = FaultInjectionTransport::Op;
using Action = FaultInjectionTransport::Action;
using Fault = FaultInjectionTransport::Fault;

void expect_identical(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

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

// Worker cluster + fault-injection wiring. The kill handler and respawn hooks
// run on engine/reactor threads, so process bookkeeping is mutex-guarded.
struct FaultCluster {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> procs;
  std::shared_ptr<rpc::SocketTransport> socket = std::make_shared<rpc::SocketTransport>();
  std::shared_ptr<FaultInjectionTransport> faults =
      std::make_shared<FaultInjectionTransport>(socket);

  FaultCluster() {
    faults->set_kill_handler([this](const std::string& node) { kill_worker(node); });
  }

  void attach(const std::string& node, const std::vector<std::string>& extra_args = {}) {
    std::lock_guard<std::mutex> lock(mutex);
    procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY, extra_args);
    socket->add_node(node, procs[node]->take_socket());
  }

  void attach_tile_worker(std::size_t index) {
    const std::string node = "edge" + std::to_string(index + 1);
    std::lock_guard<std::mutex> lock(mutex);
    procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
    socket->add_tile_worker(procs[node]->take_socket());
  }

  void configure(const dnn::Network& net, const exec::WeightStore& weights,
                 const core::SerializablePlan& plan, std::size_t vsm_workers) {
    socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan),
                      vsm_workers);
  }

  void enable_respawn(const std::string& node) {
    socket->set_reconnect(
        node,
        [this, node] {
          std::lock_guard<std::mutex> lock(mutex);
          procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
          return procs[node]->take_socket();
        },
        rpc::SocketTransport::RetryPolicy{4, std::chrono::milliseconds(5), 2.0});
  }

  void kill_worker(const std::string& node) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_TRUE(procs.count(node)) << "no worker process for '" << node << "'";
    ::kill(procs[node]->pid(), SIGKILL);
  }
};

// tiny-chain (10 layers) split 2/4/4: conv1+relu1 on the device, pool1..pool2
// as plain remote layers on the edge, the fc tail in the cloud. Every tier
// hosts real work, so every kill point has something to lose.
struct ThreeTierCase {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment assignment;
  core::SerializablePlan plan;

  ThreeTierCase() {
    assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
    assignment.tier[0] = core::Tier::kDevice;
    for (const dnn::LayerId id : {0, 1})
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
    for (const dnn::LayerId id : {2, 3, 4, 5})
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
    plan = core::SerializablePlan{net.name(), assignment, std::nullopt};
  }
};

// Same split, but pool1..pool2 fused into a 2x2 VSM tile stack on the edge.
struct VsmCase {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment assignment;
  std::optional<core::FusedTilePlan> vsm;
  core::SerializablePlan plan;

  VsmCase() {
    assignment.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
    assignment.tier[0] = core::Tier::kDevice;
    for (const dnn::LayerId id : {0, 1})
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
    const std::vector<dnn::LayerId> stack = {2, 3, 4, 5};
    for (const dnn::LayerId id : stack)
      assignment.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
    vsm = core::make_fused_tile_plan(net, stack, 2, 2);
    plan = core::SerializablePlan{net.name(), assignment, vsm};
  }
};

// --- The kill-point sweep ----------------------------------------------------

struct KillPoint {
  const char* label;
  Op op;
  const char* node;
  std::uint64_t nth;
  bool vsm;  // run on the VsmCase (remote kRunStack) instead of ThreeTierCase
};

class KillPointSweep : public ::testing::TestWithParam<KillPoint> {};

TEST_P(KillPointSweep, RecoversBitwiseWithByteIdenticalTranscript) {
  const KillPoint point = GetParam();
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 81);
  util::Rng rng(82);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  core::Assignment assignment;
  std::optional<core::FusedTilePlan> vsm;
  core::SerializablePlan plan;
  if (point.vsm) {
    const VsmCase c;
    assignment = c.assignment;
    vsm = c.vsm;
    plan = c.plan;
  } else {
    const ThreeTierCase c;
    assignment = c.assignment;
    plan = c.plan;
  }

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(net, weights, plan, /*vsm_workers=*/point.vsm ? 2 : 0);
  cluster.faults->schedule(Fault{point.op, point.node, point.nth, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(net, weights, assignment, vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered, OnlineEngine(net, weights, assignment, vsm).infer(frame));

  const FaultInjectionTransport::Stats stats = cluster.faults->stats();
  EXPECT_EQ(stats.faults_injected, 1u) << point.label;
  EXPECT_EQ(stats.kills, 1u) << point.label;
  EXPECT_GE(cluster.socket->stats().reconnects, 1u) << point.label;
}

INSTANTIATE_TEST_SUITE_P(
    EveryMessageKindTimesEveryTier, KillPointSweep,
    ::testing::Values(
        // kPut: the raw-input seed, each tier's first boundary delivery.
        KillPoint{"seed_device", Op::kPut, "device0", 1, false},
        KillPoint{"put_edge", Op::kPut, "edge0", 1, false},
        KillPoint{"put_cloud", Op::kPut, "cloud0", 1, false},
        // kRunLayer: first and mid-tier layers on every tier.
        KillPoint{"run_device_first", Op::kRunLayer, "device0", 1, false},
        KillPoint{"run_device_second", Op::kRunLayer, "device0", 2, false},
        KillPoint{"run_edge_first", Op::kRunLayer, "edge0", 1, false},
        KillPoint{"run_edge_mid", Op::kRunLayer, "edge0", 3, false},
        KillPoint{"run_cloud_first", Op::kRunLayer, "cloud0", 1, false},
        KillPoint{"run_cloud_last", Op::kRunLayer, "cloud0", 4, false},
        // kGet: the cross-tier relay fetches and the final-output fetch.
        KillPoint{"fetch_device_for_edge_relay", Op::kGet, "device0", 1, false},
        KillPoint{"fetch_edge_for_cloud_relay", Op::kGet, "edge0", 1, false},
        KillPoint{"fetch_cloud_final_output", Op::kGet, "cloud0", 1, false},
        // kRunStack: the whole VSM stage dies on the remote edge.
        KillPoint{"run_stack_edge", Op::kRunStack, "edge0", 1, true},
        KillPoint{"put_edge_stack_input", Op::kPut, "edge0", 1, true}));

// --- ISSUE 5 acceptance: one-tier migration, measurably cheaper --------------

TEST(FaultInjection, EdgeTierKillReplaysExactlyOneTierForFewerBytesThanFullReplay) {
  // SIGKILL the edge worker mid-edge-tier (after pool1 ran, before conv2) in a
  // 3-tier plan: recovery must re-run only the edge tier — tiers_replayed ==
  // 1 — and move strictly fewer bytes than an end-to-end replay (raw input +
  // every boundary message), while output and transcript stay identical.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 83);
  util::Rng rng(84);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunLayer, "edge0", 2, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  const InferenceResult local =
      OnlineEngine(c.net, weights, c.assignment).infer(frame);
  expect_same_transcript(recovered, local);

  const OnlineEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.tiers_replayed, 1u);
  EXPECT_GE(stats.layers_replayed, 1u);
  EXPECT_GT(stats.recovery_bytes, 0u);

  // The full-replay baseline: replaying end-to-end re-seeds the raw input and
  // re-ships every boundary tensor of the transcript.
  std::uint64_t full_replay_bytes = static_cast<std::uint64_t>(c.net.input_shape().bytes());
  for (const MessageRecord& m : local.messages)
    full_replay_bytes += static_cast<std::uint64_t>(m.bytes);
  EXPECT_LT(stats.recovery_bytes, full_replay_bytes);
}

TEST(FaultInjection, DeathWithNoLostWorkReExecutesZeroLayers) {
  // Regression for the PR-4 behaviour, where *any* worker death forced a
  // whole-request replay: kill the cloud worker right before its first
  // kRunLayer — it has computed nothing, so recovery must re-seed its inputs
  // and re-execute nothing. Pinned three ways: layers_replayed == 0,
  // tiers_replayed == 0, and the transport saw exactly one kRunLayer op more
  // than the layer count (the interrupted call itself, reissued).
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 85);
  util::Rng rng(86);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunLayer, "cloud0", 1, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered, OnlineEngine(c.net, weights, c.assignment).infer(frame));

  const OnlineEngine::Stats stats = engine.stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.tiers_replayed, 0u);
  EXPECT_EQ(stats.layers_replayed, 0u);
  EXPECT_GE(stats.tensors_reseeded, 1u);  // the cloud node's pending inputs
  // Every layer executed exactly once: the only extra kRunLayer op is the
  // interrupted call, which the worker never got to execute.
  EXPECT_EQ(cluster.faults->op_count(Op::kRunLayer), c.net.num_layers() + 1);
}

// --- Edge fan-out: tile-worker deaths ---------------------------------------

struct TileKillPoint {
  const char* label;
  Op op;
  const char* node;
  std::uint64_t nth;
};

class TileWorkerKillSweep : public ::testing::TestWithParam<TileKillPoint> {};

TEST_P(TileWorkerKillSweep, RespawnedShardRecovers) {
  // 4 processes: device + 2 tile workers + cloud; the engine is the edge
  // coordinator sharding the 2x2 tile plan. A tile worker dies at the
  // scripted scatter/compute/gather point, the transport respawns it, and the
  // whole stack re-runs with identical bits and transcript.
  const TileKillPoint point = GetParam();
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 87);
  util::Rng rng(88);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  cluster.attach("device0");
  cluster.attach("cloud0");
  cluster.attach_tile_worker(0);
  cluster.attach_tile_worker(1);
  for (const char* node : {"device0", "cloud0", "edge1", "edge2"})
    cluster.enable_respawn(node);
  cluster.configure(c.net, weights, c.plan, 0);
  ASSERT_TRUE(cluster.socket->has_tile_workers());
  cluster.faults->schedule(Fault{point.op, point.node, point.nth, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  // Sequential tile drive: the kill point stays at an exact op index.
  options.vsm_workers = 0;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  EXPECT_EQ(cluster.faults->stats().kills, 1u) << point.label;
  EXPECT_EQ(cluster.socket->tile_worker_count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    ScatterComputeGather, TileWorkerKillSweep,
    ::testing::Values(TileKillPoint{"put_tile_first_shard", Op::kPutTile, "edge1", 1},
                      TileKillPoint{"put_tile_second_shard", Op::kPutTile, "edge2", 1},
                      TileKillPoint{"run_tile_first_shard", Op::kRunTile, "edge1", 1},
                      TileKillPoint{"run_tile_second_shard", Op::kRunTile, "edge2", 2},
                      TileKillPoint{"get_tile_first_shard", Op::kGetTile, "edge1", 1},
                      TileKillPoint{"get_tile_second_shard", Op::kGetTile, "edge2", 2}));

// Forwards every verb to `inner` and records the envelope meta of each
// put_tile it passes on.
class PutTileRecorder final : public rpc::Transport {
 public:
  explicit PutTileRecorder(std::shared_ptr<rpc::Transport> inner) : inner_(std::move(inner)) {}

  std::vector<std::pair<std::size_t, MessageRecord>> puts;  // (tile, meta)

  std::string name() const override { return "recorder(" + inner_->name() + ")"; }
  std::uint64_t open_request() override { return inner_->open_request(); }
  void close_request(std::uint64_t request) noexcept override { inner_->close_request(request); }
  void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
            const dnn::Tensor& tensor) override {
    inner_->seed(request, node, slot, tensor);
  }
  std::optional<dnn::Tensor> send(std::uint64_t request, const MessageRecord& meta,
                                  std::uint64_t slot, const dnn::Tensor& tensor) override {
    return inner_->send(request, meta, slot, tensor);
  }
  bool run_layer(std::uint64_t request, const std::string& node, dnn::LayerId layer) override {
    return inner_->run_layer(request, node, layer);
  }
  bool run_stack(std::uint64_t request, const std::string& node) override {
    return inner_->run_stack(request, node);
  }
  dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                    std::uint64_t slot) override {
    return inner_->fetch(request, node, slot);
  }
  bool send_peer(std::uint64_t request, const MessageRecord& meta,
                 std::uint64_t slot) override {
    return inner_->send_peer(request, meta, slot);
  }
  bool reopen(std::uint64_t request, const std::string& node) override {
    return inner_->reopen(request, node);
  }
  std::size_t prune_tile_workers() override { return inner_->prune_tile_workers(); }
  bool has_tile_workers() const override { return inner_->has_tile_workers(); }
  std::size_t tile_worker_count() const override { return inner_->tile_worker_count(); }
  std::string tile_node(std::size_t tile) const override { return inner_->tile_node(tile); }
  void put_tile(std::uint64_t request, const MessageRecord& meta, std::size_t tile,
                const dnn::Tensor& input) override {
    puts.emplace_back(tile, meta);
    inner_->put_tile(request, meta, tile, input);
  }
  void run_tile(std::uint64_t request, std::size_t tile) override {
    inner_->run_tile(request, tile);
  }
  dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile) override {
    return inner_->fetch_tile(request, tile);
  }

 private:
  std::shared_ptr<rpc::Transport> inner_;
};

TEST(FaultInjection, ReRunTilePutsCarryTheirOwnScatterRecords) {
  // A kRunTile kill re-runs the whole stack after the first pass already
  // recorded every scatter message. Each tile's put — first pass and re-run
  // alike — must carry that tile's own transcript record, seq included.
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 93);
  util::Rng rng(94);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  cluster.attach("device0");
  cluster.attach("cloud0");
  cluster.attach_tile_worker(0);
  cluster.attach_tile_worker(1);
  for (const char* node : {"device0", "cloud0", "edge1", "edge2"})
    cluster.enable_respawn(node);
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunTile, "edge1", 1, Action::kKill, {}, ""});
  const auto recorder = std::make_shared<PutTileRecorder>(cluster.faults);

  OnlineEngine::Options options;
  options.transport = recorder;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  ASSERT_EQ(cluster.faults->stats().kills, 1u);

  // Every tile's crop went out twice: the first pass, then the re-run.
  ASSERT_EQ(recorder->puts.size(), 2 * c.vsm->num_tiles());
  for (const auto& [tile, meta] : recorder->puts) {
    SCOPED_TRACE("tile " + std::to_string(tile));
    ASSERT_LT(meta.seq, recovered.messages.size());
    const MessageRecord& scatter = recovered.messages[meta.seq];
    EXPECT_EQ(scatter.payload, "tile(" + std::to_string(tile) + ") input");
    EXPECT_EQ(meta.seq, scatter.seq);
    EXPECT_EQ(meta.payload, scatter.payload);
    EXPECT_EQ(meta.from_node, scatter.from_node);
    EXPECT_EQ(meta.to_node, scatter.to_node);
    EXPECT_EQ(meta.bytes, scatter.bytes);
  }
}

TEST(FaultInjection, DeadTileWorkerWithoutRespawnIsReshardedAcrossSurvivors) {
  // No reconnect hook for edge2: its death prunes it from the shard map and
  // the re-run lands all four tiles on edge1 — same bits, same transcript
  // (the transcript names the *virtual* per-tile nodes, not the shards).
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 89);
  util::Rng rng(90);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  cluster.attach("device0");
  cluster.attach("cloud0");
  cluster.attach_tile_worker(0);
  cluster.attach_tile_worker(1);
  cluster.enable_respawn("device0");
  cluster.enable_respawn("cloud0");
  cluster.enable_respawn("edge1");  // edge2 deliberately unrecoverable
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunTile, "edge2", 1, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  options.vsm_workers = 0;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  EXPECT_EQ(cluster.socket->tile_worker_count(), 1u);
  EXPECT_EQ(cluster.socket->stats().detached_workers, 1u);
  EXPECT_GE(engine.stats().tiers_replayed, 1u);

  // The pruned pool keeps serving: a second request runs 4 tiles on 1 shard.
  expect_identical(engine.infer(frame).output, reference);
}

// --- Peer-to-peer: producer and consumer deaths around kPushPeer -------------

TEST(FaultInjection, ProducerDeathBeforePeerPushRecovers) {
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 91);
  util::Rng rng(92);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, /*vsm_workers=*/2);
  cluster.socket->connect_peers();
  // The device (producer of the first boundary tensor) dies right before it
  // is asked to push to the edge: its computed layers are lost and re-run.
  cluster.faults->schedule(Fault{Op::kPushPeer, "device0", 1, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  EXPECT_GE(engine.stats().tiers_replayed, 1u);
}

TEST(FaultInjection, ConsumerDeathDuringPeerPushRecovers) {
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 93);
  util::Rng rng(94);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, /*vsm_workers=*/2);
  cluster.socket->connect_peers();
  // The *edge* (consumer) dies right before the device's push: the producer's
  // peer channel goes dark mid-handshake, the transport respawns the edge,
  // and recovery re-seeds what the fresh edge incarnation needs.
  cluster.faults->schedule(
      Fault{Op::kPushPeer, "device0", 1, Action::kKill, {}, "edge0"});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  expect_same_transcript(recovered,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  EXPECT_GE(cluster.socket->stats().reconnects, 1u);
}

// --- Mid-batch through the reactor ------------------------------------------

TEST(FaultInjection, MidBatchKillRecoversEveryRequest) {
  // Six pipelined requests; the edge worker dies inside request #2's edge
  // stage (7th kRunLayer on edge0 = 4 layers of request #1 + 3 of #2). Every
  // request must still complete bitwise-correct, with no caller-visible
  // failure.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 95);
  util::Rng rng(96);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunLayer, "edge0", 7, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);
  const exec::Executor executor(c.net, weights);

  ServingReactor reactor(engine);
  std::vector<dnn::Tensor> frames;
  std::vector<std::size_t> ids;
  for (int i = 0; i < 6; ++i) {
    frames.push_back(exec::random_tensor(c.net.input_shape(), rng));
    ids.push_back(reactor.submit(frames.back()));
  }
  for (std::size_t i = 0; i < ids.size(); ++i)
    expect_identical(reactor.wait(ids[i]).output, executor.run(frames[i]));
  EXPECT_EQ(cluster.faults->stats().kills, 1u);
  EXPECT_GE(engine.stats().recoveries, 1u);
  EXPECT_EQ(reactor.stats().replayed, 0u);  // recovered in place, not restarted
}

// --- Idempotence and benign perturbations -----------------------------------

TEST(FaultInjection, DuplicatedPutAndRunAreIdempotent) {
  // kPut re-delivery is the primitive recovery is built on: a duplicated put
  // (and a duplicated layer execution) must be byte-for-byte invisible.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 97);
  util::Rng rng(98);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) cluster.attach(node);
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kPut, "edge0", 1, Action::kDuplicate, {}, ""});
  cluster.faults->schedule(Fault{Op::kPut, "device0", 1, Action::kDuplicate, {}, ""});
  cluster.faults->schedule(Fault{Op::kRunLayer, "cloud0", 2, Action::kDuplicate, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult result = engine.infer(frame);
  expect_identical(result.output, reference);
  expect_same_transcript(result, OnlineEngine(c.net, weights, c.assignment).infer(frame));
  EXPECT_EQ(cluster.faults->stats().duplicates, 3u);
  EXPECT_EQ(engine.stats().recoveries, 0u);
}

TEST(FaultInjection, DelayedOpsPerturbNothing) {
  const VsmCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 99);
  util::Rng rng(100);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) cluster.attach(node);
  cluster.configure(c.net, weights, c.plan, /*vsm_workers=*/2);
  cluster.faults->schedule(
      Fault{Op::kRunStack, "edge0", 1, Action::kDelay, std::chrono::milliseconds(30), ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const InferenceResult result = engine.infer(frame);
  expect_identical(result.output, reference);
  expect_same_transcript(result,
                         OnlineEngine(c.net, weights, c.assignment, c.vsm).infer(frame));
  EXPECT_EQ(cluster.faults->stats().delays, 1u);
}

// --- Worker-side scripted crashes and kConfig-replay failures ----------------

TEST(FaultInjection, WorkerSideCrashAfterFramesRecoversMidRequest) {
  // The fault script can live on the worker side too: d3_node --crash-after N
  // dies abruptly on its (N+1)th coordinator frame, with no signal from the
  // test. Frames to device0 per request here: kBegin, kPut(seed), 2x
  // kRunLayer, kGet (relay fetch), kEnd = 6 — so --crash-after 8 dies inside
  // the second request's device tier, and that request recovers in place.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 101);
  util::Rng rng(102);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  cluster.attach("device0", {"--crash-after", "8"});
  cluster.attach("edge0");
  cluster.attach("cloud0");
  for (const char* node : {"device0", "edge0", "cloud0"}) cluster.enable_respawn(node);
  cluster.configure(c.net, weights, c.plan, 0);

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult first = engine.infer(frame);
  expect_identical(first.output, reference);
  const InferenceResult second = engine.infer(frame);  // crashes + recovers inside
  expect_identical(second.output, reference);
  expect_same_transcript(second, first);
  EXPECT_EQ(cluster.socket->stats().reconnects, 1u);
  EXPECT_GE(engine.stats().recoveries, 1u);
}

TEST(FaultInjection, ConfigReplayFailingOnceStillRecovers) {
  // The reconnect hook's first incarnation is unusable (invalid socket, so
  // the kConfig replay cannot even start); the bounded-backoff loop retries
  // and the second respawn recovers the request.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 103);
  util::Rng rng(104);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) cluster.attach(node);
  cluster.enable_respawn("device0");
  cluster.enable_respawn("cloud0");
  int attempts = 0;
  cluster.socket->set_reconnect(
      "edge0",
      [&cluster, &attempts]() -> rpc::Socket {
        if (++attempts == 1) return rpc::Socket();  // dead on arrival
        std::lock_guard<std::mutex> lock(cluster.mutex);
        cluster.procs["edge0"] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
        return cluster.procs["edge0"]->take_socket();
      },
      rpc::SocketTransport::RetryPolicy{4, std::chrono::milliseconds(5), 2.0});
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{Op::kRunLayer, "edge0", 2, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult recovered = engine.infer(frame);
  expect_identical(recovered.output, reference);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(cluster.socket->stats().reconnects, 1u);
  EXPECT_GE(engine.stats().recoveries, 1u);
}

// --- Peer-handshake kill points, heartbeat probes, buddy replication ---------

struct HandshakeKillPoint {
  const char* label;
  Op op;
  const char* node;
};

class PeerHandshakeKillSweep : public ::testing::TestWithParam<HandshakeKillPoint> {};

TEST_P(PeerHandshakeKillSweep, MeshRebuildsAndInferenceStaysBitwise) {
  // A node dies inside connect_peers() itself — before the listener opens,
  // between the listen and dial legs, or before the dialling worker is told
  // where to connect. Re-running connect_peers() after the respawn must
  // rebuild the full mesh (workers replace stale peer channels by name), and
  // the request then rides worker->worker pushes with identical bits.
  const HandshakeKillPoint point = GetParam();
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 105);
  util::Rng rng(106);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.faults->schedule(Fault{point.op, point.node, 1, Action::kKill, {}, ""});

  // The first attempt dies at the scripted handshake point (the kPeerHello
  // window needs one extra round: the dial leg fails against the dead
  // listener first, the *next* attempt touches the dead channel and
  // respawns). The linking loop is the caller-visible retry surface.
  int failed_attempts = 0;
  for (;; ++failed_attempts) {
    ASSERT_LT(failed_attempts, 4) << point.label;
    try {
      cluster.socket->connect_peers();
      break;
    } catch (const rpc::TransportError&) {
    }
  }
  EXPECT_GE(failed_attempts, 1) << point.label;

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult result = engine.infer(frame);
  expect_identical(result.output, reference);
  expect_same_transcript(result, OnlineEngine(c.net, weights, c.assignment).infer(frame));
  EXPECT_EQ(cluster.faults->stats().kills, 1u) << point.label;
  EXPECT_GE(cluster.socket->stats().reconnects, 1u) << point.label;
  // Both tier boundaries travelled worker->worker on the rebuilt mesh.
  EXPECT_EQ(cluster.socket->stats().peer_pushes, 2u) << point.label;
}

INSTANTIATE_TEST_SUITE_P(
    ListenHelloDial, PeerHandshakeKillSweep,
    ::testing::Values(
        HandshakeKillPoint{"receiver_dies_before_listen", Op::kPeerListen, "edge0"},
        HandshakeKillPoint{"receiver_dies_between_legs", Op::kPeerHello, "edge0"},
        HandshakeKillPoint{"dialler_dies_before_connect", Op::kConnectPeer, "device0"}));

TEST(FaultInjection, HeartbeatKillIsDetectedOnFirstProbeWithNoSendInFlight) {
  // SIGKILL a worker right before a liveness probe touches it, with *no*
  // request anywhere: the probe — not a send — must raise ChannelDied, and
  // its recovery (respawn + kConfig replay) must leave the cluster ready to
  // serve the next request without a send-time surprise.
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 107);
  util::Rng rng(108);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.socket->enable_heartbeats(rpc::SocketTransport::HeartbeatPolicy{
      std::chrono::milliseconds(10), std::chrono::milliseconds(100), 3});
  cluster.faults->schedule(Fault{Op::kPing, "edge0", 1, Action::kKill, {}, ""});

  EXPECT_THROW(cluster.faults->ping("edge0"), rpc::ChannelDied);
  EXPECT_EQ(cluster.faults->stats().kills, 1u);
  EXPECT_EQ(cluster.socket->stats().pings, 1u);
  // A dead socket is terminal on the very first probe: no miss-threshold wait.
  EXPECT_EQ(cluster.socket->stats().heartbeat_deaths, 1u);
  EXPECT_EQ(cluster.socket->stats().reconnects, 1u);

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);
  const InferenceResult result = engine.infer(frame);
  expect_identical(result.output, reference);
  expect_same_transcript(result, OnlineEngine(c.net, weights, c.assignment).infer(frame));
  EXPECT_EQ(engine.stats().recoveries, 0u);  // the probe already paid for it
}

TEST(FaultInjection, BuddyDeathMakesReplicationBestEffort) {
  // The buddy dies right before the first kPutReplica: replication is
  // best-effort by contract, so the request in flight must complete bitwise
  // identical anyway — the only trace is a replica_failures tick (and the
  // recovery the cloud tier later needs, since the buddy is also cloud0).
  const ThreeTierCase c;
  const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 109);
  util::Rng rng(110);
  const dnn::Tensor frame = exec::random_tensor(c.net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(c.net, weights).run(frame);

  FaultCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    cluster.attach(node);
    cluster.enable_respawn(node);
  }
  cluster.configure(c.net, weights, c.plan, 0);
  cluster.socket->set_buddy("cloud0");
  cluster.faults->schedule(Fault{Op::kPutReplica, "cloud0", 1, Action::kKill, {}, ""});

  OnlineEngine::Options options;
  options.transport = cluster.faults;
  const OnlineEngine engine(c.net, weights, c.assignment, std::nullopt, options);

  const InferenceResult result = engine.infer(frame);
  expect_identical(result.output, reference);
  expect_same_transcript(result, OnlineEngine(c.net, weights, c.assignment).infer(frame));
  EXPECT_EQ(cluster.faults->stats().kills, 1u);
  EXPECT_GE(cluster.faults->op_count(Op::kPutReplica), 1u);
  EXPECT_EQ(cluster.socket->stats().replica_failures, 1u);
  EXPECT_EQ(cluster.socket->stats().replica_pushes, 0u);
  EXPECT_GE(cluster.socket->stats().reconnects, 1u);
}

}  // namespace
}  // namespace d3::runtime
