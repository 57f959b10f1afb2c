// AOT bundle-boot acceptance. Three worker processes boot from d3c deployment
// bundles (`d3_node --listen 0 --bundle <file> <name>`) and a coordinator in
// weights-elided mode drives them with an O(1) kConfig — each node's bundle
// without its shard. The lossless contract must carry across the boot path:
// outputs bitwise-identical to exec::Executor and the transcript
// byte-identical to a run whose kConfig ships each node its shard. Version
// skew (bundle compiled from different weights, or no bundle at all) must be
// answered kBundleMismatch and surfaced as rpc::BundleMismatch BEFORE any
// worker state mutates; a bundle whose shard elides a plan-assigned layer
// must refuse to boot at all, and is refused as a kConfig too.
#include <csignal>
#include <sys/socket.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.h"
#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/node_service.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "runtime/engine.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "bundle_boot_test needs D3_NODE_BINARY (set by CMake)"
#endif

namespace d3::runtime {
namespace {

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

// conv1+relu1 on the device, pool1+conv2 on the edge, the tail in the cloud.
core::SerializablePlan three_tier_plan(const dnn::Network& net) {
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  return core::SerializablePlan{net.name(), a, std::nullopt};
}

// What d3c emits: one bundle per tier node, same weights hash in each,
// per-node weight shard, shared plan and book.
std::string compile_bundles(const dnn::Network& net, const exec::WeightStore& weights,
                            const core::SerializablePlan& plan, std::uint32_t vsm_workers,
                            const char* dir_name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / dir_name;
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> plan_bytes = core::serialize_plan_binary(plan);
  const std::uint64_t weights_hash = rpc::weights_hash(weights, net);
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    core::DeploymentBundle bundle =
        core::compile_bundle(net, weights, plan_bytes, node, vsm_workers, weights_hash);
    bundle.book_text =
        "[coordinator]\nactive 127.0.0.1:9000\n[workers]\n"
        "device0 127.0.0.1:9001\nedge0 127.0.0.1:9002\ncloud0 127.0.0.1:9003\n";
    core::write_bundle_file((dir / (std::string(node) + ".d3b")).string(), bundle);
  }
  return dir.string();
}

// What configure() sends the three tier nodes: per node, the u64 fencing
// epoch and that node's compiled bundle — nothing else.
std::uint64_t expected_config_bytes(const dnn::Network& net, const exec::WeightStore& weights,
                                    const std::vector<std::uint8_t>& plan_bytes, bool elided) {
  std::uint64_t total = 0;
  for (const char* node : {"device0", "edge0", "cloud0"})
    total += 8 + core::encode_bundle(core::compile_bundle(net, weights, plan_bytes, node, 0,
                                                          rpc::weights_hash(weights, net),
                                                          elided))
                     .size();
  return total;
}

// A kConfig body: the u64 fencing epoch (0) and one encoded bundle.
std::vector<std::uint8_t> config_body(const core::DeploymentBundle& bundle) {
  std::vector<std::uint8_t> body(8, 0);
  const std::vector<std::uint8_t> bytes = core::encode_bundle(bundle);
  body.insert(body.end(), bytes.begin(), bytes.end());
  return body;
}

std::vector<std::uint8_t> request_body(std::uint64_t request) {
  rpc::WireWriter w;
  w.u64(request);
  return w.take();
}

// serve_node on a thread at one end of a socketpair (booted from `bundle`
// unless null); reply() sends one coordinator frame and reads the answer.
struct PairedWorker {
  int fds[2] = {-1, -1};
  std::thread thread;

  explicit PairedWorker(const core::DeploymentBundle* bundle) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) throw std::runtime_error("socketpair");
    rpc::ServeOptions options;
    options.bundle = bundle;
    thread = std::thread([fd = fds[0], options] { rpc::serve_node(fd, options); });
  }
  ~PairedWorker() {
    ::close(fds[1]);  // EOF ends the serve loop
    thread.join();
    ::close(fds[0]);
  }

  rpc::Frame reply(rpc::MsgKind kind, const std::vector<std::uint8_t>& body) const {
    rpc::write_frame(fds[1], kind, body);
    return rpc::read_frame(fds[1]);
  }
};

// A three-process cluster whose workers boot from bundles (or wait for a
// kConfig when `bundle_dir` is empty), plus a coordinator transport dialing
// them.
struct Cluster {
  std::map<std::string, std::unique_ptr<rpc::ListenWorkerProcess>> procs;
  std::shared_ptr<rpc::SocketTransport> transport =
      std::make_shared<rpc::SocketTransport>();

  explicit Cluster(const std::string& bundle_dir) {
    for (const char* node : {"device0", "edge0", "cloud0"}) {
      std::vector<std::string> extra;
      if (!bundle_dir.empty())
        extra = {"--bundle", bundle_dir + "/" + node + ".d3b", node};
      procs[node] = std::make_unique<rpc::ListenWorkerProcess>(D3_NODE_BINARY, extra);
      transport->add_node(node, procs[node]->dial());
    }
  }
};

TEST(BundleBoot, ElidedConfigRunsByteIdenticalToFullConfig) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const core::SerializablePlan plan = three_tier_plan(net);
  util::Rng rng(112);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

  // Empty workers: kConfig ships each node its bundle, shard included.
  const std::vector<std::uint8_t> plan_bytes = core::serialize_plan_binary(plan);
  Cluster full("");
  full.transport->configure(net.name(), net, weights, plan_bytes, 0);
  EXPECT_EQ(full.transport->stats().config_bytes_sent,
            expected_config_bytes(net, weights, plan_bytes, /*elided=*/false));
  OnlineEngine::Options full_options;
  full_options.transport = full.transport;
  const OnlineEngine full_engine(net, weights, plan.assignment, plan.vsm, full_options);
  const InferenceResult via_full = full_engine.infer(frame);
  expect_identical(via_full.output, reference);

  // AOT boot: workers come up configured from their bundles, the coordinator
  // sends each bundle without its shard.
  const std::string dir = compile_bundles(net, weights, plan, 0, "bundles-ok");
  Cluster aot(dir);
  aot.transport->set_elide_weights(true);
  aot.transport->configure(net.name(), net, weights, plan_bytes, 0);
  EXPECT_EQ(aot.transport->stats().config_bytes_sent,
            expected_config_bytes(net, weights, plan_bytes, /*elided=*/true));
  OnlineEngine::Options aot_options;
  aot_options.transport = aot.transport;
  const OnlineEngine aot_engine(net, weights, plan.assignment, plan.vsm, aot_options);
  const InferenceResult via_bundle = aot_engine.infer(frame);

  // The lossless contract crosses the boot path: bitwise output, byte-for-byte
  // transcript.
  expect_identical(via_bundle.output, reference);
  expect_same_transcript(via_full, via_bundle);
}

TEST(BundleBoot, FullConfigOnBundleBootedWorkerIsIdempotent) {
  // A coordinator that does NOT elide (say, an old standby) configures a
  // bundle-booted worker with its shard. The content identity (plan hash,
  // weights hash) matches the bundle it booted from, so the worker keeps its
  // state — and still runs correctly.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const core::SerializablePlan plan = three_tier_plan(net);
  util::Rng rng(112);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);

  const std::string dir = compile_bundles(net, weights, plan, 0, "bundles-idem");
  Cluster cluster(dir);
  cluster.transport->configure(net.name(), net, weights,
                               core::serialize_plan_binary(plan), 0);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, plan.assignment, plan.vsm, options);
  expect_identical(engine.infer(frame).output, exec::Executor(net, weights).run(frame));
}

TEST(BundleBoot, StaleBundleAnswersBundleMismatchBeforeAnyStateMutation) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore current = exec::WeightStore::random_for(net, 111);
  const exec::WeightStore stale = exec::WeightStore::random_for(net, 222);
  const core::SerializablePlan plan = three_tier_plan(net);

  // Workers hold bundles compiled from yesterday's weights.
  const std::string dir = compile_bundles(net, stale, plan, 0, "bundles-stale");
  Cluster cluster(dir);
  cluster.transport->set_elide_weights(true);
  try {
    cluster.transport->configure(net.name(), net, current,
                                 core::serialize_plan_binary(plan), 0);
    FAIL() << "configure() must surface the version skew";
  } catch (const rpc::BundleMismatch& e) {
    EXPECT_EQ(e.worker_hash(), rpc::weights_hash(stale, net));
    EXPECT_EQ(e.wanted_hash(), rpc::weights_hash(current, net));
  }
  // The skew is diagnosed before any state mutation: recompiling (here,
  // re-configuring with the weights the bundles actually hold) brings the
  // same worker incarnations up without a respawn.
  cluster.transport->configure(net.name(), net, stale,
                               core::serialize_plan_binary(plan), 0);
  util::Rng rng(112);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, stale, plan.assignment, plan.vsm, options);
  expect_identical(engine.infer(frame).output, exec::Executor(net, stale).run(frame));
}

TEST(BundleBoot, ElidingAgainstAnUnbootstrappedWorkerIsRefused) {
  // No bundle at all: the worker has nothing to check the hash against and
  // must refuse (worker_hash 0 = never configured) rather than come up with
  // missing weights.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const core::SerializablePlan plan = three_tier_plan(net);
  Cluster cluster("");
  cluster.transport->set_elide_weights(true);
  try {
    cluster.transport->configure(net.name(), net, weights,
                                 core::serialize_plan_binary(plan), 0);
    FAIL() << "an unconfigured worker cannot accept an elided kConfig";
  } catch (const rpc::BundleMismatch& e) {
    EXPECT_EQ(e.worker_hash(), 0u);
  }
}

TEST(BundleBoot, ElidedConfigReplayToAnUnbootedIncarnationIsNotRetried) {
  // edge0 dies and the reconnect hook reaches a worker that booted no bundle.
  // The elided kConfig replay is answered kBundleMismatch (worker hash 0):
  // version skew, which no retry can cure, so the run throws after one dial.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const core::SerializablePlan plan = three_tier_plan(net);
  util::Rng rng(112);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);

  Cluster cluster(compile_bundles(net, weights, plan, 0, "bundles-replay"));
  cluster.transport->set_elide_weights(true);
  cluster.transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  ::kill(cluster.procs["edge0"]->pid(), SIGKILL);
  const rpc::ListenWorkerProcess unbooted(D3_NODE_BINARY);
  int dials = 0;
  cluster.transport->set_reconnect(
      "edge0",
      [&] {
        ++dials;
        return unbooted.dial();
      },
      rpc::SocketTransport::RetryPolicy{3, std::chrono::milliseconds(5), 2.0});
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, plan.assignment, plan.vsm, options);
  try {
    engine.infer(frame);
    FAIL() << "a replay to an unbooted incarnation must surface the skew";
  } catch (const rpc::BundleMismatch& e) {
    EXPECT_EQ(e.worker_hash(), 0u);
  }
  EXPECT_EQ(dials, 1);
}

TEST(BundleBoot, ShardPlanDisagreementRefusesToBoot) {
  // A bundle whose shard elides a layer its own plan assigns to the node is
  // corrupt by construction (d3c can never emit it): the boot must throw
  // before the node starts serving.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const std::vector<std::uint8_t> plan_bytes =
      core::serialize_plan_binary(three_tier_plan(net));
  const std::uint64_t hash = rpc::weights_hash(weights, net);
  // edge0's shard in device0's bundle: the device layers carry no parameters.
  core::DeploymentBundle bundle = core::compile_bundle(net, weights, plan_bytes, "edge0", 0, hash);
  bundle.node_name = "device0";
  bundle.book_text = "[workers]\ndevice0 127.0.0.1:9001\n";

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  rpc::ServeOptions options;
  options.bundle = &bundle;
  EXPECT_THROW(rpc::serve_node(fds[0], options), rpc::WireError);
  ::close(fds[0]);
  ::close(fds[1]);

  // The same bundle as a kConfig body goes through the same install and is
  // answered kError, leaving the node unconfigured (a kBegin is refused too);
  // a good bundle then installs and the node serves.
  PairedWorker worker(nullptr);
  EXPECT_EQ(worker.reply(rpc::MsgKind::kConfig, config_body(bundle)).kind,
            rpc::MsgKind::kError);
  EXPECT_EQ(worker.reply(rpc::MsgKind::kBegin, request_body(1)).kind, rpc::MsgKind::kError);
  EXPECT_EQ(worker.reply(rpc::MsgKind::kConfig,
                         config_body(core::compile_bundle(net, weights, plan_bytes, "device0",
                                                          0, hash)))
                .kind,
            rpc::MsgKind::kOk);
  EXPECT_EQ(worker.reply(rpc::MsgKind::kBegin, request_body(1)).kind, rpc::MsgKind::kOk);
}

TEST(BundleBoot, SameDeploymentKConfigKeepsRequestState) {
  // A kConfig naming the deployment the worker already holds — shard-carrying
  // or elided — is answered kOk without touching state, so a request opened
  // before it keeps its slots. A different identity (here only the pool
  // width) reinstalls and resets them.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  const std::vector<std::uint8_t> plan_bytes =
      core::serialize_plan_binary(three_tier_plan(net));
  const std::uint64_t hash = rpc::weights_hash(weights, net);
  const core::DeploymentBundle booted =
      core::compile_bundle(net, weights, plan_bytes, "device0", 0, hash);
  PairedWorker worker(&booted);

  util::Rng rng(113);
  rpc::Envelope input;
  input.payload = rpc::encode_tensor(exec::random_tensor(net.input_shape(), rng));
  rpc::WireWriter put;
  put.u64(1);
  put.u64(0);
  rpc::encode_envelope(put, input);
  rpc::WireWriter get;
  get.u64(1);
  get.u64(0);
  ASSERT_EQ(worker.reply(rpc::MsgKind::kBegin, request_body(1)).kind, rpc::MsgKind::kOk);
  ASSERT_EQ(worker.reply(rpc::MsgKind::kPut, put.buffer()).kind, rpc::MsgKind::kOk);

  for (const bool elided : {false, true}) {
    EXPECT_EQ(worker.reply(rpc::MsgKind::kConfig,
                           config_body(core::compile_bundle(net, weights, plan_bytes, "device0",
                                                            0, hash, elided)))
                  .kind,
              rpc::MsgKind::kOk);
    const rpc::Frame kept = worker.reply(rpc::MsgKind::kGet, get.buffer());
    ASSERT_EQ(kept.kind, rpc::MsgKind::kTensor) << "elided=" << elided;
    EXPECT_EQ(kept.body, input.payload);
  }
  EXPECT_EQ(worker.reply(rpc::MsgKind::kConfig,
                         config_body(core::compile_bundle(net, weights, plan_bytes, "device0",
                                                          1, hash)))
                .kind,
            rpc::MsgKind::kOk);
  EXPECT_EQ(worker.reply(rpc::MsgKind::kGet, get.buffer()).kind, rpc::MsgKind::kErrorState);
}

TEST(BundleBoot, VsmPoolWidthRidesTheBundle) {
  // The bundle's vsm_workers field sizes the worker's tile pool exactly like
  // the kConfig field does: a VSM plan runs losslessly on bundle-booted
  // workers with the pool width baked in at compile time.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 5);
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
  util::Rng rng(6);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);

  const std::string dir = compile_bundles(net, weights, plan, 2, "bundles-vsm");
  Cluster cluster(dir);
  cluster.transport->set_elide_weights(true);
  cluster.transport->configure(net.name(), net, weights,
                               core::serialize_plan_binary(plan), 2);
  OnlineEngine::Options options;
  options.transport = cluster.transport;
  const OnlineEngine engine(net, weights, assignment, vsm, options);
  const InferenceResult distributed = engine.infer(frame);
  expect_identical(distributed.output, exec::Executor(net, weights).run(frame));
  // Transcript parity with the in-process engine (transport-independence).
  const InferenceResult local = OnlineEngine(net, weights, assignment, vsm).infer(frame);
  expect_same_transcript(distributed, local);
}

// One "<key>:   <n> kB" line of /proc/<pid>/status, in bytes.
std::uint64_t proc_status_bytes(pid_t pid, const std::string& key) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key + ":", 0) == 0) return std::stoull(line.substr(key.size() + 1)) * 1024;
  throw std::runtime_error("no " + key + " in /proc/" + std::to_string(pid) + "/status");
}

TEST(BundleBoot, ShardKConfigPeaksBelowThreeCopiesOfTheShard) {
  // Installing a shard-carrying kConfig may hold at most two copies of the
  // shard at once (the decoded bundle's bytes and the WeightStore built from
  // them): the frame body is freed as soon as the bundle is decoded. Three
  // copies — body, bundle and WeightStore — would lift the worker's peak RSS
  // by ~3 S; two keep it under 2.5 S.
  const dnn::Network net = dnn::zoo::resnet18();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 11);
  core::Assignment assignment;
  assignment.tier.assign(net.num_layers() + 1, core::Tier::kDevice);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::uint64_t shard =
      rpc::encode_weight_shard(weights, net, std::vector<bool>(net.num_layers(), true)).size();
  ASSERT_GE(shard, std::uint64_t{40} << 20);

#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer quarantines freed blocks instead of unmapping them, so
  // the worker's peak would count the freed body as live: release at once.
  const char* inherited = std::getenv("ASAN_OPTIONS");
  const std::string asan_options = inherited ? inherited : "";
  ::setenv("ASAN_OPTIONS", (asan_options + ":quarantine_size_mb=0").c_str(), 1);
#endif
  rpc::WorkerProcess worker(D3_NODE_BINARY);
#if defined(__SANITIZE_ADDRESS__)
  ::setenv("ASAN_OPTIONS", asan_options.c_str(), 1);
#endif
  rpc::SocketTransport transport;
  transport.add_node("device0", worker.take_socket());
  const std::uint64_t peak_before = proc_status_bytes(worker.pid(), "VmHWM");
  transport.configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  const std::uint64_t peak_growth = proc_status_bytes(worker.pid(), "VmHWM") - peak_before;
  RecordProperty("shard_bytes", std::to_string(shard));
  RecordProperty("peak_growth_bytes", std::to_string(peak_growth));
  // The worker really holds the shard, so the measurement saw the install.
  EXPECT_GE(proc_status_bytes(worker.pid(), "VmRSS"), shard);
  EXPECT_GE(peak_growth, shard);
  EXPECT_LT(static_cast<double>(peak_growth), 2.5 * static_cast<double>(shard))
      << "peak grew " << peak_growth << " B for a " << shard << " B shard";
}

}  // namespace
}  // namespace d3::runtime
