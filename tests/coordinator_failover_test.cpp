// Survivable-coordinator acceptance (ISSUE 7). The coordinator process is
// fork()ed, SIGKILLed mid-request at a scripted protocol point (fault
// injection), and a standby coordinator in the parent process restores the
// request from the write-ahead journal against the *same* surviving listen-mode
// workers — the resumed output must be bitwise-identical to exec::Executor and
// the transcript byte-identical to a no-failure run. Peer channels must make
// that failover strictly cheaper (recovery_bytes) than the star's re-seed
// path: no payload byte crosses the standby. Plus the proactive-detection
// legs: the serving reactor's idle heartbeats declare a silently SIGKILLed
// worker dead with no request in flight, the missed-beat threshold catches a
// SIGSTOPped (wedged, not dead) worker, and a flapping tile worker is
// readmitted without double-attachment.
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/fault_injection.h"
#include "rpc/socket_transport.h"
#include "runtime/address_book.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "runtime/request_journal.h"
#include "runtime/serving_reactor.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "coordinator_failover_test needs D3_NODE_BINARY (set by CMake)"
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

std::string temp_journal(const char* name) {
  const std::string path = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove(path);
  return path;
}

// conv1+relu1 on the device, pool1+conv2 on the edge, the tail in the cloud:
// two boundaries, two run_layer calls per remote tier.
core::Assignment three_tier_plan(const dnn::Network& net) {
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  return a;
}

// --- The acceptance scenario -------------------------------------------------

struct FailoverOutcome {
  InferenceResult result;
  std::uint64_t recovery_bytes = 0;
  rpc::SocketTransport::Stats standby;
};

// Forks a coordinator that SIGKILLs itself right before the second edge
// run_layer — the device->edge boundary has shipped, but the snapshot on disk
// is the end-of-device-tier one, so the standby re-runs the whole edge tier
// including the boundary delivery. The standby in the parent process then
// restores from the journal and finishes the request against the same worker
// incarnations. With `peers`, both coordinators link the workers' peer
// channels; without, both run a star.
void run_failover(bool peers, const char* journal_name, FailoverOutcome& out) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 111);
  util::Rng rng(112);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::string journal_path = temp_journal(journal_name);

  // Workers listen and outlive any one coordinator: per-request slots must
  // survive the SIGKILL below.
  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);

  const auto dial_all = [&](rpc::SocketTransport& transport) {
    transport.add_node("device0", device.dial());
    transport.add_node("edge0", edge.dial());
    transport.add_node("cloud0", cloud.dial());
    transport.configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
    if (peers) transport.connect_peers();
  };

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // The doomed primary. No gtest in here — every path ends in _exit, and a
    // nonzero code tells the parent the scripted SIGKILL never happened.
    try {
      auto socket = std::make_shared<rpc::SocketTransport>();
      dial_all(*socket);
      auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
      faults->set_kill_handler([](const std::string&) { ::raise(SIGKILL); });
      faults->schedule({rpc::FaultInjectionTransport::Op::kRunLayer, "edge0", 2,
                        rpc::FaultInjectionTransport::Action::kKill, {}, ""});
      OnlineEngine::Options options;
      options.transport = faults;
      options.journal = std::make_shared<RequestJournal>(journal_path);
      const OnlineEngine primary(net, weights, assignment, std::nullopt, options);
      primary.infer(frame);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "primary exited with code "
                                   << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The standby: fresh channels to the same workers, the byte-identical config
  // bundle (idempotent on the workers — request slots survive it),
  // and the dead primary's journal.
  auto standby = std::make_shared<rpc::SocketTransport>();
  dial_all(*standby);

  const std::vector<Snapshot> live = RequestJournal::load(journal_path);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].next_stage, 1);  // device tier durable, edge tier interrupted

  OnlineEngine::Options options;
  options.transport = standby;
  options.journal = std::make_shared<RequestJournal>(journal_path);
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);

  OnlineEngine::Continuation c = engine.restore(live[0]);
  while (!engine.step(c)) {
  }
  out.result = engine.take(std::move(c));
  out.recovery_bytes = engine.stats().recovery_bytes;
  out.standby = standby->stats();

  // The lossless contract holds across the failover: output bitwise-equal to
  // the single-process executor, transcript byte-identical to a run that never
  // saw a failure.
  expect_identical(out.result.output, reference);
  const InferenceResult no_failure = OnlineEngine(net, weights, assignment).infer(frame);
  expect_same_transcript(out.result, no_failure);

  // take() journalled the finish: nothing is left for a second standby.
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());
}

TEST(CoordinatorFailover, StandbyResumesSigkilledRequestBitwiseIdentically) {
  // On a star the standby re-materialises the unshipped boundary from the
  // device worker and re-ships it: the re-seed cost.
  FailoverOutcome reseed;
  run_failover(/*peers=*/false, "failover_reseed.d3j", reseed);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_GT(reseed.recovery_bytes, 0u);

  // With peer channels the producers still hold their slots and push each
  // boundary worker -> worker: no payload byte moves through the standby.
  FailoverOutcome peered;
  run_failover(/*peers=*/true, "failover_peers.d3j", peered);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(peered.recovery_bytes, 0u);
  EXPECT_EQ(peered.standby.payload_bytes_sent, 0u);
  EXPECT_EQ(peered.standby.relay_bytes, 0u);
  EXPECT_GE(peered.standby.peer_pushes, 1u);
  EXPECT_LT(peered.recovery_bytes, reseed.recovery_bytes);
}

// --- Proactive failure detection ---------------------------------------------

TEST(CoordinatorFailover, ReactorHeartbeatDetectsSilentWorkerDeathWhileIdle) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 121);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> procs;
  auto transport = std::make_shared<rpc::SocketTransport>();
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
    transport->add_node(node, procs[node]->take_socket());
  }
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  transport->enable_heartbeats(
      {std::chrono::milliseconds(20), std::chrono::milliseconds(20), 3});

  OnlineEngine::Options options;
  options.transport = transport;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  ServingReactor reactor(engine);

  // Not a single request is submitted: the only thing that can notice the
  // SIGKILL is the reactor's idle branch driving heartbeat_poll(). A dead
  // socket fails its very first probe (EOF), well inside the liveness window.
  ::kill(procs["edge0"]->pid(), SIGKILL);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline &&
         reactor.stats().heartbeat_deaths == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  EXPECT_GE(reactor.stats().heartbeat_deaths, 1u);
  EXPECT_GE(transport->stats().heartbeat_deaths, 1u);
  EXPECT_GT(transport->stats().pings, 0u);
  EXPECT_EQ(reactor.stats().completed, 0u);
}

TEST(CoordinatorFailover, MissedBeatThresholdDeclaresStalledWorkerDead) {
  // SIGSTOP, not SIGKILL: the worker is wedged but its socket never closes, so
  // there is no EOF to trip over — only the missed-beat threshold can declare
  // this channel dead.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 131);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  rpc::WorkerProcess worker(D3_NODE_BINARY);
  const pid_t pid = worker.pid();
  auto transport = std::make_shared<rpc::SocketTransport>();
  transport->add_node("device0", worker.take_socket());
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  transport->enable_heartbeats(
      {std::chrono::milliseconds(10), std::chrono::milliseconds(15), 3});

  ::kill(pid, SIGSTOP);
  bool detected = false;
  std::string message;
  for (int i = 0; i < 400 && !detected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
      transport->heartbeat_poll();
    } catch (const rpc::ChannelDied& e) {
      detected = true;
      EXPECT_EQ(e.node(), "device0");
      EXPECT_FALSE(e.channel_restored());  // no reconnect hook was registered
      message = e.what();
    }
  }
  ::kill(pid, SIGCONT);

  ASSERT_TRUE(detected);
  EXPECT_NE(message.find("device0"), std::string::npos) << message;
  EXPECT_NE(message.find("missed"), std::string::npos) << message;
  EXPECT_NE(message.find("heartbeat probe"), std::string::npos) << message;
  const rpc::SocketTransport::Stats stats = transport->stats();
  EXPECT_GE(stats.pings, 3u);  // one probe per miss until the threshold
  EXPECT_EQ(stats.heartbeat_deaths, 1u);
}

TEST(CoordinatorFailover, FlappingTileWorkerIsReadmittedWithoutDoubleAttachment) {
  // Heartbeat-flapping: a tile worker goes silent long enough to be declared
  // dead and pruned, then answers again. The late reconnect hook must readmit
  // the same incarnation exactly once — shard map back to the original layout,
  // transcript byte-identical, no ghost third attachment.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 141);
  util::Rng rng(142);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);

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

  rpc::WorkerProcess device(D3_NODE_BINARY);
  rpc::WorkerProcess cloud(D3_NODE_BINARY);
  // The flapping shard listens, so the readmission can dial the *same*
  // incarnation instead of respawning a fresh one.
  const rpc::ListenWorkerProcess shard1(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess shard2(D3_NODE_BINARY);

  auto transport = std::make_shared<rpc::SocketTransport>();
  transport->add_node("device0", device.take_socket());
  transport->add_node("cloud0", cloud.take_socket());
  transport->add_tile_worker(shard1.dial());  // "edge1"
  transport->add_tile_worker(shard2.dial());  // "edge2"
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);

  OnlineEngine::Options options;
  options.transport = transport;
  options.vsm_workers = 0;
  const OnlineEngine engine(net, weights, assignment, vsm, options);

  const InferenceResult before = engine.infer(frame);
  expect_identical(before.output, reference);

  // Phase 1: edge1 stops answering; the miss threshold declares it dead and
  // the prune reshards its tiles onto edge2.
  transport->enable_heartbeats(
      {std::chrono::milliseconds(10), std::chrono::milliseconds(15), 2});
  ::kill(shard1.pid(), SIGSTOP);
  bool detected = false;
  for (int i = 0; i < 400 && !detected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    try {
      transport->heartbeat_poll();
    } catch (const rpc::ChannelDied& e) {
      detected = true;
      EXPECT_EQ(e.node(), "edge1");
      EXPECT_FALSE(e.channel_restored());
    }
  }
  ASSERT_TRUE(detected);
  EXPECT_EQ(transport->prune_tile_workers(), 1u);
  EXPECT_EQ(transport->tile_worker_count(), 1u);
  EXPECT_EQ(transport->stats().detached_workers, 1u);

  // Phase 2: the worker answers again; the late hook readmits it exactly once.
  ::kill(shard1.pid(), SIGCONT);
  transport->set_reconnect("edge1", [&shard1] { return shard1.dial(); });
  EXPECT_EQ(transport->tile_worker_count(), 2u);
  EXPECT_EQ(transport->stats().readmitted_workers, 1u);

  const InferenceResult after = engine.infer(frame);
  expect_identical(after.output, reference);
  expect_same_transcript(after, before);
}

// --- Split-brain drill (ISSUE 9 satellite) -----------------------------------

TEST(CoordinatorFailover, SplitBrainDeposedCoordinatorIsFencedOutOfEveryVerb) {
  // The nightmare failover race: the "dead" coordinator was only slow, and
  // wakes up mid-request after a standby has already taken over. The fencing
  // epoch must turn every one of its verbs into rpc::Fenced — before any
  // worker state is touched — while the promoted coordinator's runs stay
  // bitwise- and transcript-identical.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 161);
  util::Rng rng(162);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::string journal_path = temp_journal("split_brain.d3j");

  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);

  // Coordinator A: epoch 1, one request run exactly one stage deep — the
  // device tier is durable in the journal, the edge tier is next.
  auto a = std::make_shared<rpc::SocketTransport>();
  a->set_epoch(1);
  a->add_node("device0", device.dial());
  a->add_node("edge0", edge.dial());
  a->add_node("cloud0", cloud.dial());
  a->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  OnlineEngine::Options a_options;
  a_options.transport = a;
  a_options.journal = std::make_shared<RequestJournal>(journal_path);
  const OnlineEngine stalled(net, weights, assignment, std::nullopt, a_options);
  OnlineEngine::Continuation c = stalled.start(frame);
  ASSERT_FALSE(stalled.step(c));
  ASSERT_EQ(RequestJournal::load(journal_path).size(), 1u);

  // Coordinator B: a standby force-promoted (the deterministic drill form of
  // the heartbeat path). Its epoch-2 kConfig fences A out of all three
  // workers and its promote() resumes A's request to completion.
  const auto entry = [](const char* name, std::uint16_t port) {
    return std::string(name) + " 127.0.0.1:" + std::to_string(port) + "\n";
  };
  StandbyCoordinator::Options options;
  options.book = AddressBook::parse("[coordinator]\n" + entry("beacon", 65001) + "[workers]\n" +
                                    entry("device0", device.port()) +
                                    entry("edge0", edge.port()) + entry("cloud0", cloud.port()) +
                                    "[standbys]\n" + entry("standby0", 65000));
  options.journal_path = journal_path;
  options.epoch_hint = 1;
  StandbyCoordinator standby(net, weights, assignment, std::nullopt, std::move(options));
  standby.promote();
  EXPECT_TRUE(standby.promoted());
  EXPECT_EQ(standby.epoch(), 2u);

  ASSERT_EQ(standby.resumed().size(), 1u);
  expect_identical(standby.resumed()[0].result.output, reference);
  const InferenceResult no_failure = OnlineEngine(net, weights, assignment).infer(frame);
  expect_same_transcript(standby.resumed()[0].result, no_failure);
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());

  // A wakes up and keeps driving: every verb — resuming its continuation
  // (kPut + kRunLayer against the edge), opening a new request (kBegin),
  // a whole fresh inference, even replaying its own kConfig — is rejected
  // with rpc::Fenced. The channels stay healthy; only the epoch is dead.
  EXPECT_THROW(stalled.step(c), rpc::Fenced);
  EXPECT_THROW(a->open_request(), rpc::Fenced);
  EXPECT_THROW(stalled.infer(frame), rpc::Fenced);
  EXPECT_THROW(a->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0),
               rpc::Fenced);
  stalled.abandon(std::move(c));  // disarm: no kEnd from the deposed side

  // None of those attempts touched worker state: B's fresh run over the same
  // workers is still bitwise- and transcript-identical.
  const InferenceResult fresh = standby.engine().infer(frame);
  expect_identical(fresh.output, reference);
  expect_same_transcript(fresh, no_failure);
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());
}

TEST(CoordinatorFailover, FencedConfigReplayIsNotRetried) {
  // edge0 dies and a successor configures its replacement at epoch 2 before
  // the deposed coordinator's reconnect hook dials it. The replayed kConfig
  // is answered kFenced, which no retry can cure: the run throws rpc::Fenced
  // after one dial instead of spending the whole backoff budget.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 181);
  util::Rng rng(182);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const core::Assignment assignment = three_tier_plan(net);
  const std::vector<std::uint8_t> plan_bytes =
      core::serialize_plan_binary(core::SerializablePlan{net.name(), assignment, std::nullopt});

  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);
  auto deposed = std::make_shared<rpc::SocketTransport>();
  deposed->set_epoch(1);
  deposed->add_node("device0", device.dial());
  deposed->add_node("edge0", edge.dial());
  deposed->add_node("cloud0", cloud.dial());
  deposed->configure(net.name(), net, weights, plan_bytes, 0);

  ::kill(edge.pid(), SIGKILL);
  const rpc::ListenWorkerProcess replacement(D3_NODE_BINARY);
  rpc::SocketTransport successor;
  successor.set_epoch(2);
  successor.add_node("edge0", replacement.dial());
  successor.configure(net.name(), net, weights, plan_bytes, 0);

  int dials = 0;
  deposed->set_reconnect(
      "edge0",
      [&] {
        ++dials;
        return replacement.dial();
      },
      rpc::SocketTransport::RetryPolicy{3, std::chrono::milliseconds(5), 2.0});
  OnlineEngine::Options options;
  options.transport = deposed;
  const OnlineEngine engine(net, weights, assignment, std::nullopt, options);
  EXPECT_THROW(engine.infer(frame), rpc::Fenced);
  EXPECT_EQ(dials, 1);
}

// --- Channel error context (ISSUE 7 satellite) -------------------------------

TEST(CoordinatorFailover, ChannelErrorsNameNodePeerAddressAndCause) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 151);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};

  rpc::WorkerProcess worker(D3_NODE_BINARY);
  const pid_t pid = worker.pid();
  auto transport = std::make_shared<rpc::SocketTransport>();
  transport->add_node("device0", worker.take_socket());
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);

  ::kill(pid, SIGKILL);
  try {
    transport->open_request();  // kBegin hits the corpse
    FAIL() << "open_request on a dead channel did not throw";
  } catch (const rpc::ChannelDied& e) {
    // Failover triage reads these messages: they must name the node, the peer
    // endpoint, and the underlying socket-level cause.
    EXPECT_EQ(e.node(), "device0");
    const std::string what = e.what();
    EXPECT_NE(what.find("device0"), std::string::npos) << what;
    EXPECT_NE(what.find("peer 127.0.0.1"), std::string::npos) << what;
    EXPECT_NE(what.find("died mid-request"), std::string::npos) << what;
  }
}

TEST(CoordinatorFailover, LostPromotionRaceFoldsEpochAndWinsTheNextTakeover) {
  // Two standbys race after a dead active: the slower one's promote() hits
  // rpc::Fenced on its very first redial (a rival already fenced the workers
  // at a higher epoch). That must NOT kill its monitor thread or surface as a
  // promotion error — the standby folds the observed epoch in, returns to
  // monitoring, and when the rival proves dead too (its beacon never answers)
  // the next takeover bids strictly above the rival's incarnation and wins.
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 171);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::string journal_path = temp_journal("lost_race.d3j");

  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);

  // The rival: already promoted at epoch 5, beaconless (it is "active" from
  // the workers' point of view but undetectable to the standby's probes).
  auto rival = std::make_shared<rpc::SocketTransport>();
  rival->set_epoch(5);
  rival->add_node("device0", device.dial());
  rival->add_node("edge0", edge.dial());
  rival->add_node("cloud0", cloud.dial());
  rival->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);

  const auto entry = [](const char* name, std::uint16_t port) {
    return std::string(name) + " 127.0.0.1:" + std::to_string(port) + "\n";
  };
  StandbyCoordinator::Options options;
  // The beacon entry points at a dead port: every probe misses, so the
  // monitor trips, promotes (losing to the rival), and trips again.
  options.book = AddressBook::parse("[coordinator]\n" + entry("beacon", 65001) + "[workers]\n" +
                                    entry("device0", device.port()) +
                                    entry("edge0", edge.port()) + entry("cloud0", cloud.port()) +
                                    "[standbys]\n" + entry("standby0", 65000));
  options.journal_path = journal_path;
  options.probe_interval = std::chrono::milliseconds(10);
  options.miss_threshold = 2;
  StandbyCoordinator standby(net, weights, assignment, std::nullopt, std::move(options));
  standby.start();

  // With the pre-fix behaviour this rethrows rpc::Fenced (the first promotion
  // attempt at epoch 1 stored it as a promotion error and the monitor died).
  // Fixed: the Fenced epoch is folded into the observation high-water mark
  // and the second attempt takes over at 6.
  ASSERT_TRUE(standby.wait_promoted(std::chrono::seconds(30)));
  EXPECT_GE(standby.observed_epoch(), 5u);
  EXPECT_EQ(standby.epoch(), 6u);

  // The successful takeover fenced the rival, as any promotion must.
  EXPECT_THROW(rival->open_request(), rpc::Fenced);
}

TEST(CoordinatorFailover, KilledMirrorRefreshNeverLeavesATornJournal) {
  // SIGKILL a child mid-refresh, at an arbitrary instant of the temp-write /
  // fsync / rename sequence, repeatedly: the journal path must always hold
  // one of the two complete payloads — a torn middle would feed promotion a
  // corrupt journal. (The loader tolerates torn tails only; the mirror's
  // atomic-replace contract is what keeps a *refresh* from tearing the file.)
  const std::string path = temp_journal("mirror_kill.d3j");
  const std::vector<std::uint8_t> a(512 * 1024, 0xAA);
  const std::vector<std::uint8_t> b(768 * 1024, 0xBB);
  mirror_file_atomically(path, a);

  for (int round = 0; round < 5; ++round) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // The doomed refresher: alternate payloads as fast as possible until
      // the parent's SIGKILL lands somewhere inside a refresh.
      for (;;) {
        mirror_file_atomically(path, a);
        mirror_file_atomically(path, b);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 7 * round));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);

    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open());
    const std::vector<std::uint8_t> seen((std::istreambuf_iterator<char>(file)),
                                         std::istreambuf_iterator<char>());
    EXPECT_TRUE(seen == a || seen == b)
        << "round " << round << ": journal is " << seen.size()
        << " bytes, neither complete payload";
  }
}

}  // namespace
}  // namespace d3::runtime
