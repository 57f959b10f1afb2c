// Promotion crash-point sweep — the ISSUE-9 acceptance drill. For every
// protocol point of a three-tier socket run (each message kind at each tier
// boundary), the *active* coordinator process is SIGKILLed exactly there, and
// a StandbyCoordinator watching its beacon must notice the silence and
// promote itself unattended: fence the dead incarnation out of the workers,
// load the write-ahead journal, resume whatever was mid-flight, and keep
// serving. After every takeover:
//
//   * outputs are bitwise-identical to the single-process exec::Executor,
//   * transcripts are byte-identical to an in-process engine that never saw
//     a failure,
//   * exactly one coordinator holds the workers — a transport still carrying
//     the dead incarnation's epoch gets rpc::Fenced on every attempt while
//     the promoted one keeps inferring,
//   * the takeover moves no payload byte through the standby: it links peer
//     channels, and the workers still hold every boundary it needs.
//
// Plus the kJournalSync leg: a standby on a *different* filesystem path
// mirrors the journal over the beacon wire and promotes from its local copy.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/fault_injection.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "runtime/address_book.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "runtime/request_journal.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "promotion_sweep_test needs D3_NODE_BINARY (set by CMake)"
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
  EXPECT_EQ(a.layers_executed, b.layers_executed);
}

std::string temp_path(const std::string& name) {
  const std::string path = (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove(path);
  return path;
}

// conv1+relu1 on the device, pool1+conv2 on the edge, the tail in the cloud.
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

using Fault = rpc::FaultInjectionTransport::Fault;
using Op = rpc::FaultInjectionTransport::Op;
using Action = rpc::FaultInjectionTransport::Action;

struct KillPoint {
  const char* label;
  Op op;
  const char* node;
  std::uint64_t nth;
};

// Every message kind of the three-tier run, at every tier boundary it
// crosses: request open, input seed, both device layers, the device->edge
// ship, both edge layers, the edge->cloud ship, the cloud tail, the output
// fetch, and the teardown.
constexpr KillPoint kKillPoints[] = {
    {"begin", Op::kBegin, "", 1},
    {"seed-device", Op::kPut, "device0", 1},
    {"device-layer-1", Op::kRunLayer, "device0", 1},
    {"device-layer-2", Op::kRunLayer, "device0", 2},
    {"ship-device-edge", Op::kPut, "edge0", 1},
    {"edge-layer-1", Op::kRunLayer, "edge0", 1},
    {"edge-layer-2", Op::kRunLayer, "edge0", 2},
    {"ship-edge-cloud", Op::kPut, "cloud0", 1},
    {"cloud-layer-1", Op::kRunLayer, "cloud0", 1},
    {"fetch-output", Op::kGet, "cloud0", 1},
    {"end", Op::kEnd, "", 1},
};

class PromotionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PromotionSweep, StandbyPromotesUnattendedAtEveryCrashPoint) {
  const KillPoint& kill = kKillPoints[GetParam()];

  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 211);
  util::Rng rng(212);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::string journal_path =
      temp_path(std::string("promotion_") + kill.label + ".d3j");

  // The workers outlive any one coordinator; their listen ports and the
  // beacon's go into the address book the standby promotes from.
  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // The doomed active coordinator. No gtest in here — every path ends in
    // _exit, and a nonzero code tells the parent the SIGKILL never happened.
    ::close(pipe_fds[0]);
    try {
      const CoordinatorBeacon beacon(/*epoch=*/1, journal_path);
      const std::uint16_t beacon_port = beacon.port();
      if (::write(pipe_fds[1], &beacon_port, sizeof(beacon_port)) !=
          static_cast<ssize_t>(sizeof(beacon_port)))
        ::_exit(3);
      ::close(pipe_fds[1]);

      auto socket = std::make_shared<rpc::SocketTransport>();
      socket->set_epoch(1);
      socket->add_node("device0", device.dial());
      socket->add_node("edge0", edge.dial());
      socket->add_node("cloud0", cloud.dial());
      socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);

      auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
      faults->set_kill_handler([](const std::string&) { ::raise(SIGKILL); });
      faults->schedule(Fault{kill.op, kill.node, kill.nth, Action::kKill, {}, ""});

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

  ::close(pipe_fds[1]);
  std::uint16_t beacon_port = 0;
  ASSERT_EQ(::read(pipe_fds[0], &beacon_port, sizeof(beacon_port)),
            static_cast<ssize_t>(sizeof(beacon_port)));
  ::close(pipe_fds[0]);

  const auto entry = [](const char* name, std::uint16_t port) {
    return std::string(name) + " 127.0.0.1:" + std::to_string(port) + "\n";
  };
  StandbyCoordinator::Options options;
  options.book = AddressBook::parse("[coordinator]\n" + entry("beacon", beacon_port) +
                                    "[workers]\n" + entry("device0", device.port()) +
                                    entry("edge0", edge.port()) + entry("cloud0", cloud.port()) +
                                    "[standbys]\n" + entry("standby0", 65000));
  options.journal_path = journal_path;
  options.probe_interval = std::chrono::milliseconds(20);
  options.probe_timeout = std::chrono::milliseconds(500);
  options.miss_threshold = 2;
  options.epoch_hint = 1;
  StandbyCoordinator standby(net, weights, assignment, std::nullopt, std::move(options));
  standby.start();

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "active exited with code "
                                   << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
                                   << " — the scripted SIGKILL at '" << kill.label
                                   << "' never fired";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The unattended path: missed beats trip the threshold, the standby fences
  // and resumes with nobody pressing any buttons.
  ASSERT_TRUE(standby.wait_promoted(std::chrono::seconds(30)));
  EXPECT_EQ(standby.epoch(), 2u);

  const InferenceResult no_failure = OnlineEngine(net, weights, assignment).infer(frame);

  // Crash points before the first durable snapshot leave nothing to resume;
  // every later one leaves exactly the interrupted request.
  ASSERT_LE(standby.resumed().size(), 1u);
  if (standby.resumed().size() == 1) {
    expect_identical(standby.resumed()[0].result.output, reference);
    expect_same_transcript(standby.resumed()[0].result, no_failure);
  }
  // Resumption (or the no-op) journalled its finish: nothing is left live.
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());

  // The doomed primary ran a star; the promoted standby linked peer channels,
  // so whatever the resumed request still needed moved worker -> worker: the
  // standby sent and relayed no payload byte, re-moved nothing, and fetched
  // only each resumed output.
  const rpc::SocketTransport::Stats takeover = standby.transport().stats();
  EXPECT_EQ(takeover.payload_bytes_sent, 0u);
  EXPECT_EQ(takeover.relay_bytes, 0u);
  EXPECT_EQ(standby.engine().stats().recovery_bytes, 0u);
  EXPECT_EQ(takeover.payload_bytes_fetched,
            rpc::encode_tensor(reference).size() * standby.resumed().size());

  // Fencing: the dead incarnation's epoch no longer opens any door. A fresh
  // transport claiming epoch 1 is turned away at kConfig...
  auto deposed = std::make_shared<rpc::SocketTransport>();
  deposed->set_epoch(1);
  deposed->add_node("device0", device.dial());
  deposed->add_node("edge0", edge.dial());
  deposed->add_node("cloud0", cloud.dial());
  EXPECT_THROW(
      deposed->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0),
      rpc::Fenced);

  // ...while the promoted coordinator keeps driving the same workers: a fresh
  // request through its engine stays bitwise- and transcript-identical.
  const InferenceResult fresh = standby.engine().infer(frame);
  expect_identical(fresh.output, reference);
  expect_same_transcript(fresh, no_failure);
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, PromotionSweep,
                         ::testing::Range<std::size_t>(0, std::size(kKillPoints)),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name = kKillPoints[info.param].label;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// --- kJournalSync mirror leg -------------------------------------------------

TEST(JournalMirror, StandbyPromotesFromItsKJournalSyncCopy) {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 311);
  util::Rng rng(312);
  const dnn::Tensor frame = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(frame);
  const core::Assignment assignment = three_tier_plan(net);
  const core::SerializablePlan plan{net.name(), assignment, std::nullopt};
  const std::string active_journal = temp_path("mirror_active.d3j");
  const std::string standby_journal = temp_path("mirror_standby.d3j");

  const rpc::ListenWorkerProcess device(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess edge(D3_NODE_BINARY);
  const rpc::ListenWorkerProcess cloud(D3_NODE_BINARY);

  // The active coordinator dies mid-request (scripted SIGKILL before the
  // second edge layer), leaving a one-snapshot journal on *its* filesystem.
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    try {
      auto socket = std::make_shared<rpc::SocketTransport>();
      socket->set_epoch(1);
      socket->add_node("device0", device.dial());
      socket->add_node("edge0", edge.dial());
      socket->add_node("cloud0", cloud.dial());
      socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
      auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
      faults->set_kill_handler([](const std::string&) { ::raise(SIGKILL); });
      faults->schedule(Fault{Op::kRunLayer, "edge0", 2, Action::kKill, {}, ""});
      OnlineEngine::Options options;
      options.transport = faults;
      options.journal = std::make_shared<RequestJournal>(active_journal);
      const OnlineEngine primary(net, weights, assignment, std::nullopt, options);
      primary.infer(frame);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // A beacon still serving the dead coordinator's journal file (in a real
  // deployment the beacon dies with the coordinator and the standby promotes
  // from whatever its *last* pull captured; serving the post-mortem file here
  // makes the pulled bytes deterministic for the fidelity check below).
  auto beacon = std::make_unique<CoordinatorBeacon>(/*epoch=*/1, active_journal);

  const auto entry = [](const char* name, std::uint16_t port) {
    return std::string(name) + " 127.0.0.1:" + std::to_string(port) + "\n";
  };
  StandbyCoordinator::Options options;
  options.book = AddressBook::parse("[coordinator]\n" + entry("beacon", beacon->port()) +
                                    "[workers]\n" + entry("device0", device.port()) +
                                    entry("edge0", edge.port()) + entry("cloud0", cloud.port()) +
                                    "[standbys]\n" + entry("standby0", 65000));
  options.journal_path = standby_journal;  // NOT the active's path: wire-fed copy
  options.mirror_journal = true;
  options.probe_interval = std::chrono::milliseconds(10);
  options.probe_timeout = std::chrono::milliseconds(500);
  options.miss_threshold = 2;
  options.epoch_hint = 1;
  StandbyCoordinator standby(net, weights, assignment, std::nullopt, std::move(options));
  standby.start();

  // Wait until at least one successful probe round has mirrored the journal.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    if (std::filesystem::file_size(standby_journal, ec) ==
            std::filesystem::file_size(active_journal) &&
        !ec)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(std::filesystem::file_size(standby_journal),
            std::filesystem::file_size(active_journal));

  // Kill the beacon: the standby must promote from its local mirror alone.
  beacon.reset();
  ASSERT_TRUE(standby.wait_promoted(std::chrono::seconds(30)));
  EXPECT_EQ(standby.epoch(), 2u);

  ASSERT_EQ(standby.resumed().size(), 1u);
  expect_identical(standby.resumed()[0].result.output, reference);
  const InferenceResult no_failure = OnlineEngine(net, weights, assignment).infer(frame);
  expect_same_transcript(standby.resumed()[0].result, no_failure);
  EXPECT_TRUE(RequestJournal::load(standby_journal).empty());
}

}  // namespace
}  // namespace d3::runtime
