// Asynchronous transport end-to-end (ISSUE 8): the readiness-dispatch serving
// path — issue/complete transport verbs, step_async's phase machine, and the
// reactor's parked-stage epoll plumbing — against real worker processes over
// localhost TCP. The invariants are the repo's bedrock ones: outputs bitwise
// and transcripts byte-identical to blocking dispatch and to the wired
// engine's own infer(), regardless of how parked stages of different requests
// interleave. On top of the equivalence matrix: a concurrent-submitter stress
// (TSan hunts the reactor's park/unpark bookkeeping), a worker-kill sweep
// through the async path (bounded-backoff respawn, every request correct),
// and the heartbeat-starvation regression — a reactor saturated with parked
// and runnable stages must still fire due liveness probes, so a SIGSTOPped
// worker is declared dead by the probe, not by a stalled request.
#include <atomic>
#include <chrono>
#include <csignal>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "util/rng.h"

#ifndef D3_NODE_BINARY
#error "async_transport_test needs D3_NODE_BINARY (set by CMake)"
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

// One worker process per tier, wired into a configured SocketTransport
// (same shape as socket_transport_test's cluster, minus the tile pool).
struct Cluster {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> procs;
  std::shared_ptr<rpc::SocketTransport> transport =
      std::make_shared<rpc::SocketTransport>();

  Cluster(const dnn::Network& net, const exec::WeightStore& weights,
          const core::SerializablePlan& plan,
          const std::vector<std::string>& worker_args = {}) {
    for (const char* node : {"device0", "edge0", "cloud0"}) {
      auto proc = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY, worker_args);
      rpc::Socket socket = proc->take_socket();
      {
        std::lock_guard<std::mutex> lock(mutex);
        procs[node] = std::move(proc);
      }
      transport->add_node(node, std::move(socket));
    }
    transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  }

  void enable_respawn(const std::string& node) {
    transport->set_reconnect(
        node,
        [this, node] {
          std::lock_guard<std::mutex> lock(mutex);
          // The transport only asks for a replacement after declaring this
          // incarnation dead. Kill it outright: ~WorkerProcess otherwise waits
          // out its EOF grace period, which a SIGSTOPped worker never answers.
          if (procs.count(node)) ::kill(procs[node]->pid(), SIGKILL);
          procs[node] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
          return procs[node]->take_socket();
        },
        rpc::SocketTransport::RetryPolicy{4, std::chrono::milliseconds(10), 2.0});
  }

  void signal_worker(const std::string& node, int sig) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_TRUE(procs.count(node));
    ::kill(procs[node]->pid(), sig);
  }
};

struct Fixture {
  dnn::Network net;
  exec::WeightStore weights;
  dnn::Tensor input;
  dnn::Tensor reference;

  explicit Fixture(dnn::Network n, std::uint64_t seed = 8)
      : net(std::move(n)), weights(exec::WeightStore::random_for(net, seed)) {
    util::Rng rng(seed + 1);
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

OnlineEngine make_wired(const Fixture& f, const core::Assignment& plan,
                        const std::shared_ptr<rpc::Transport>& transport,
                        const std::optional<core::FusedTilePlan>& vsm = std::nullopt) {
  OnlineEngine::Options options;
  options.transport = transport;
  return OnlineEngine(f.net, f.weights, plan, vsm, options);
}

// --- Equivalence matrix -----------------------------------------------------

// The coordinator's wire traffic over a run of requests. Every frame is a
// pure function of the plan (heartbeats are off), so equal request counts
// must move exactly equal traffic, whichever dispatch mode drives them.
struct Traffic {
  std::uint64_t frames = 0;
  std::uint64_t sent = 0;
  std::uint64_t fetched = 0;
  std::uint64_t relay = 0;
  bool operator==(const Traffic&) const = default;
};

Traffic traffic_since(const rpc::SocketTransport::Stats& before,
                      const rpc::SocketTransport::Stats& after) {
  return {after.frames_sent - before.frames_sent,
          after.payload_bytes_sent - before.payload_bytes_sent,
          after.payload_bytes_fetched - before.payload_bytes_fetched,
          after.relay_bytes - before.relay_bytes};
}

void PrintTo(const Traffic& t, std::ostream* os) {
  *os << "{frames " << t.frames << ", sent " << t.sent << " B, fetched " << t.fetched
      << " B, relay " << t.relay << " B}";
}

TEST(AsyncTransport, ReadinessDispatchMatchesBlockingAcrossProcesses) {
  constexpr std::uint64_t kRequests = 6;
  for (const bool peers : {false, true}) {
    for (const char* which : {"chain", "branch"}) {
      SCOPED_TRACE(std::string(which) + (peers ? " with peers" : " on a star"));
      Fixture f(std::string(which) == "chain" ? dnn::zoo::tiny_chain()
                                              : dnn::zoo::tiny_branch());
      const core::Assignment plan = three_tier_plan(f.net);
      Cluster cluster(f.net, f.weights,
                      core::SerializablePlan{f.net.name(), plan, std::nullopt});
      if (peers) cluster.transport->connect_peers();
      const OnlineEngine wired = make_wired(f, plan, cluster.transport);

      // The wired engine's own blocking infer() is the reference for the
      // transcript, the (bitwise single-node-identical) output, and the wire
      // traffic per request.
      rpc::SocketTransport::Stats before = cluster.transport->stats();
      InferenceResult reference;
      for (std::uint64_t i = 0; i < kRequests; ++i) reference = wired.infer(f.input);
      const Traffic expected = traffic_since(before, cluster.transport->stats());
      expect_identical(reference.output, f.reference);
      if (peers) {
        // Every boundary rides a peer channel: the coordinator fetches the
        // final output and nothing else, and relays nothing.
        EXPECT_EQ(expected.fetched, kRequests * rpc::encode_tensor(reference.output).size());
        EXPECT_EQ(expected.relay, 0u);
      }

      for (const bool readiness : {false, true}) {
        SCOPED_TRACE(readiness ? "readiness dispatch" : "blocking dispatch");
        ServingReactor::Options options;
        options.readiness_dispatch = readiness;
        ServingReactor reactor(wired, options);
        before = cluster.transport->stats();
        std::vector<std::size_t> ids;
        for (std::uint64_t i = 0; i < kRequests; ++i) ids.push_back(reactor.submit(f.input));
        for (const std::size_t id : ids) {
          const InferenceResult result = reactor.wait(id);
          expect_identical(result.output, reference.output);
          expect_same_transcript(result, reference);
        }
        EXPECT_EQ(traffic_since(before, cluster.transport->stats()), expected);
        const ServingReactor::Stats stats = reactor.stats();
        EXPECT_EQ(stats.completed, ids.size());
        if (readiness) {
          // The async walk must actually have parked on the wire at least
          // once — otherwise this test silently degenerated to the blocking
          // path.
          EXPECT_GT(stats.parked_stages, 0u);
          EXPECT_GT(stats.wire_wait_ms, 0.0);
        } else {
          EXPECT_EQ(stats.parked_stages, 0u);
        }
      }
    }
  }
}

TEST(AsyncTransport, ReadinessDispatchMatchesBlockingWithVsmStack) {
  Fixture f(dnn::zoo::tiny_chain());
  core::Assignment plan;
  plan.tier.assign(f.net.num_layers() + 1, core::Tier::kCloud);
  plan.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1})
    plan.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  const std::vector<dnn::LayerId> edge_stack = {2, 3, 4, 5};
  for (const dnn::LayerId id : edge_stack)
    plan.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const std::optional<core::FusedTilePlan> vsm =
      core::make_fused_tile_plan(f.net, edge_stack, 2, 2);

  Cluster cluster(f.net, f.weights, core::SerializablePlan{f.net.name(), plan, vsm});
  const OnlineEngine wired = make_wired(f, plan, cluster.transport, vsm);
  const InferenceResult reference = wired.infer(f.input);
  expect_identical(reference.output, f.reference);

  ServingReactor::Options options;
  options.readiness_dispatch = true;
  ServingReactor reactor(wired, options);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(reactor.submit(f.input));
  for (const std::size_t id : ids) {
    const InferenceResult result = reactor.wait(id);
    expect_identical(result.output, reference.output);
    expect_same_transcript(result, reference);
  }
}

// --- Concurrency stress (run under TSan by the sanitizer CI job) ------------

TEST(AsyncTransport, ConcurrentSubmittersOverReadinessDispatch) {
  Fixture f(dnn::zoo::tiny_chain());
  const core::Assignment plan = three_tier_plan(f.net);
  Cluster cluster(f.net, f.weights, core::SerializablePlan{f.net.name(), plan, std::nullopt});
  const OnlineEngine wired = make_wired(f, plan, cluster.transport);
  const InferenceResult reference = wired.infer(f.input);

  ServingReactor::Options options;
  options.readiness_dispatch = true;
  ServingReactor reactor(wired, options);

  constexpr int kThreads = 4, kPerThread = 5;
  std::vector<std::vector<std::size_t>> ids(kThreads);
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ids[t].push_back(reactor.submit(f.input));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    for (std::thread& s : submitters) s.join();
  }
  for (const auto& thread_ids : ids)
    for (const std::size_t id : thread_ids) {
      const InferenceResult result = reactor.wait(id);
      expect_identical(result.output, reference.output);
      expect_same_transcript(result, reference);
    }
  EXPECT_EQ(reactor.stats().completed,
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// --- Worker death through the async path ------------------------------------

TEST(AsyncTransport, WorkerKillMidBatchRecoversThroughReadinessDispatch) {
  Fixture f(dnn::zoo::tiny_chain());
  const core::Assignment plan = three_tier_plan(f.net);
  Cluster cluster(f.net, f.weights, core::SerializablePlan{f.net.name(), plan, std::nullopt});
  cluster.enable_respawn("edge0");
  const OnlineEngine wired = make_wired(f, plan, cluster.transport);
  const InferenceResult reference = wired.infer(f.input);

  ServingReactor::Options options;
  options.readiness_dispatch = true;
  options.max_replays = 2;  // belt for deaths the engine cannot absorb in place
  ServingReactor reactor(wired, options);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(reactor.submit(f.input));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cluster.signal_worker("edge0", SIGKILL);

  for (const std::size_t id : ids) {
    const InferenceResult result = reactor.wait(id);
    // Recovery replays are bitwise-identical by the transcript-purity
    // invariant — a request that survived a mid-flight worker death is
    // indistinguishable from one that never saw it.
    expect_identical(result.output, reference.output);
    expect_same_transcript(result, reference);
  }
  EXPECT_EQ(reactor.stats().completed, ids.size());
}

// --- Heartbeat starvation regression ----------------------------------------
//
// Before ISSUE 8 the reactor only probed liveness from its *idle* branch: a
// reactor saturated with runnable or parked stages never went idle, so a
// wedged (not dead — no RST, no EOF) worker was discovered only when a
// request's own round-trip timed out. The loop now checks heartbeat_due_ms()
// at the top of every iteration. This test wedges the cloud worker with
// SIGSTOP while a stream of arrivals keeps the reactor busy, and requires the
// liveness probe — not request traffic — to declare the channel dead.
TEST(AsyncTransport, HeartbeatFiresWhileReactorIsBusyWithSigstoppedWorker) {
  Fixture f(dnn::zoo::tiny_chain());
  const core::Assignment plan = three_tier_plan(f.net);
  Cluster cluster(f.net, f.weights, core::SerializablePlan{f.net.name(), plan, std::nullopt});
  cluster.enable_respawn("cloud0");
  cluster.transport->enable_heartbeats(rpc::SocketTransport::HeartbeatPolicy{
      std::chrono::milliseconds(15), std::chrono::milliseconds(15), 2});
  const OnlineEngine wired = make_wired(f, plan, cluster.transport);

  ServingReactor::Options options;
  options.readiness_dispatch = true;
  options.max_replays = 4;
  ServingReactor reactor(wired, options);

  cluster.signal_worker("cloud0", SIGSTOP);
  // Open-loop arrivals: device/edge stages keep completing, so the reactor
  // loop keeps turning (runnable + parked work) instead of idling in epoll.
  std::vector<std::size_t> ids;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reactor.stats().heartbeat_deaths == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ids.push_back(reactor.submit(f.input));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(reactor.stats().heartbeat_deaths, 1u);

  // The SIGSTOPped incarnation was declared dead, SIGKILLed by its owning
  // WorkerProcess when the respawn hook replaced it (SIGKILL terminates a
  // stopped process), and every request must still complete correctly —
  // in-place recovery or end-to-end replay, both bitwise-identical by the
  // purity invariant.
  for (const std::size_t id : ids) {
    const InferenceResult result = reactor.wait(id);
    expect_identical(result.output, f.reference);
  }
}

}  // namespace
}  // namespace d3::runtime
