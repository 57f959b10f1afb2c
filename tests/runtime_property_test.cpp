// Property sweep over the distributed runtime: randomised networks, randomised
// feasible plans, randomised VSM grids — the distributed output must equal the
// single-node reference bitwise in every case, and the transcript's boundary
// bytes must match the analytical accounting. Plus failure-injection scenarios
// for the adaptive path (link outage -> repartition -> recovery).
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/hpa.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "net/conditions.h"
#include "profile/profiler.h"
#include "rpc/fault_injection.h"
#include "runtime/engine.h"
#include "runtime/request_journal.h"
#include "util/rng.h"

namespace d3::runtime {
namespace {

// Random small CNN: conv/relu/pool chain with an optional two-branch fork.
dnn::Network random_network(util::Rng& rng) {
  const int size = static_cast<int>(rng.uniform_int(12, 24));
  dnn::Network net("rand", dnn::Shape{3, size, size});
  dnn::LayerId x = net.conv("c0", dnn::kNetworkInput, 4, 3, 1, 1);
  const int body = static_cast<int>(rng.uniform_int(1, 3));
  for (int j = 0; j < body; ++j) {
    x = net.relu("r" + std::to_string(j), x);
    x = net.conv("c" + std::to_string(j + 1), x, 4, 3, 1, 1);
  }
  if (rng.chance(0.5)) {
    const dnn::LayerId a = net.conv("fork_a", x, 4, 1);
    const dnn::LayerId b = net.conv("fork_b", x, 4, 3, 1, 1);
    x = net.concat("cat", {a, b});
  }
  x = net.global_avg_pool("gap", x);
  x = net.fully_connected("fc", x, 8);
  net.softmax("sm", x);
  return net;
}

// Random Prop.-1-feasible assignment: walk the layers in order, never moving
// device-ward of the most device-ward input.
core::Assignment random_feasible_plan(const dnn::Network& net, util::Rng& rng) {
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kDevice);
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) {
    core::Tier bound = core::Tier::kCloud;
    for (const dnn::LayerId in : net.layer(id).inputs) {
      const core::Tier t = in == dnn::kNetworkInput
                               ? core::Tier::kDevice
                               : a.tier[dnn::Network::vertex_of(in)];
      if (core::before(t, bound)) bound = t;
    }
    const int lo = core::index(bound);
    a.tier[dnn::Network::vertex_of(id)] =
        static_cast<core::Tier>(rng.uniform_int(lo, 2));
  }
  return a;
}

class RuntimeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeFuzz, DistributedAlwaysMatchesReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam());
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  const core::Assignment plan = random_feasible_plan(net, rng);
  const InferenceResult result = OnlineEngine(net, weights, plan).infer(input);

  ASSERT_EQ(result.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(result.output[i], reference[i]);

  // Boundary bytes match the analytical accounting for the same plan.
  const auto problem =
      core::make_problem_exact(net, profile::paper_testbed(), net::wifi());
  const core::BoundaryTraffic traffic = core::boundary_traffic(problem, plan);
  EXPECT_EQ(result.device_edge_bytes, traffic.device_edge_bytes);
  EXPECT_EQ(result.edge_cloud_bytes, traffic.edge_cloud_bytes);
  EXPECT_EQ(result.device_cloud_bytes, traffic.device_cloud_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeFuzz, ::testing::Range(1, 21));

class RuntimeVsmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeVsmFuzz, TiledEdgeStackAlwaysLossless) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7877);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam() + 100);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  // Everything on the edge except the tail on the cloud; tile the heaviest run.
  core::Assignment plan;
  plan.tier.assign(net.num_layers() + 1, core::Tier::kEdge);
  plan.tier[0] = core::Tier::kDevice;
  plan.tier.back() = core::Tier::kCloud;

  std::vector<dnn::LayerId> edge_layers;
  for (dnn::LayerId id = 0; id + 1 < net.num_layers(); ++id) edge_layers.push_back(id);
  const auto run = core::longest_tileable_run(net, edge_layers);
  if (run.empty()) GTEST_SKIP() << "no tileable run";
  const dnn::Shape out = net.layer(run.back()).output_shape;
  const int rows = static_cast<int>(rng.uniform_int(1, std::min(3, out.h)));
  const int cols = static_cast<int>(rng.uniform_int(1, std::min(3, out.w)));
  if (rows * cols < 2) GTEST_SKIP() << "degenerate grid";
  const auto vsm = core::make_fused_tile_plan(net, run, rows, cols);

  const InferenceResult result = OnlineEngine(net, weights, plan, vsm).infer(input);
  ASSERT_EQ(result.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(result.output[i], reference[i]);
  EXPECT_GT(result.vsm_scatter_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeVsmFuzz, ::testing::Range(1, 16));

// The threaded engine under the same randomised sweep: for every random
// network and random Prop.-1-feasible plan, the concurrent engine's transcript
// byte counts must equal core::boundary_traffic on every tier boundary, its
// output must equal the reference bitwise, and its transcript must be
// message-for-message identical to the sequential engine's (seq, endpoints,
// payload, bytes) — thread interleaving must be unobservable.
class ThreadedRuntimeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedRuntimeFuzz, TranscriptBytesMatchBoundaryTrafficOnEveryBoundary) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 9257);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam() + 500);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  const core::Assignment plan = random_feasible_plan(net, rng);
  const OnlineEngine sequential(net, weights, plan);
  const OnlineEngine threaded(net, weights, plan, std::nullopt,
                              OnlineEngine::Options{.vsm_workers = 3});
  const InferenceResult result = threaded.infer(input);
  const InferenceResult expected = sequential.infer(input);

  ASSERT_EQ(result.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(result.output[i], reference[i]);

  const auto problem =
      core::make_problem_exact(net, profile::paper_testbed(), net::wifi());
  const core::BoundaryTraffic traffic = core::boundary_traffic(problem, plan);
  EXPECT_EQ(result.device_edge_bytes, traffic.device_edge_bytes);
  EXPECT_EQ(result.edge_cloud_bytes, traffic.edge_cloud_bytes);
  EXPECT_EQ(result.device_cloud_bytes, traffic.device_cloud_bytes);

  // Summing the transcript itself per boundary must agree too (the accounting
  // fields are not allowed to drift from the recorded messages).
  std::int64_t de = 0, ec = 0, dc = 0;
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    const MessageRecord& m = result.messages[i];
    EXPECT_EQ(m.seq, i);
    const int lo = std::min(core::index(m.from_tier), core::index(m.to_tier));
    const int hi = std::max(core::index(m.from_tier), core::index(m.to_tier));
    if (lo == 0 && hi == 1) de += m.bytes;
    if (lo == 1 && hi == 2) ec += m.bytes;
    if (lo == 0 && hi == 2) dc += m.bytes;
  }
  EXPECT_EQ(de, traffic.device_edge_bytes);
  EXPECT_EQ(ec, traffic.edge_cloud_bytes);
  EXPECT_EQ(dc, traffic.device_cloud_bytes);

  ASSERT_EQ(result.messages.size(), expected.messages.size());
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    EXPECT_EQ(result.messages[i].from_node, expected.messages[i].from_node);
    EXPECT_EQ(result.messages[i].to_node, expected.messages[i].to_node);
    EXPECT_EQ(result.messages[i].payload, expected.messages[i].payload);
    EXPECT_EQ(result.messages[i].bytes, expected.messages[i].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedRuntimeFuzz, ::testing::Range(1, 21));

class ThreadedVsmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedVsmFuzz, ParallelTilesKeepTrafficAndLosslessness) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 4679);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam() + 900);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  core::Assignment plan;
  plan.tier.assign(net.num_layers() + 1, core::Tier::kEdge);
  plan.tier[0] = core::Tier::kDevice;
  plan.tier.back() = core::Tier::kCloud;

  std::vector<dnn::LayerId> edge_layers;
  for (dnn::LayerId id = 0; id + 1 < net.num_layers(); ++id) edge_layers.push_back(id);
  const auto run = core::longest_tileable_run(net, edge_layers);
  if (run.empty()) GTEST_SKIP() << "no tileable run";
  const dnn::Shape out = net.layer(run.back()).output_shape;
  const int rows = static_cast<int>(rng.uniform_int(1, std::min(3, out.h)));
  const int cols = static_cast<int>(rng.uniform_int(1, std::min(3, out.w)));
  if (rows * cols < 2) GTEST_SKIP() << "degenerate grid";
  const auto vsm = core::make_fused_tile_plan(net, run, rows, cols);

  const InferenceResult tiled =
      OnlineEngine(net, weights, plan, vsm, OnlineEngine::Options{.vsm_workers = 4})
          .infer(input);
  const InferenceResult plain = OnlineEngine(net, weights, plan).infer(input);

  ASSERT_EQ(tiled.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(tiled.output[i], reference[i]);

  // VSM is intra-edge: tier-boundary traffic is invariant under tiling and
  // threading, and still matches the analytical accounting.
  const auto problem =
      core::make_problem_exact(net, profile::paper_testbed(), net::wifi());
  const core::BoundaryTraffic traffic = core::boundary_traffic(problem, plan);
  EXPECT_EQ(tiled.device_edge_bytes, traffic.device_edge_bytes);
  EXPECT_EQ(tiled.edge_cloud_bytes, traffic.edge_cloud_bytes);
  EXPECT_EQ(tiled.device_cloud_bytes, traffic.device_cloud_bytes);
  EXPECT_EQ(tiled.device_edge_bytes, plain.device_edge_bytes);
  EXPECT_EQ(tiled.edge_cloud_bytes, plain.edge_cloud_bytes);
  EXPECT_GT(tiled.vsm_scatter_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadedVsmFuzz, ::testing::Range(1, 16));

// Randomised recovery property: random networks, random Prop.-1-feasible
// plans, and a randomly scripted state-loss fault (FaultInjectionTransport's
// kFail over the serializing-loopback wire path). Whatever the fault hits, the
// recovered output must stay bitwise-equal to the reference, the transcript
// must be message-for-message identical to a fault-free run, and the recovery
// cost must obey its bounds: at most one tier replayed per injected fault, and
// strictly fewer bytes re-moved than an end-to-end replay would ship.
class RecoveryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryFuzz, ScriptedStateLossKeepsLosslessnessAndBoundsRecoveryCost) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 11939);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam() + 700);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);
  const core::Assignment plan = random_feasible_plan(net, rng);

  using rpc::FaultInjectionTransport;
  auto faults = std::make_shared<FaultInjectionTransport>(
      std::make_shared<rpc::SerializingLoopback>());
  const FaultInjectionTransport::Op ops[] = {
      FaultInjectionTransport::Op::kPut, FaultInjectionTransport::Op::kRunLayer,
      FaultInjectionTransport::Op::kGet, FaultInjectionTransport::Op::kAny};
  const char* nodes[] = {"device0", "edge0", "cloud0", ""};
  FaultInjectionTransport::Fault fault;
  fault.op = ops[rng.uniform_int(0, 3)];
  fault.node = nodes[rng.uniform_int(0, 3)];
  fault.nth = rng.uniform_int(1, 8);
  fault.action = FaultInjectionTransport::Action::kFail;
  faults->schedule(fault);

  OnlineEngine::Options options;
  options.transport = faults;
  const OnlineEngine engine(net, weights, plan, std::nullopt, options);
  const InferenceResult result = engine.infer(input);

  ASSERT_EQ(result.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(result.output[i], reference[i]);

  // Transcript identical to a fault-free engine on the same plan: state-loss
  // recovery must be unobservable in the record.
  const InferenceResult expected = OnlineEngine(net, weights, plan).infer(input);
  ASSERT_EQ(result.messages.size(), expected.messages.size());
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    EXPECT_EQ(result.messages[i].seq, expected.messages[i].seq);
    EXPECT_EQ(result.messages[i].from_node, expected.messages[i].from_node);
    EXPECT_EQ(result.messages[i].to_node, expected.messages[i].to_node);
    EXPECT_EQ(result.messages[i].payload, expected.messages[i].payload);
    EXPECT_EQ(result.messages[i].bytes, expected.messages[i].bytes);
  }
  EXPECT_EQ(result.layers_executed, expected.layers_executed);

  // Recovery-cost bounds. The fault may or may not fire (nth can exceed the
  // op count for this plan); when it does, each injected fault buys at most
  // one tier replay, and the bytes recovery re-moves stay strictly below the
  // full-replay baseline (raw input + every boundary message re-shipped).
  const OnlineEngine::Stats stats = engine.stats();
  const FaultInjectionTransport::Stats fit = faults->stats();
  EXPECT_LE(stats.tiers_replayed, fit.faults_injected);
  EXPECT_LE(stats.recoveries, fit.faults_injected);
  std::uint64_t full_replay_bytes = static_cast<std::uint64_t>(net.input_shape().bytes());
  for (const MessageRecord& m : expected.messages)
    full_replay_bytes += static_cast<std::uint64_t>(m.bytes);
  EXPECT_LT(stats.recovery_bytes, full_replay_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz, ::testing::Range(1, 25));

// --- Randomized failover fuzz (ISSUE 9) --------------------------------------

// The in-process stand-in for a SIGKILLed coordinator: the kill handler
// throws this through the engine, the continuation is abandon()ed (no kEnd,
// so worker slots survive exactly as they would a real coordinator death),
// and a standby engine over the same worker fabric must converge from the
// journal alone.
struct CoordinatorKilled {};

class FailoverFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FailoverFuzz, StandbyPromotionConvergesFromRandomKillPoints) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17477);
  const dnn::Network net = random_network(rng);
  const exec::WeightStore weights = exec::WeightStore::random_for(net, GetParam() + 900);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);
  const core::Assignment plan = random_feasible_plan(net, rng);
  const std::string journal_path =
      (std::filesystem::path(::testing::TempDir()) /
       ("failover_fuzz_" + std::to_string(GetParam()) + ".d3j"))
          .string();
  std::filesystem::remove(journal_path);

  // Random nets can't ride the socket transport (kConfig resolves models by
  // zoo name), so the worker fabric is a SerializingLoopback shared by both
  // coordinator incarnations — its per-node state survives the "death" the
  // same way listen-mode worker processes survive a real SIGKILL.
  using rpc::FaultInjectionTransport;
  auto workers = std::make_shared<rpc::SerializingLoopback>();
  auto faults = std::make_shared<FaultInjectionTransport>(workers);
  faults->set_kill_handler([](const std::string&) { throw CoordinatorKilled{}; });
  FaultInjectionTransport::Fault fault;
  fault.op = FaultInjectionTransport::Op::kAny;
  fault.node = "";
  fault.nth = rng.uniform_int(1, 30);  // may exceed the op count: then no kill
  fault.action = FaultInjectionTransport::Action::kKill;
  faults->schedule(fault);

  OnlineEngine::Options active_options;
  active_options.transport = faults;
  active_options.journal = std::make_shared<RequestJournal>(journal_path);
  const OnlineEngine active(net, weights, plan, std::nullopt, active_options);

  std::optional<OnlineEngine::Continuation> c;
  bool killed = false;
  try {
    c.emplace(active.start(input));
    while (!active.step(*c)) {
    }
  } catch (const CoordinatorKilled&) {
    killed = true;
  }
  if (!killed) {
    // The random kill point fell past this plan's op count: a plain lossless
    // run, and nothing for any standby to do.
    const InferenceResult done = active.take(std::move(*c));
    ASSERT_EQ(done.output.shape(), reference.shape());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(done.output[i], reference[i]);
    EXPECT_TRUE(RequestJournal::load(journal_path).empty());
    return;
  }
  if (c.has_value()) active.abandon(std::move(*c));

  // The standby: same surviving workers, the dead incarnation's journal.
  OnlineEngine::Options standby_options;
  standby_options.transport = workers;
  standby_options.journal = std::make_shared<RequestJournal>(journal_path);
  const OnlineEngine standby(net, weights, plan, std::nullopt, standby_options);

  const std::vector<Snapshot> live = RequestJournal::load(journal_path);
  ASSERT_LE(live.size(), 1u);
  InferenceResult result;
  if (live.empty()) {
    // Killed before the first durable stage: promotion has nothing to resume
    // and the request is simply re-run from its (re-submitted) input.
    result = standby.infer(input);
  } else {
    OnlineEngine::Continuation rc = standby.restore(live[0]);
    while (!standby.step(rc)) {
    }
    result = standby.take(std::move(rc));
  }

  // Convergence is lossless: bitwise output, transcript identical to an
  // engine that never saw the failover.
  ASSERT_EQ(result.output.shape(), reference.shape());
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(result.output[i], reference[i]);
  const InferenceResult expected = OnlineEngine(net, weights, plan).infer(input);
  ASSERT_EQ(result.messages.size(), expected.messages.size());
  for (std::size_t i = 0; i < result.messages.size(); ++i) {
    EXPECT_EQ(result.messages[i].seq, expected.messages[i].seq);
    EXPECT_EQ(result.messages[i].from_node, expected.messages[i].from_node);
    EXPECT_EQ(result.messages[i].to_node, expected.messages[i].to_node);
    EXPECT_EQ(result.messages[i].payload, expected.messages[i].payload);
    EXPECT_EQ(result.messages[i].bytes, expected.messages[i].bytes);
  }
  EXPECT_EQ(result.layers_executed, expected.layers_executed);
  EXPECT_TRUE(RequestJournal::load(journal_path).empty());

  // Recovery-cost pin: with the already-delivered boundary tensors still
  // live on the workers, the promotion moves strictly fewer bytes than a
  // full replay would — raw input plus every boundary message re-shipped.
  std::uint64_t full_replay_bytes = static_cast<std::uint64_t>(net.input_shape().bytes());
  for (const MessageRecord& m : expected.messages)
    full_replay_bytes += static_cast<std::uint64_t>(m.bytes);
  EXPECT_LT(standby.stats().recovery_bytes, full_replay_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailoverFuzz, ::testing::Range(1, 21));

TEST(FailureInjection, BackhaulOutageAndRecovery) {
  // The backbone collapses to near-zero, then recovers: the adaptive
  // repartitioner must evacuate the cloud during the outage and use it again
  // afterwards, staying feasible throughout.
  const dnn::Network net = dnn::zoo::vgg16();
  const auto estimators = profile::Profiler::profile_tiers(profile::paper_testbed());
  core::AdaptiveRepartitioner rep(
      core::make_problem(net, estimators, net::optical()));

  const auto cloud_load = [&] {
    return core::tier_load(rep.problem(), rep.assignment()).at(core::Tier::kCloud);
  };
  const double healthy_cloud = cloud_load();
  EXPECT_GT(healthy_cloud, 0.0);  // optical backhaul: the fc tail runs in the cloud

  net::NetworkCondition outage = net::optical();
  outage.edge_cloud_mbps = 0.05;
  outage.device_cloud_mbps = 0.05;
  rep.update_condition(outage);
  EXPECT_TRUE(core::respects_precedence(rep.problem(), rep.assignment()));
  EXPECT_LT(cloud_load(), 1e-6);  // nothing heavy left behind the dead link

  rep.update_condition(net::optical());
  EXPECT_TRUE(core::respects_precedence(rep.problem(), rep.assignment()));
  EXPECT_NEAR(cloud_load(), healthy_cloud, 1e-9);  // full recovery
  EXPECT_EQ(rep.full_repartitions(), 2u);
}

TEST(FailureInjection, EdgeDegradationShiftsWorkOffTheEdge) {
  // An overloaded edge node (e.g. a co-tenant burst) slows every edge layer
  // 50x; vertex-by-vertex updates must drain the edge without ever producing
  // an infeasible plan.
  const dnn::Network net = dnn::zoo::resnet18();
  const auto estimators = profile::Profiler::profile_tiers(profile::paper_testbed());
  core::AdaptiveRepartitioner rep(core::make_problem(net, estimators, net::wifi()));
  const double before = core::tier_load(rep.problem(), rep.assignment()).at(core::Tier::kEdge);
  ASSERT_GT(before, 0.0);

  for (graph::VertexId v = 1; v < rep.problem().size(); ++v) {
    core::TierTimes t = rep.problem().vertex_time[v];
    t.at(core::Tier::kEdge) *= 50.0;
    rep.update_vertex_time(v, t);
    ASSERT_TRUE(core::respects_precedence(rep.problem(), rep.assignment()));
  }
  const double after = core::tier_load(rep.problem(), rep.assignment()).at(core::Tier::kEdge);
  EXPECT_LT(after, before * 50.0 * 0.2);  // most edge work moved away
}

}  // namespace
}  // namespace d3::runtime
