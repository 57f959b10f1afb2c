// Transport overhead: what the wire costs relative to zero-copy in-process
// execution, per inference and per boundary byte.
//
// The same deployment plan runs on all three transports:
//
//   in-process   — zero-copy (the PR-1/2 engine behaviour; the baseline)
//   loopback     — every inter-node tensor round-trips encode/decode
//   socket       — each tier its own OS process over localhost TCP, star
//                  topology: boundary tensors relay through the coordinator
//                  (spawned on demand; skipped if the worker binary is missing)
//   socket+peer  — same processes with peer channels (connect_peers): boundary
//                  tensors are pushed producer -> consumer directly, and the
//                  relay KB column drops to zero while peer KB picks them up
//
// The delta between in-process and loopback divided by the bytes moved is the
// pure serialization cost (µs/MB); the socket delta adds framing + kernel TCP.
// The relay-vs-peer byte columns quantify what the star topology costs: every
// relay byte crosses the coordinator twice (fetch + send), so the peer path
// removes 2x relay KB of coordinator traffic per inference. Put against
// Options::emulated_tier_service_seconds (the knob the concurrency bench uses
// to stand in for remote service time) and the fig13 per-frame boundary
// traffic, it closes the loop on the paper's communication-overhead story
// with measured numbers. Writes BENCH_transport.json.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/bundle.h"
#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/fault_injection.h"
#include "rpc/socket_transport.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "runtime/address_book.h"
#include "runtime/engine.h"
#include "runtime/failover.h"
#include "runtime/request_journal.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace d3;

struct PlanCase {
  std::string name;
  dnn::Network net;
  core::Assignment assignment;
  std::optional<core::FusedTilePlan> vsm;
};

PlanCase tiny_chain_vsm() {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  const std::vector<dnn::LayerId> stack = {2, 3, 4, 5};
  for (const dnn::LayerId id : stack) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  auto vsm = core::make_fused_tile_plan(net, stack, 2, 2);
  return {"tiny-chain 2x2 vsm", std::move(net), std::move(a), std::move(vsm)};
}

PlanCase tiny_branch_split() {
  dnn::Network net = dnn::zoo::tiny_branch();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1, 2, 3, 4})
    a.tier[dnn::Network::vertex_of(id)] =
        id < 2 ? core::Tier::kDevice : core::Tier::kEdge;
  return {"tiny-branch 3-tier", std::move(net), std::move(a), std::nullopt};
}

// Best-of-N wall clock of one engine inference, seconds.
double time_infer(const runtime::OnlineEngine& engine, const dnn::Tensor& input,
                  int repetitions) {
  double best = 1e300;
  for (int i = 0; i < repetitions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const runtime::InferenceResult r = engine.infer(input);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    if (r.output.size() == 0) std::abort();  // keep the result observable
  }
  return best;
}

struct Row {
  std::string plan;
  std::string transport;
  double seconds = 0;
  std::int64_t boundary_bytes = 0;
  double overhead_us = 0;    // vs in-process
  double us_per_mb = 0;      // overhead normalised by boundary traffic
  // Per-inference coordinator-relay vs direct peer-to-peer payload bytes
  // (socket modes only): peer channels exist to move relay -> peer.
  std::uint64_t relay_bytes = 0;
  std::uint64_t peer_bytes = 0;
};

// What one mid-request death costs, end to end. Worker deaths (a SIGKILL'd
// edge worker, deterministically placed via FaultInjectionTransport) complete
// either by the old full-replay contract or by tier-granular migration;
// coordinator deaths (abandon mid-request) complete on a standby restoring the
// request journal, on a star or over peer channels.
struct RecoveryRow {
  // full-replay | tier-migration | coordinator-failover[+peers] | promotion
  std::string mode;
  double seconds = 0;          // interrupted-request wall clock, death -> result
  std::uint64_t bytes = 0;     // tensor bytes re-moved to finish the request
};

// Boot-time configuration traffic: kConfig ships every node its own
// deployment bundle — plan plus the weight shard of exactly its layers,
// O(tier) per worker — while a cluster booted from d3c bundles takes the
// weights-elided form, the bundle without its shard. Both forms are run
// against real worker processes on the same plan (outputs verified
// bitwise-identical) and the bytes are the measured kConfig bodies, not an
// estimate.
struct ConfigRow {
  std::string form;
  std::uint64_t config_bytes = 0;
};

#ifdef D3_NODE_BINARY
// Runs the 3-tier tiny-chain plan on a fresh 3-process cluster with an edge
// respawn hook, SIGKILLs the edge worker right before its 2nd kRunLayer, and
// measures the interrupted request. `migrate` selects the engine contract.
RecoveryRow measure_recovery(bool migrate) {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3, 4, 5})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 21);
  util::Rng rng(22);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  std::vector<std::unique_ptr<rpc::WorkerProcess>> workers;
  std::map<std::string, std::unique_ptr<rpc::WorkerProcess>> respawned;
  auto socket = std::make_shared<rpc::SocketTransport>();
  std::map<std::string, pid_t> pids;
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    workers.push_back(std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY));
    pids[node] = workers.back()->pid();
    socket->add_node(node, workers.back()->take_socket());
  }
  const core::SerializablePlan plan{net.name(), a, std::nullopt};
  socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  socket->set_reconnect(
      "edge0",
      [&respawned] {
        respawned["edge0"] = std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY);
        return respawned["edge0"]->take_socket();
      },
      rpc::SocketTransport::RetryPolicy{3, std::chrono::milliseconds(2), 2.0});

  auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
  faults->set_kill_handler([&pids](const std::string& node) { ::kill(pids[node], SIGKILL); });

  runtime::OnlineEngine::Options options;
  options.transport = faults;
  options.tier_recovery = migrate;
  const runtime::OnlineEngine engine(net, weights, a, std::nullopt, options);
  engine.infer(input);  // warm run before the fault is armed
  // SIGKILL the edge worker right before the 2nd edge layer of the next
  // request: mid-edge-tier, with one lost layer to re-run.
  faults->schedule(rpc::FaultInjectionTransport::Fault{
      rpc::FaultInjectionTransport::Op::kRunLayer, "edge0", 2,
      rpc::FaultInjectionTransport::Action::kKill, {}, ""});

  // The interrupted request: wall clock from submission to a bitwise-correct
  // result, whichever contract finishes it.
  const auto t0 = std::chrono::steady_clock::now();
  runtime::InferenceResult result;
  std::uint64_t replay_shipped = 0;
  try {
    result = engine.infer(input);
  } catch (const rpc::ChannelDied&) {
    // Full-replay contract: the request failed; replay it end-to-end.
    const rpc::SocketTransport::Stats before = socket->stats();
    result = engine.infer(input);
    replay_shipped = socket->stats().payload_bytes_sent - before.payload_bytes_sent;
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (result.output[i] != reference[i]) std::abort();

  RecoveryRow row;
  row.mode = migrate ? "tier-migration" : "full-replay";
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.bytes = migrate ? engine.stats().recovery_bytes : replay_shipped;
  return row;
}

// The coordinator dies instead of a worker: a journalling primary is
// interrupted mid-edge-tier (scripted kFail, recovery disabled — the request
// is abandoned exactly as a SIGKILL'd process would leave it, workers keeping
// their slots and the journal its snapshots) and a standby engine over the
// surviving workers restores the last snapshot and resumes. At the abandon
// point the device->edge boundary has shipped, but the snapshot predates it,
// so the standby re-delivers it: on a star it re-seeds it from the device
// through the coordinator (recovery bytes > 0); with peer channels the device
// pushes it worker->worker (recovery bytes == 0).
RecoveryRow measure_failover(bool peers) {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3, 4, 5})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 23);
  util::Rng rng(24);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  std::vector<std::unique_ptr<rpc::WorkerProcess>> workers;
  auto socket = std::make_shared<rpc::SocketTransport>();
  for (const char* node : {"device0", "edge0", "cloud0"}) {
    workers.push_back(std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY));
    socket->add_node(node, workers.back()->take_socket());
  }
  const core::SerializablePlan plan{net.name(), a, std::nullopt};
  socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);
  if (peers) socket->connect_peers();

  const std::string journal_path =
      peers ? "BENCH_failover_peers.d3j" : "BENCH_failover.d3j";
  std::remove(journal_path.c_str());

  auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
  runtime::OnlineEngine::Options options;
  options.transport = faults;
  options.tier_recovery = false;  // the primary dies; it does not recover
  options.journal = std::make_shared<runtime::RequestJournal>(journal_path);
  const runtime::OnlineEngine primary(net, weights, a, std::nullopt, options);
  faults->schedule(rpc::FaultInjectionTransport::Fault{
      rpc::FaultInjectionTransport::Op::kRunLayer, "edge0", 2,
      rpc::FaultInjectionTransport::Action::kFail, {}, ""});

  const auto t0 = std::chrono::steady_clock::now();
  runtime::OnlineEngine::Continuation c = primary.start(input);
  try {
    while (!primary.step(c)) {
    }
    std::abort();  // the scripted fault must interrupt the request
  } catch (const rpc::ChannelDied&) {
    primary.abandon(std::move(c));
  }

  runtime::OnlineEngine::Options standby_options;
  standby_options.transport = socket;
  standby_options.journal = std::make_shared<runtime::RequestJournal>(journal_path);
  const runtime::OnlineEngine standby(net, weights, a, std::nullopt, standby_options);
  const std::vector<runtime::Snapshot> live = runtime::RequestJournal::load(journal_path);
  if (live.size() != 1) std::abort();
  runtime::OnlineEngine::Continuation resumed = standby.restore(live[0]);
  while (!standby.step(resumed)) {
  }
  const runtime::InferenceResult result = standby.take(std::move(resumed));
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (result.output[i] != reference[i]) std::abort();
  std::remove(journal_path.c_str());

  RecoveryRow row;
  row.mode = peers ? "coordinator-failover+peers" : "coordinator-failover";
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.bytes = standby.stats().recovery_bytes;
  return row;
}

// Unattended promotion (PR 9): the failover row above hands the journal to a
// standby by hand; here nothing does. The active coordinator (a journalling
// engine plus its CoordinatorBeacon) is interrupted mid-edge-tier and the
// beacon goes dark; a StandbyCoordinator watching it over the address book
// misses its beats, promotes itself at a higher fencing epoch, redials the
// listen-mode workers, links their peer channels, and resumes the snapshot.
// Seconds run from beacon death to the bitwise-correct resumed result, so the
// row prices the whole pipeline: the detection window (miss_threshold x
// probe_interval), the epoch-stamped redial + kConfig replay + peer
// handshake, the journal restore, and the re-run of the interrupted tier.
RecoveryRow measure_promotion() {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3, 4, 5})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 25);
  util::Rng rng(26);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  // Listen-mode workers: they outlive the coordinator, and the standby dials
  // them back by the addresses the book advertises.
  std::map<std::string, std::unique_ptr<rpc::ListenWorkerProcess>> workers;
  for (const char* node : {"device0", "edge0", "cloud0"})
    workers[node] = std::make_unique<rpc::ListenWorkerProcess>(D3_NODE_BINARY);

  const std::string journal_path = "BENCH_promotion.d3j";
  std::remove(journal_path.c_str());
  auto beacon = std::make_unique<runtime::CoordinatorBeacon>(/*epoch=*/1, journal_path);

  std::string book_text = "[coordinator]\nactive 127.0.0.1:" + std::to_string(beacon->port()) +
                          "\n[workers]\n";
  for (const auto& [node, proc] : workers)
    book_text += node + std::string(" 127.0.0.1:") + std::to_string(proc->port()) + "\n";
  book_text += "[standbys]\nstandby0 127.0.0.1:65000\n";
  const runtime::AddressBook book = runtime::AddressBook::parse(book_text);

  auto socket = std::make_shared<rpc::SocketTransport>();
  socket->set_epoch(1);
  for (const auto& [node, proc] : workers) socket->add_node(node, proc->dial());
  const core::SerializablePlan plan{net.name(), a, std::nullopt};
  socket->configure(net.name(), net, weights, core::serialize_plan_binary(plan), 0);

  auto faults = std::make_shared<rpc::FaultInjectionTransport>(socket);
  runtime::OnlineEngine::Options options;
  options.transport = faults;
  options.tier_recovery = false;
  options.journal = std::make_shared<runtime::RequestJournal>(journal_path);
  const runtime::OnlineEngine primary(net, weights, a, std::nullopt, options);
  faults->schedule(rpc::FaultInjectionTransport::Fault{
      rpc::FaultInjectionTransport::Op::kRunLayer, "edge0", 2,
      rpc::FaultInjectionTransport::Action::kFail, {}, ""});

  runtime::StandbyCoordinator::Options standby_options;
  standby_options.book = book;
  standby_options.journal_path = journal_path;
  standby_options.probe_interval = std::chrono::milliseconds(20);
  standby_options.probe_timeout = std::chrono::milliseconds(200);
  standby_options.miss_threshold = 2;
  standby_options.epoch_hint = 1;
  runtime::StandbyCoordinator standby(net, weights, a, std::nullopt,
                                      std::move(standby_options));
  standby.start();

  runtime::OnlineEngine::Continuation c = primary.start(input);
  try {
    while (!primary.step(c)) {
    }
    std::abort();  // the scripted fault must interrupt the request
  } catch (const rpc::ChannelDied&) {
    primary.abandon(std::move(c));
  }

  const auto t0 = std::chrono::steady_clock::now();
  beacon.reset();  // the active coordinator goes dark
  if (!standby.wait_promoted(std::chrono::seconds(30))) std::abort();
  if (standby.resumed().size() != 1) std::abort();
  const auto t1 = std::chrono::steady_clock::now();
  const runtime::InferenceResult& result = standby.resumed().front().result;
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (result.output[i] != reference[i]) std::abort();
  std::remove(journal_path.c_str());

  RecoveryRow row;
  row.mode = "promotion";
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.bytes = standby.engine().stats().recovery_bytes;
  return row;
}

std::vector<ConfigRow> measure_config_bytes() {
  dnn::Network net = dnn::zoo::tiny_chain();
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  for (const dnn::LayerId id : {0, 1}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {2, 3, 4, 5})
    a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 27);
  const core::SerializablePlan plan{net.name(), a, std::nullopt};
  const std::vector<std::uint8_t> plan_bytes = core::serialize_plan_binary(plan);
  util::Rng rng(28);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  std::vector<ConfigRow> rows;

  // Shard form: each node's kConfig carries its own weight shard.
  {
    std::vector<std::unique_ptr<rpc::WorkerProcess>> workers;
    auto transport = std::make_shared<rpc::SocketTransport>();
    for (const char* node : {"device0", "edge0", "cloud0"}) {
      workers.push_back(std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY));
      transport->add_node(node, workers.back()->take_socket());
    }
    transport->configure(net.name(), net, weights, plan_bytes, 0);
    rows.push_back({"shard kConfig", transport->stats().config_bytes_sent});
    runtime::OnlineEngine::Options options;
    options.transport = transport;
    const runtime::InferenceResult r =
        runtime::OnlineEngine(net, weights, a, std::nullopt, options).infer(input);
    for (std::size_t i = 0; i < reference.size(); ++i)
      if (r.output[i] != reference[i]) std::abort();
  }

  // Elided form: workers boot from d3c bundles; kConfig carries the hash.
  {
    const std::uint64_t weights_hash = rpc::weights_hash(weights, net);
    std::map<std::string, std::unique_ptr<rpc::ListenWorkerProcess>> workers;
    auto transport = std::make_shared<rpc::SocketTransport>();
    for (const char* node : {"device0", "edge0", "cloud0"}) {
      const std::string path = std::string("BENCH_") + node + ".d3b";
      core::write_bundle_file(
          path, core::compile_bundle(net, weights, plan_bytes, node, 0, weights_hash));
      workers[node] = std::make_unique<rpc::ListenWorkerProcess>(
          D3_NODE_BINARY, std::vector<std::string>{"--bundle", path, node});
      transport->add_node(node, workers[node]->dial());
    }
    transport->set_elide_weights(true);
    transport->configure(net.name(), net, weights, plan_bytes, 0);
    rows.push_back({"elided kConfig (bundle boot)", transport->stats().config_bytes_sent});
    runtime::OnlineEngine::Options options;
    options.transport = transport;
    const runtime::InferenceResult r =
        runtime::OnlineEngine(net, weights, a, std::nullopt, options).infer(input);
    for (std::size_t i = 0; i < reference.size(); ++i)
      if (r.output[i] != reference[i]) std::abort();
    for (const char* node : {"device0", "edge0", "cloud0"})
      std::remove((std::string("BENCH_") + node + ".d3b").c_str());
  }

  if (rows[1].config_bytes >= rows[0].config_bytes) {
    std::cerr << "FATAL: elided kConfig sent " << rows[1].config_bytes
              << " bytes, not below the shard form's " << rows[0].config_bytes << "\n";
    std::abort();
  }
  return rows;
}
#endif

}  // namespace

int main() {
  bench::banner("transport overhead",
                "per-inference cost of the wire: in-process (zero-copy) vs "
                "serializing loopback vs one-OS-process-per-tier sockets, on "
                "identical plans with bitwise-identical outputs");

  const int reps = 15;
  std::vector<Row> rows;

  std::vector<PlanCase> cases;
  cases.push_back(tiny_chain_vsm());
  cases.push_back(tiny_branch_split());

  for (const PlanCase& c : cases) {
    const exec::WeightStore weights = exec::WeightStore::random_for(c.net, 11);
    util::Rng rng(12);
    const dnn::Tensor input = exec::random_tensor(c.net.input_shape(), rng);
    const dnn::Tensor reference = exec::Executor(c.net, weights).run(input);

    const auto check = [&](const runtime::InferenceResult& r) {
      if (!(r.output.shape() == reference.shape())) std::abort();
      for (std::size_t i = 0; i < reference.size(); ++i)
        if (r.output[i] != reference[i]) {
          std::cerr << "FATAL: transport broke bitwise identity on " << c.name << "\n";
          std::abort();
        }
      return r.device_edge_bytes + r.edge_cloud_bytes + r.device_cloud_bytes;
    };

    // In-process (baseline).
    const runtime::OnlineEngine inproc(c.net, weights, c.assignment, c.vsm);
    const std::int64_t boundary = check(inproc.infer(input));
    const double inproc_s = time_infer(inproc, input, reps);
    rows.push_back({c.name, "in-process", inproc_s, boundary, 0.0, 0.0});

    // Serializing loopback.
    {
      runtime::OnlineEngine::Options options;
      options.transport = std::make_shared<rpc::SerializingLoopback>();
      const runtime::OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);
      check(engine.infer(input));
      const double s = time_infer(engine, input, reps);
      const double overhead_us = (s - inproc_s) * 1e6;
      rows.push_back({c.name, "loopback", s, boundary, overhead_us,
                      boundary > 0 ? overhead_us / (boundary / 1e6) : 0.0});
    }

    // Socket: three worker processes, first the star topology (coordinator
    // relays every boundary tensor), then the same topology with peer
    // channels. Skipped (with a note) if spawning fails.
#ifdef D3_NODE_BINARY
    for (const bool peers : {false, true}) {
      try {
        std::vector<std::unique_ptr<rpc::WorkerProcess>> workers;
        auto transport = std::make_shared<rpc::SocketTransport>();
        for (const char* node : {"device0", "edge0", "cloud0"}) {
          workers.push_back(std::make_unique<rpc::WorkerProcess>(D3_NODE_BINARY));
          transport->add_node(node, workers.back()->take_socket());
        }
        const core::SerializablePlan plan{c.net.name(), c.assignment, c.vsm};
        transport->configure(c.net.name(), c.net, weights, core::serialize_plan_binary(plan),
                             /*vsm_workers=*/2);
        if (peers) transport->connect_peers();
        runtime::OnlineEngine::Options options;
        options.transport = transport;
        const runtime::OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);
        const rpc::SocketTransport::Stats before = transport->stats();
        check(engine.infer(input));
        const rpc::SocketTransport::Stats after = transport->stats();
        const double s = time_infer(engine, input, reps);
        const double overhead_us = (s - inproc_s) * 1e6;
        rows.push_back({c.name, peers ? "socket+peer" : "socket", s, boundary, overhead_us,
                        boundary > 0 ? overhead_us / (boundary / 1e6) : 0.0,
                        after.relay_bytes - before.relay_bytes,
                        after.peer_bytes - before.peer_bytes});
      } catch (const std::exception& e) {
        std::cerr << "note: socket mode skipped (" << e.what() << ")\n";
      }
    }
#endif
  }

  util::Table table({"plan", "transport", "infer ms", "boundary KB", "overhead us",
                     "us per MB moved", "relay KB", "peer KB"});
  for (const Row& r : rows)
    table.row()
        .cell(r.plan)
        .cell(r.transport)
        .cell(r.seconds * 1e3)
        .cell(static_cast<double>(r.boundary_bytes) / 1024.0)
        .cell(r.overhead_us)
        .cell(r.us_per_mb)
        .cell(static_cast<double>(r.relay_bytes) / 1024.0)
        .cell(static_cast<double>(r.peer_bytes) / 1024.0);
  table.print(std::cout, "transport overhead (outputs verified bitwise-identical first)");

  // Recovery cost: the same SIGKILL mid-edge-tier, finished by the PR-4
  // full-replay contract vs tier-granular migration. Bytes are the tensor
  // payloads re-moved to complete the interrupted request.
  std::vector<RecoveryRow> recovery;
#ifdef D3_NODE_BINARY
  for (const bool migrate : {false, true}) {
    try {
      recovery.push_back(measure_recovery(migrate));
    } catch (const std::exception& e) {
      std::cerr << "note: recovery mode skipped (" << e.what() << ")\n";
    }
  }
  // Coordinator failover: same interruption point, but the *coordinator* is
  // the casualty and a standby resumes from the request journal. The peers
  // row must re-move strictly fewer bytes: the producers still hold the
  // boundaries, so nothing needs to cross the standby.
  std::optional<std::uint64_t> reseed_bytes;
  for (const bool peers : {false, true}) {
    try {
      recovery.push_back(measure_failover(peers));
      if (!peers) {
        reseed_bytes = recovery.back().bytes;
      } else if (reseed_bytes && recovery.back().bytes >= *reseed_bytes) {
        std::cerr << "FATAL: peer failover re-moved " << recovery.back().bytes
                  << " bytes, not below the " << *reseed_bytes << " re-seed cost\n";
        std::abort();
      }
    } catch (const std::exception& e) {
      std::cerr << "note: failover mode skipped (" << e.what() << ")\n";
    }
  }
  // Unattended promotion: the same restore, but nothing hands the journal
  // over — the standby detects the dead beacon itself and takes the workers
  // at a higher fencing epoch. The delta vs the coordinator-failover row is
  // the price of automation: the miss window plus the epoch-fenced redial.
  try {
    recovery.push_back(measure_promotion());
  } catch (const std::exception& e) {
    std::cerr << "note: promotion mode skipped (" << e.what() << ")\n";
  }
  if (!recovery.empty()) {
    util::Table rtable({"recovery mode", "interrupted-request ms", "recovery KB"});
    for (const RecoveryRow& r : recovery)
      rtable.row().cell(r.mode).cell(r.seconds * 1e3).cell(static_cast<double>(r.bytes) /
                                                           1024.0);
    rtable.print(std::cout,
                 "mid-tier death: edge-worker SIGKILL rows vs coordinator-failover "
                 "rows (tiny-chain 3-tier, outputs verified)");
  }
#endif

  // Boot-time configuration traffic: shard kConfig (each node's own layers) vs
  // the weights-elided form against bundle-booted workers.
  std::vector<ConfigRow> config_rows;
#ifdef D3_NODE_BINARY
  try {
    config_rows = measure_config_bytes();
    util::Table ctable({"kConfig form", "config KB (3 nodes)"});
    for (const ConfigRow& r : config_rows)
      ctable.row().cell(r.form).cell(static_cast<double>(r.config_bytes) / 1024.0);
    ctable.print(std::cout,
                 "boot-time configuration traffic: O(tier) weight shards vs the "
                 "O(1) elided form on d3c-bundle-booted workers (outputs verified)");
  } catch (const std::exception& e) {
    std::cerr << "note: config-bytes mode skipped (" << e.what() << ")\n";
  }
#endif

  std::ofstream json("BENCH_transport.json");
  json << "{\n  \"bench\": \"transport_overhead\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"plan\": \"" << r.plan << "\", \"transport\": \"" << r.transport
         << "\", \"infer_ms\": " << r.seconds * 1e3
         << ", \"boundary_bytes\": " << r.boundary_bytes
         << ", \"overhead_us\": " << r.overhead_us << ", \"us_per_mb\": " << r.us_per_mb
         << ", \"relay_bytes\": " << r.relay_bytes << ", \"peer_bytes\": " << r.peer_bytes
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"recovery\": [\n";
  for (std::size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryRow& r = recovery[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"interrupted_request_ms\": " << r.seconds * 1e3
         << ", \"recovery_bytes\": " << r.bytes << "}" << (i + 1 < recovery.size() ? "," : "")
         << "\n";
  }
  json << "  ],\n  \"config\": [\n";
  for (std::size_t i = 0; i < config_rows.size(); ++i) {
    const ConfigRow& r = config_rows[i];
    json << "    {\"form\": \"" << r.form << "\", \"config_bytes\": " << r.config_bytes << "}"
         << (i + 1 < config_rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  bench::paper_note(
      "The loopback-vs-in-process delta is pure serialization cost; socket adds "
      "framing + TCP. socket+peer moves the relay KB column to peer KB: those "
      "bytes flow worker -> worker and never cross the coordinator. The recovery "
      "table is the failure story: the same mid-tier SIGKILL finished by an "
      "end-to-end replay vs tier-granular migration (reopen + re-seed + re-run "
      "one tier) — migration re-moves only the interrupted tier's inputs. The "
      "coordinator-failover rows interrupt the *coordinator* instead: a standby "
      "replays the request journal and resumes the snapshot, re-seeding the "
      "interrupted tier's boundary through the coordinator on a star — or, with "
      "peer channels, having the producer push it worker -> worker for zero "
      "re-moved bytes. The promotion row automates the whole takeover: a "
      "StandbyCoordinator misses the dead beacon's heartbeats, redials the "
      "workers at a higher fencing epoch, links their peer channels and resumes "
      "unattended, so its latency includes the detection window itself. "
      "Compare us/MB here with the per-frame boundary traffic of "
      "bench_fig13_comm_overhead and with Options::emulated_tier_service_seconds "
      "when emulating remote tiers on one host.");
  return 0;
}
