// Worker side of the socket transport: the body of the d3_node binary.
//
// A node process is a passive responder driven by an epoll loop (rpc::Poller)
// over three fd classes: the coordinator connection, the node's peer listener,
// and any inbound peer channels. Once it holds a deployment bundle — from a
// --bundle boot or a kConfig: the model name (resolved against the shared
// zoo), the weight shard of exactly the layers it runs, the deployment plan and
// its pool width — it holds per-request slot state (slot 0 = raw input, slot
// i+1 = layer i's output, plus per-tile VSM state for edge fan-out workers) and
// answers the coordinator's kPut / kRunLayer / kRunStack / kGet / kPutTile /
// kRunTile / kGetTile / kEnd requests until EOF or kShutdown.
//
// Peer channels (kPeerListen / kConnectPeer / kPushPeer) let a node ship a
// boundary tensor straight to the next tier's node: the coordinator still
// sequences every transfer (it sends kPushPeer and waits for the kOk), but
// the payload bytes flow worker -> worker, never through the coordinator.
// While waiting for a push acknowledgement a node keeps servicing its own
// inbound peer channels, so two nodes pushing to each other concurrently
// (pipelined requests crossing a boundary in both directions) cannot
// deadlock. All transcript recording stays with the coordinating engine — the
// worker only stores tensors and runs kernels, which is why transcripts are
// identical on every transport. docs/PROTOCOL.md is the full wire spec.
#pragma once

#include <cstdint>

#include "rpc/socket.h"

namespace d3::core {
struct DeploymentBundle;
}

namespace d3::rpc {

inline constexpr std::uint64_t kNeverCrash = ~std::uint64_t{0};

struct ServeOptions {
  // Deterministic crash injection for recovery tests: serve exactly this many
  // coordinator frames, then exit the process abruptly (no reply, no teardown)
  // when the next one arrives — indistinguishable from a SIGKILL at that exact
  // protocol point. kNeverCrash disables. d3_node exposes it as --crash-after.
  std::uint64_t crash_after_frames = kNeverCrash;
  // Emulated per-request service latency (seconds) added to each kRunLayer /
  // kRunStack — stands in for a slower remote machine's compute so overlap
  // benches measure wire-wait hiding on hosts where the real kernels are too
  // fast to matter. Cheap verbs (kPut/kGet/...) stay fast, mirroring how real
  // service time concentrates in the compute calls. d3_node: --service-ms.
  double service_seconds = 0.0;
  // AOT boot (d3_node --bundle): the node comes up already configured from
  // this d3c deployment bundle — installed exactly like a kConfig's — before
  // the first coordinator frame, so a coordinator may elide the weight shard
  // from its kConfig. Must outlive the serve call. nullptr = the node waits
  // for a kConfig.
  const core::DeploymentBundle* bundle = nullptr;
};

// Serves one coordinator connection on `fd` until clean EOF or kShutdown.
// Handler failures (unknown model, missing input slot, malformed body) are
// reported to the coordinator as kError replies and the loop continues;
// references to per-request state this worker incarnation never saw (it was
// respawned after a death) are reported as kErrorState so the coordinator can
// rebuild exactly that state; protocol-level failures (bad frame magic,
// mid-frame EOF) throw SocketError.
void serve_node(int fd, const ServeOptions& options = {});

// Listen-mode worker (d3_node --listen): serves any number of concurrent
// coordinator connections accepted from `listener`, with ONE persistent node
// state across them — per-request slots, buddy replicas, and peer channels
// all survive a coordinator that hangs up or dies mid-conversation. That is
// what makes coordinator failover work: a standby coordinator dials the same
// worker, replays kConfig (idempotent — an identical config keeps the state),
// and resumes journalled requests against the slots the previous coordinator
// already seeded. Concurrent coordinators are disambiguated by the fencing
// epoch their kConfig carried: every verb from a connection whose epoch is
// below the worker-wide maximum is answered kFenced before any state
// mutation, so a deposed coordinator can never race its successor
// (PROTOCOL.md, "Fencing epochs"). Returns on kShutdown from a live-epoch
// coordinator; a coordinator EOF or socket failure just returns the
// connection to the poll set.
void serve_listen_node(const Socket& listener, const ServeOptions& options = {});

}  // namespace d3::rpc
