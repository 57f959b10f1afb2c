// Deterministic fault injection for the distributed runtime's recovery paths.
//
// FaultInjectionTransport is a decorator over any rpc::Transport: every engine
// -> transport call is counted as one *op* (kind + target node) against a
// scripted fault plan, and when a scheduled fault's trigger matches — "before
// the Nth op of kind K targeting node X" — its action fires:
//
//   * kKill      — invoke the registered kill handler (the test SIGKILLs the
//                  worker process) and then perform the op, which hits the
//                  dead channel: the exact failure a real mid-request death
//                  produces, at an exactly reproducible protocol point.
//   * kFail      — throw rpc::ChannelDied(node, restored=true) without
//                  touching the wrapped transport: a synthetic state-loss
//                  signal that exercises the engine's recovery machinery on
//                  in-process transports, where nothing can really die.
//   * kDelay     — sleep, then perform the op (reordering/latency probe; must
//                  never change outputs or transcripts).
//   * kDuplicate — perform the op twice (pins idempotence: a duplicated
//                  kPut/seed/kBegin must be byte-for-byte harmless).
//
// Because the engine's op sequence is a pure function of the plan (the same
// invariant that makes transcripts byte-identical), the op counters — and
// therefore the fault points — are deterministic run to run. The sweep in
// tests/fault_injection_test.cpp walks kill points across every message kind
// and every tier; docs/PROTOCOL.md documents the semantics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rpc/transport.h"

namespace d3::rpc {

class FaultInjectionTransport final : public Transport {
 public:
  // One op kind per Transport entry point, named after the wire message the
  // socket transport emits for it (docs/PROTOCOL.md).
  enum class Op {
    kBegin,      // open_request / reopen        -> kBegin frames
    kEnd,        // close_request                -> kEnd frames
    kPut,        // seed + send                  -> kPut frames
    kRunLayer,   // run_layer                    -> kRunLayer
    kRunStack,   // run_stack                    -> kRunStack
    kGet,        // fetch                        -> kGet
    kPushPeer,   // send_peer                    -> kPushPeer
    kPutTile,    // put_tile                     -> kPutTile
    kRunTile,    // run_tile                     -> kRunTile
    kGetTile,    // fetch_tile                   -> kGetTile
    // Ops below are emitted by SocketTransport internals rather than 1:1
    // Transport entry points; a socket inner transport reports them through
    // its op observer so kill points can target the handshake sub-steps of
    // connect_peers().
    kPeerListen,   // peer-listener open leg of link_peers -> kPeerListen
    kConnectPeer,  // dialling leg of link_peers           -> kConnectPeer
    kPeerHello,    // window between the two legs: the worker-side handshake
    kPing,         // liveness probe round-trip            -> kPing
    kAny,          // matches every op (script wildcards only)
  };

  enum class Action { kKill, kFail, kDelay, kDuplicate };

  struct Fault {
    Op op = Op::kAny;
    std::string node;       // "" matches any node
    std::uint64_t nth = 1;  // fire before the Nth matching op (1-based)
    Action action = Action::kKill;
    std::chrono::milliseconds delay{0};  // kDelay only
    // kKill only: the node handed to the kill handler. "" = the matched op's
    // own target; set it to kill a *different* node at this protocol point
    // (e.g. kill the consumer right before the producer's kPushPeer).
    std::string kill_node;
  };

  struct Stats {
    std::uint64_t ops = 0;              // transport calls observed
    std::uint64_t faults_injected = 0;  // scheduled faults that fired
    std::uint64_t kills = 0;
    std::uint64_t synthetic_failures = 0;
    std::uint64_t delays = 0;
    std::uint64_t duplicates = 0;
  };

  // Wrapping a SocketTransport also installs an op observer on it, so the
  // socket-internal ops (kPeerListen/kConnectPeer/kPeerHello) hit the same
  // fault plan as the Transport entry points — a scripted kKill on
  // Op::kConnectPeer fires right before the dialling leg goes out.
  explicit FaultInjectionTransport(std::shared_ptr<Transport> inner);

  // Registers the process-killer the kKill action invokes with the target
  // node's name (tests pass a lambda that SIGKILLs the worker).
  void set_kill_handler(std::function<void(const std::string&)> handler);
  // Adds one scripted fault. Faults are independent; each fires at most once.
  void schedule(Fault fault);

  // Ops observed so far for (op, node); node "" sums over all nodes. Lets
  // tests pin exact execution counts (e.g. "every layer ran exactly once").
  std::uint64_t op_count(Op op, const std::string& node = "") const;
  Stats stats() const;

  // --- Transport interface: count the op, maybe fault, forward to inner ----
  std::string name() const override { return "fault(" + inner_->name() + ")"; }
  std::uint64_t open_request() override;
  void close_request(std::uint64_t request) noexcept override;
  void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
            const dnn::Tensor& tensor) override;
  std::optional<dnn::Tensor> send(std::uint64_t request, const runtime::MessageRecord& meta,
                                  std::uint64_t slot, const dnn::Tensor& tensor) override;
  bool run_layer(std::uint64_t request, const std::string& node, dnn::LayerId layer) override;
  bool run_stack(std::uint64_t request, const std::string& node) override;
  dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                    std::uint64_t slot) override;
  bool send_peer(std::uint64_t request, const runtime::MessageRecord& meta,
                 std::uint64_t slot) override;
  bool reopen(std::uint64_t request, const std::string& node) override;
  void open_request_as(std::uint64_t request) override;
  void ping(const std::string& node) override;
  std::vector<std::string> heartbeat_targets() override { return inner_->heartbeat_targets(); }
  int heartbeat_due_ms() override { return inner_->heartbeat_due_ms(); }
  std::size_t prune_tile_workers() override { return inner_->prune_tile_workers(); }
  bool has_tile_workers() const override { return inner_->has_tile_workers(); }
  std::size_t tile_worker_count() const override { return inner_->tile_worker_count(); }
  std::string tile_node(std::size_t tile) const override { return inner_->tile_node(tile); }
  void put_tile(std::uint64_t request, const runtime::MessageRecord& meta, std::size_t tile,
                const dnn::Tensor& input) override;
  void run_tile(std::uint64_t request, std::size_t tile) override;
  dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile) override;

 private:
  struct Scheduled {
    Fault fault;
    std::uint64_t seen = 0;  // matching ops observed so far
    bool fired = false;
  };

  // Counts the op, fires due faults (kill/delay happen here; kFail throws),
  // and reports whether the op should run twice (kDuplicate).
  bool enter(Op op, const std::string& node);

  std::shared_ptr<Transport> inner_;
  std::function<void(const std::string&)> kill_;
  mutable std::mutex mutex_;
  std::vector<Scheduled> plan_;
  std::map<std::pair<Op, std::string>, std::uint64_t> counts_;
  Stats stats_;
};

}  // namespace d3::rpc
