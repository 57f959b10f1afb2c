// Pluggable message-channel abstraction between the online engine's
// computation nodes (paper Fig. 2: device node, edge coordinator + workers,
// cloud node).
//
// The engine stays the single orchestrator: it walks the plan, records the
// transcript, and calls the transport at every point where a tensor crosses a
// node boundary or a layer executes on a node it does not host. Because the
// transcript is a pure function of the plan (never of the payload bytes), all
// transports produce byte-identical transcripts, and the lossless invariant —
// distributed output bitwise-equal to exec::Executor — is checked on every one:
//
//   * InProcessTransport    — every node shares the coordinator's address
//                             space; tensors pass by reference (zero-copy,
//                             exactly the pre-transport engine behaviour).
//   * SerializingLoopback   — nodes still share the address space, but every
//                             inter-node tensor round-trips through
//                             encode_envelope/decode_envelope, proving
//                             losslessness survives the wire format.
//   * SocketTransport       — nodes are separate OS processes (the d3_node
//                             worker binary) reached over localhost TCP; see
//                             socket_transport.h.
//
// Slot addressing: slot 0 holds the raw network input, slot i+1 holds layer
// i's output — the same indexing as the engine's per-request `sent` table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"
#include "runtime/message.h"

namespace d3::rpc {

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error("rpc: " + what) {}
};

// A node lost its per-request state mid-call: either its channel died (the
// worker process is gone, possibly already respawned — see
// SocketTransport::set_reconnect) or a fresh worker incarnation answered
// kErrorState because it never saw this request's history. Distinct from plain
// TransportError so recovery outcomes are never mistaken for retryable
// per-call failures. Carries what the engine's tier-granular recovery needs:
// which node lost its state, and whether the channel is serviceable again
// (reconnect + kConfig replay succeeded), in which case the engine can reopen
// the request on the node, re-seed the lost slots from coordinator-held
// boundary tensors, and re-run only the interrupted tier.
class ChannelDied : public TransportError {
 public:
  ChannelDied(std::string node, bool channel_restored, const std::string& what)
      : TransportError(what), node_(std::move(node)), restored_(channel_restored) {}

  // The computation node whose per-request state is gone ("device0", a tile
  // worker "edge3", ...). Empty when unknown.
  const std::string& node() const { return node_; }
  // True when the node's channel is healthy again (fresh process, kConfig
  // replayed) and only the per-request state needs rebuilding.
  bool channel_restored() const { return restored_; }

 private:
  std::string node_;
  bool restored_ = false;
};

// A worker rejected a verb because this coordinator's fencing epoch is stale:
// a successor coordinator (higher incarnation number in its kConfig) already
// owns the worker, and every frame from the deposed incarnation is answered
// kFenced before any state mutation. Deliberately NOT a ChannelDied — the
// channel is healthy and the worker state intact; there is nothing to recover
// here. The deposed coordinator must stop driving these workers, so the error
// propagates out of the engine's recovery machinery to its caller.
class Fenced : public TransportError {
 public:
  Fenced(std::string node, std::uint64_t epoch)
      : TransportError("coordinator fenced by node " + node + ": a successor holds epoch " +
                       std::to_string(epoch)),
        node_(std::move(node)),
        epoch_(epoch) {}

  // The worker that rejected the frame.
  const std::string& node() const { return node_; }
  // The highest incarnation number the worker has seen (the successor's).
  std::uint64_t epoch() const { return epoch_; }

 private:
  std::string node_;
  std::uint64_t epoch_ = 0;
};

// A worker rejected a weights-elided kConfig because the weights hash it holds
// (from its boot bundle or an earlier kConfig) is not the hash the
// coordinator named: coordinator and worker disagree about the deployed model
// version. Rejected before any state mutation, and — like Fenced — NOT a
// ChannelDied: the channel is healthy and there is nothing to recover. Version
// skew is an operator problem (recompile/redistribute the bundles), so the
// error propagates out of the engine's recovery machinery to its caller.
class BundleMismatch : public TransportError {
 public:
  BundleMismatch(std::string node, std::uint64_t worker_hash, std::uint64_t wanted_hash)
      : TransportError("node " + node + " holds weights hash " +
                       std::to_string(worker_hash) + ", coordinator expected " +
                       std::to_string(wanted_hash) +
                       " (stale deployment bundle? recompile with d3c)"),
        node_(std::move(node)),
        worker_hash_(worker_hash),
        wanted_hash_(wanted_hash) {}

  const std::string& node() const { return node_; }
  // The hash the worker holds (0 = it was never configured at all).
  std::uint64_t worker_hash() const { return worker_hash_; }
  std::uint64_t wanted_hash() const { return wanted_hash_; }

 private:
  std::string node_;
  std::uint64_t worker_hash_ = 0;
  std::uint64_t wanted_hash_ = 0;
};

// Tile scatter/gather messages are intra-edge and not slot-addressed; they
// carry this sentinel so a transport never files them in a node's slot table.
inline constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::string name() const = 0;

  // Per-request lifecycle: remote transports allocate (and free) per-request
  // slot state on every node. close_request must be idempotent and must not
  // throw — it runs on request teardown paths.
  virtual std::uint64_t open_request() = 0;
  virtual void close_request(std::uint64_t request) noexcept = 0;

  // Re-opens a *specific* request id after a coordinator failover: the standby
  // replays the journalled id so the workers' surviving per-request state
  // (idempotent kBegin never wipes slots) lines up with the restored engine
  // state. Transports that allocate ids must also advance their counter past
  // `request` so fresh requests never collide with restored ones. The base
  // implementation throws — only transports with per-node request state can
  // meaningfully resume one.
  virtual void open_request_as(std::uint64_t request);

  // Places a coordinator-held tensor at `node` under `slot` with no message
  // semantics — used for the raw input on the device node, which never crosses
  // a tier boundary. No-op for address-space-sharing transports.
  virtual void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
                    const dnn::Tensor& tensor);

  // Ships `tensor` from meta.from_node to meta.to_node under `slot` (kNoSlot
  // for VSM tile traffic). Consumers compute on the coordinator's own tensor,
  // so every transport returns nullopt (SerializingLoopback checks its round
  // trip in place); the optional return stays only because bench/e2e's
  // TimedTransport overrides this signature.
  virtual std::optional<dnn::Tensor> send(std::uint64_t request,
                                          const runtime::MessageRecord& meta,
                                          std::uint64_t slot, const dnn::Tensor& tensor) = 0;

  // Runs layer `layer` / the VSM fused-tile stack on `node`, reading and
  // writing that node's slots. Returns false when `node` is hosted in the
  // coordinator's process — the engine then computes locally.
  virtual bool run_layer(std::uint64_t request, const std::string& node, dnn::LayerId layer);
  virtual bool run_stack(std::uint64_t request, const std::string& node);

  // Fetches `slot` back from `node` into the coordinator. Only meaningful for
  // transports hosting `node` remotely; the base implementation throws.
  virtual dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                            std::uint64_t slot);

  // --- Asynchronous facade (issue/complete pairs) ---------------------------
  //
  // The blocking verbs above are round-trips: the caller's thread idles for
  // the full wire wait. The issue_* forms split each verb into an *issue*
  // (request written — or queued for a pipelined flush — and an OpHandle
  // returned) and a *completion* (the handle polled or waited on). The
  // engine's tier walk issues a whole tier's verbs this way; a blocking
  // caller then waits on the handles, while an event-driven one
  // (OnlineEngine::step_async under ServingReactor readiness dispatch) parks
  // the request on them and keeps every other channel busy meanwhile.
  //
  // Contract:
  //   * An *invalid* (default-constructed) handle means the verb was not
  //     handled remotely — the same signal as run_layer() returning false —
  //     and the caller proceeds locally. issue_seed/issue_send on a non-remote
  //     node return a completed no-op handle instead (their blocking forms are
  //     no-ops there, not local-fallback signals).
  //   * Issue-time failures (dead channel detected while writing) throw
  //     exactly like the blocking verb. *Completion* failures are stored in
  //     the handle — poll() still returns true and error() carries the
  //     exception (ChannelDied for a died channel, TransportError for a
  //     worker-reported failure) — so one died channel fails its ops without
  //     unwinding the caller mid-settle.
  //   * Per channel, replies complete strictly in issue order (the worker
  //     serve loop is serial); any thread draining a channel completes
  //     whatever op is at the front of its queue, so blocking and issued
  //     calls interleave safely on one channel.
  //
  // The base implementations run the blocking verb immediately (dispatched
  // through `this`) and return an already-completed handle, so
  // InProcessTransport, SerializingLoopback and decorators that override only
  // the blocking verbs (FaultInjectionTransport, bench/e2e's TimedTransport)
  // keep their exact semantics and see every op the engine issues: its one
  // tier walk settles each op at issue there, as a plain sequence of
  // blocking calls. A transport with a real async path (SocketTransport)
  // implements each verb once, as its issue_* form, and the blocking verb
  // awaits it.

  // One outstanding issued operation. Completion state is owned by the
  // transport; the handle is a shared view.
  class AsyncOp {
   public:
    virtual ~AsyncOp() = default;
    // Non-blocking: flushes any queued request bytes, drains whatever replies
    // are ready, and returns true when this op has completed (possibly with a
    // stored error).
    virtual bool poll() = 0;
    // Blocks until completed (never throws; errors land in `error`).
    virtual void wait() = 0;
    // True when the op has already been observed complete — no syscalls, so
    // event loops may sweep many handles cheaply (a reply may be drained by
    // any thread servicing the channel, not just this op's waiter).
    virtual bool settled() const { return true; }
    // The fd whose readability signals progress (-1 when completion is
    // immediate). Calling fd() flushes queued request bytes first: a caller
    // about to sleep on readability must have the request on the wire.
    virtual int fd() { return -1; }

    // Valid once completed:
    std::exception_ptr error;            // null = success
    std::optional<dnn::Tensor> tensor;   // issue_fetch / issue_fetch_tile result
    std::uint64_t bytes = 0;             // payload bytes the op moved
  };

  // Value-semantic wrapper: invalid (default) = "not handled remotely".
  class OpHandle {
   public:
    OpHandle() = default;
    explicit OpHandle(std::shared_ptr<AsyncOp> op) : op_(std::move(op)) {}
    bool valid() const { return op_ != nullptr; }
    explicit operator bool() const { return valid(); }
    bool poll() { return op_->poll(); }
    void wait() { op_->wait(); }
    bool settled() const { return op_->settled(); }
    int fd() { return op_->fd(); }
    const std::exception_ptr& error() const { return op_->error; }
    void rethrow() const {
      if (op_->error) std::rethrow_exception(op_->error);
    }
    std::optional<dnn::Tensor>& tensor() { return op_->tensor; }
    std::uint64_t bytes() const { return op_->bytes; }

   private:
    std::shared_ptr<AsyncOp> op_;
  };

  virtual OpHandle issue_seed(std::uint64_t request, const std::string& node,
                              std::uint64_t slot, const dnn::Tensor& tensor);
  virtual OpHandle issue_send(std::uint64_t request, const runtime::MessageRecord& meta,
                              std::uint64_t slot, const dnn::Tensor& tensor);
  virtual OpHandle issue_run_layer(std::uint64_t request, const std::string& node,
                                   dnn::LayerId layer);
  virtual OpHandle issue_run_stack(std::uint64_t request, const std::string& node);
  virtual OpHandle issue_fetch(std::uint64_t request, const std::string& node,
                               std::uint64_t slot);
  virtual OpHandle issue_put_tile(std::uint64_t request, const runtime::MessageRecord& meta,
                                  std::size_t tile, const dnn::Tensor& input);
  virtual OpHandle issue_run_tile(std::uint64_t request, std::size_t tile);
  virtual OpHandle issue_fetch_tile(std::uint64_t request, std::size_t tile);

  // Async admission: allocates a request id and *issues* the per-node kBegin
  // round-trips, appending one handle per remote node to `ops`. The request id
  // is usable immediately — per-channel FIFO ordering guarantees any verb
  // issued afterwards lands behind its node's kBegin — but the caller must
  // settle every handle (and check errors) before trusting the request is
  // open everywhere. The base implementation is the blocking open_request()
  // and appends nothing.
  virtual std::uint64_t issue_open_request(std::vector<OpHandle>& ops);

  // --- Mid-request recovery -------------------------------------------------
  //
  // Re-opens `request`'s slot state on `node` after ChannelDied reported the
  // node's per-request state lost but the channel restored. Returns true when
  // the node is hosted remotely (the request was re-begun and payload bytes
  // re-seeded into it will really cross a wire); false when the node lives in
  // the coordinator's process and there is nothing to rebuild. The engine uses
  // the return value to keep Stats::recovery_bytes an honest count of bytes
  // actually re-moved.
  virtual bool reopen(std::uint64_t request, const std::string& node);

  // Drops tile workers whose channel died with no way back (no reconnect hook)
  // from the shard map, so the surviving workers absorb their tiles on the
  // next run of the interrupted tier. Returns the number of workers removed.
  virtual std::size_t prune_tile_workers() { return 0; }

  // --- Peer-to-peer channels ------------------------------------------------
  //
  // Attempts to ship meta's tensor *directly* from the producer's node to the
  // consumer's node over a peer channel, bypassing the coordinator entirely
  // (the producer already holds `slot`; the coordinator never sees the bytes).
  // Returns true when the transfer happened peer-to-peer; false when no such
  // channel exists and the caller must relay via fetch() + send(). The base
  // implementation (and every address-space-sharing transport) returns false.
  virtual bool send_peer(std::uint64_t request, const runtime::MessageRecord& meta,
                         std::uint64_t slot);

  // Retired: the buddy replica store it delivered from is gone, and nothing
  // calls it (a taken-over request re-delivers over peer channels). It stays,
  // always false, only while bench/e2e's TimedTransport still overrides it.
  virtual bool replica_push(std::uint64_t, const runtime::MessageRecord&, std::uint64_t) {
    return false;
  }

  // --- Proactive failure detection (heartbeats) -----------------------------
  //
  // A transport with live channels may support liveness probing: ping() runs
  // one kPing/kPong round-trip against `node`, throwing ChannelDied once the
  // configured missed-beat threshold is crossed (after attempting reconnect
  // under the node's RetryPolicy, exactly like a failed send). The base
  // implementation is a no-op — in-process nodes cannot silently die.
  virtual void ping(const std::string& node);
  // Nodes whose heartbeat is due now (interval elapsed since the last
  // confirmed liveness signal). Empty when heartbeats are disabled.
  virtual std::vector<std::string> heartbeat_targets();
  // Milliseconds until the next heartbeat anywhere falls due; -1 when
  // heartbeats are disabled (event loops fold this into their idle timeout).
  virtual int heartbeat_due_ms();
  // Convenience driver for event loops: pings every due node. ChannelDied
  // propagates per node — the caller decides whether detection-before-send is
  // fatal or merely recorded. Non-virtual: decorators intercept via ping().
  void heartbeat_poll();

  // --- Edge fan-out (multi-worker VSM tile sharding) ------------------------
  //
  // True when the VSM edge tier is served by remote tile-worker processes
  // ("edge1".."edgeN"): the engine's tier walk then issues each tile's crop,
  // run and fetch (issue_put_tile/issue_run_tile/issue_fetch_tile) on the
  // serving worker's channel, instead of computing tiles locally or
  // delegating the whole stack to run_stack. The transport owns the tile ->
  // physical-worker shard map (tile % tile_worker_count); the transcript
  // keeps naming the *virtual* per-tile nodes, so it stays a pure function
  // of the plan. Base implementations: no workers / throw.
  virtual bool has_tile_workers() const { return false; }
  virtual std::size_t tile_worker_count() const { return 0; }
  // Physical worker node serving `tile` under the current shard map; "" when
  // tiles are not sharded across workers.
  virtual std::string tile_node(std::size_t tile) const;
  virtual void put_tile(std::uint64_t request, const runtime::MessageRecord& meta,
                        std::size_t tile, const dnn::Tensor& input);
  virtual void run_tile(std::uint64_t request, std::size_t tile);
  virtual dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile);
};

// Zero-copy transport: preserves the original in-process engine behaviour (and
// its benchmarks) exactly — send() is pure bookkeeping, every consumer reads
// the producer's tensor by reference.
class InProcessTransport final : public Transport {
 public:
  std::string name() const override { return "in-process"; }
  std::uint64_t open_request() override { return next_.fetch_add(1); }
  // Failover resume: in-process transports keep no per-request slot state
  // (the engine holds the tensors), so re-claiming a dead coordinator's id
  // only has to keep the counter strictly above it for fresh requests.
  void open_request_as(std::uint64_t request) override {
    std::uint64_t next = next_.load();
    while (next <= request && !next_.compare_exchange_weak(next, request + 1)) {
    }
  }
  void close_request(std::uint64_t) noexcept override {}
  std::optional<dnn::Tensor> send(std::uint64_t, const runtime::MessageRecord&, std::uint64_t,
                                  const dnn::Tensor&) override {
    return std::nullopt;
  }

 private:
  std::atomic<std::uint64_t> next_{1};
};

// Every inter-node tensor round-trips encode_envelope -> decode_envelope ->
// decode_tensor and must come back bit for bit (else TransportError): one
// engine run on this transport proves the inference survives the wire format
// losslessly. Thread-safe (stats are atomics); one instance may serve any
// number of concurrent engine requests.
class SerializingLoopback final : public Transport {
 public:
  struct Stats {
    std::uint64_t messages = 0;       // envelopes round-tripped
    std::uint64_t payload_bytes = 0;  // encoded tensor bytes inside envelopes
    std::uint64_t wire_bytes = 0;     // full framed envelope bytes
  };

  std::string name() const override { return "serializing-loopback"; }
  std::uint64_t open_request() override { return next_.fetch_add(1); }
  // Same resume contract as InProcessTransport: nothing to re-open beyond
  // advancing the id counter past the resumed request.
  void open_request_as(std::uint64_t request) override {
    std::uint64_t next = next_.load();
    while (next <= request && !next_.compare_exchange_weak(next, request + 1)) {
    }
  }
  void close_request(std::uint64_t) noexcept override {}
  std::optional<dnn::Tensor> send(std::uint64_t request, const runtime::MessageRecord& meta,
                                  std::uint64_t slot, const dnn::Tensor& tensor) override;

  Stats stats() const {
    return {messages_.load(), payload_bytes_.load(), wire_bytes_.load()};
  }

 private:
  std::atomic<std::uint64_t> next_{1};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
};

}  // namespace d3::rpc
