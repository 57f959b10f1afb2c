// Coordinator side of the multi-process transport: each attached node is a
// d3_node worker process reached over one TCP connection.
//
// Three topologies compose freely (docs/ARCHITECTURE.md has diagrams):
//
//   * Star (PR 3): every inter-node tensor is recorded once (producer ->
//     consumer) in the transcript but physically relayed coordinator ->
//     consumer. Simple, strictly request/response.
//   * Peer-to-peer (connect_peers): attached tier nodes hold direct channels;
//     a boundary tensor is pushed producer -> consumer by kPushPeer and the
//     coordinator never touches the bytes (Stats::relay_bytes drops to zero).
//   * Edge fan-out (add_tile_worker): the VSM tile plan is sharded across N
//     real "edge1".."edgeN" worker processes (tile -> worker = tile mod N);
//     the engine issues every tile's crop, run and fetch as pipelined ops and
//     assembles the outputs in tile order, so results stay bitwise-identical.
//
// Nodes that are not attached (mixed deployments) fall back to in-process
// hosting automatically. Worker death mid-request surfaces as ChannelDied,
// naming the node; with set_reconnect the transport re-establishes the channel
// (respawn + kConfig replay) under bounded backoff first, and a fresh worker
// incarnation answers unknown-state references with kErrorState — both feed
// the engine's tier-granular recovery (reopen + re-seed + re-run one tier).
// Tile workers that die with no reconnect hook are pruned from the shard map
// (prune_tile_workers) so the survivors absorb their tiles.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <sys/types.h>
#include <vector>

#include "exec/weights.h"
#include "rpc/socket.h"
#include "rpc/transport.h"

namespace d3::rpc {

class SocketTransport final : public Transport {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;
    // Encoded tensor bytes the coordinator pushed to workers (seeds, relays,
    // tile scatters).
    std::uint64_t payload_bytes_sent = 0;
    // Subset of payload_bytes_sent where the producer was itself a remote
    // node: the coordinator relayed bytes it neither produced nor consumed.
    // Peer-to-peer channels exist to drive this to zero.
    std::uint64_t relay_bytes = 0;
    // Encoded tensor bytes the coordinator pulled back (boundary relays,
    // final outputs, tile gathers).
    std::uint64_t payload_bytes_fetched = 0;
    // Direct worker -> worker pushes: count and encoded tensor bytes. These
    // bytes never cross the coordinator.
    std::uint64_t peer_pushes = 0;
    std::uint64_t peer_bytes = 0;
    // Channels re-established after a worker death.
    std::uint64_t reconnects = 0;
    // Requests re-begun on a recovered node (tier-granular recovery).
    std::uint64_t reopens = 0;
    // Tile workers dropped from the shard map because their channel died with
    // no reconnect hook (survivors absorb their tiles).
    std::uint64_t detached_workers = 0;
    // Pruned tile workers returned to the shard map after a late set_reconnect
    // (fresh incarnation dialled, kConfig replayed, shard slot restored).
    std::uint64_t readmitted_workers = 0;
    // Liveness probes sent (kPing) and channels declared dead by the
    // missed-beat threshold before any request send touched them.
    std::uint64_t pings = 0;
    std::uint64_t heartbeat_deaths = 0;
    // Flushes that pushed more than one queued frame in a single write: the
    // issue_* facade batches a tier's independent sends into one outbox and
    // this counts how often the wire actually saw them coalesced.
    std::uint64_t pipelined_sends = 0;
    // kConfig body bytes configure() sent across all nodes (cumulative over
    // calls): each node's own shard of the model, or O(1) per node when the
    // weights are elided — the bundle-boot saving, measured.
    std::uint64_t config_bytes_sent = 0;
  };

  // Bounded-backoff policy for re-establishing a dead worker's channel.
  struct RetryPolicy {
    int max_attempts = 3;
    std::chrono::milliseconds initial_backoff{50};
    double backoff_multiplier = 2.0;
  };

  // Produces a fresh connected socket for a node whose channel died —
  // typically by respawning a WorkerProcess and taking its socket.
  using ReconnectFn = std::function<Socket()>;

  // Proactive liveness detection. Every `interval` per channel the transport
  // (driven by heartbeat_poll(), typically from the serving reactor's idle
  // branch) sends a kPing and waits up to `timeout` for the kPong;
  // `miss_threshold` consecutive unanswered probes declare the channel dead
  // and raise ChannelDied through the normal recovery path — *before* the
  // next request send would have tripped over the corpse.
  struct HeartbeatPolicy {
    std::chrono::milliseconds interval{100};
    std::chrono::milliseconds timeout{50};
    int miss_threshold = 3;
  };

  // Observes coordinator-side protocol sends that carry no Transport virtual
  // of their own (the peer handshake legs), so a decorator like
  // FaultInjectionTransport can count and fault them. Invoked with the
  // message kind and the node the frame is sent to (kConnectPeer: the
  // dialling node) immediately before the frame goes out; an exception thrown
  // by the observer propagates exactly like a send failure at that point.
  // Install before traffic starts — the hook is not guarded by a lock.
  using OpObserver = std::function<void(MsgKind, const std::string&)>;
  void set_op_observer(OpObserver observer) { op_observer_ = std::move(observer); }

  // Attaches a connected worker as computation node `node` ("device0",
  // "edge0", "cloud0"). Call configure() once after all nodes are attached.
  void add_node(const std::string& node, Socket socket);
  // Attaches a worker as one shard of the VSM edge pool. Workers are named
  // "edge1".."edgeN" in attachment order; tile t runs on worker t mod N. Tile
  // fan-out engages only while "edge0" itself is *not* attached (the engine
  // then acts as the edge coordinator: it crops, scatters and reassembles).
  void add_tile_worker(Socket socket);
  bool attached(const std::string& node) const { return nodes_.count(node) > 0; }

  // Sends every attached node its own deployment bundle (core::compile_bundle)
  // in kConfig — model name, the plan in binary wire form, the edge pool width
  // and the shard of exactly the layers that node runs — and caches it for
  // kConfig replay on reconnect. Throws TransportError if any worker rejects
  // it.
  void configure(const std::string& model_name, const dnn::Network& net,
                 const exec::WeightStore& weights, std::span<const std::uint8_t> plan_binary,
                 std::size_t vsm_workers);

  // Establishes direct peer channels between every ordered pair of attached
  // tier nodes (kPeerListen on the receiver, kConnectPeer on the sender).
  // After this, send_peer pushes boundary tensors producer -> consumer
  // directly; a channel lost to a worker death is re-established lazily on
  // the next push. Call after configure().
  void connect_peers();

  // Overrides the address peers are told to dial to reach `node`. By default
  // the handshake advertises the coordinator-observed address of the node's
  // own channel (getpeername), which is correct whenever workers share the
  // coordinator's network; NAT'd or multi-homed deployments can pin a better
  // one here before connect_peers().
  void set_advertised_address(const std::string& node, std::string address);

  // Registers the reconnect hook for `node`: on a dead channel the transport
  // retries fn() under `policy`'s bounded backoff, replays kConfig, and then
  // surfaces the interrupted call as TransportError (per-request worker state
  // died with the process, so the request must be replayed — the transcript
  // is a pure function of the plan, so a replay is byte-identical).
  //
  // Called on a tile worker already pruned from the shard map, this instead
  // re-admits it: fn() is dialled immediately, kConfig replayed, and the
  // worker returns to its deterministic shard position — so a late-arriving
  // reconnect hook undoes a prune instead of being rejected.
  void set_reconnect(const std::string& node, ReconnectFn fn, RetryPolicy policy);
  void set_reconnect(const std::string& node, ReconnectFn fn) {
    set_reconnect(node, std::move(fn), RetryPolicy());
  }

  // Arms proactive failure detection for every attached channel (tier nodes
  // and tile workers alike). Probes are driven by the Transport base's
  // heartbeat_poll(); this just sets the policy and starts the clocks.
  void enable_heartbeats(HeartbeatPolicy policy);

  // Fencing epoch (coordinator incarnation number) stamped as the first field
  // of every kConfig body this transport sends — including the automatic
  // replay on reconnect. Workers remember the highest epoch they have seen
  // and answer every verb from a lower one with kFenced (surfaced here as
  // rpc::Fenced), so a deposed coordinator can never drive a worker a
  // successor already owns. Call before configure(); the default 0 keeps
  // single-coordinator deployments unfenced.
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }
  std::uint64_t epoch() const { return epoch_; }

  // Weights-elided kConfig: configure() (and its reconnect replay) sends each
  // node's bundle without its shard, naming only rpc::weights_hash, and relies
  // on every worker having booted from a d3c bundle (or been configured once
  // before). A worker holding a different hash — or none — answers
  // kBundleMismatch, surfaced here as rpc::BundleMismatch before any state
  // mutation. Call before configure().
  void set_elide_weights(bool elide) { elide_weights_ = elide; }
  bool elide_weights() const { return elide_weights_; }

  std::string name() const override { return "socket"; }
  std::uint64_t open_request() override;
  // Re-opens a journalled request id on every attached node (idempotent
  // kBegin broadcast) and advances the id counter past it, so a standby
  // coordinator resuming checkpointed requests never collides a fresh id
  // with a resumed one.
  void open_request_as(std::uint64_t request) override;
  void close_request(std::uint64_t request) noexcept override;
  // open_request, seed, send, run_layer, run_stack, fetch and the three tile
  // verbs are their issue_* twins below, awaited: one frame encoding per verb.
  void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
            const dnn::Tensor& tensor) override;
  std::optional<dnn::Tensor> send(std::uint64_t request, const runtime::MessageRecord& meta,
                                  std::uint64_t slot, const dnn::Tensor& tensor) override;
  bool run_layer(std::uint64_t request, const std::string& node, dnn::LayerId layer) override;
  bool run_stack(std::uint64_t request, const std::string& node) override;
  dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                    std::uint64_t slot) override;

  // Asynchronous facade: each issued verb is queued on the node's outbox as a
  // correlation-id-stamped frame and NOT flushed — consecutive issues against
  // one channel coalesce into a single write (Stats::pipelined_sends). The
  // frame goes out at the latest when the handle is first polled / waited on /
  // asked for its fd. Replies complete strictly in issue order per channel
  // (the worker serve loop is serial; correlation ids are verified on drain).
  OpHandle issue_seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
                      const dnn::Tensor& tensor) override;
  OpHandle issue_send(std::uint64_t request, const runtime::MessageRecord& meta,
                      std::uint64_t slot, const dnn::Tensor& tensor) override;
  OpHandle issue_run_layer(std::uint64_t request, const std::string& node,
                           dnn::LayerId layer) override;
  OpHandle issue_run_stack(std::uint64_t request, const std::string& node) override;
  OpHandle issue_fetch(std::uint64_t request, const std::string& node,
                       std::uint64_t slot) override;
  OpHandle issue_put_tile(std::uint64_t request, const runtime::MessageRecord& meta,
                          std::size_t tile, const dnn::Tensor& input) override;
  OpHandle issue_run_tile(std::uint64_t request, std::size_t tile) override;
  OpHandle issue_fetch_tile(std::uint64_t request, std::size_t tile) override;
  // Async admission: one pipelined kBegin per attached node; handles appended
  // to `ops`. Issue-time failure closes the request on every node and throws.
  std::uint64_t issue_open_request(std::vector<OpHandle>& ops) override;

  bool send_peer(std::uint64_t request, const runtime::MessageRecord& meta,
                 std::uint64_t slot) override;

  // One liveness probe of `node`'s channel, per the HeartbeatPolicy. A busy
  // channel mutex counts as liveness (a real call is in flight); a timeout
  // counts a miss; reaching the miss threshold closes the socket and raises
  // ChannelDied through recover_locked — identical to how a mid-request death
  // surfaces, so callers need no second recovery path.
  void ping(const std::string& node) override;
  std::vector<std::string> heartbeat_targets() override;
  int heartbeat_due_ms() override;

  // Re-begins `request` on the (re-established) node so the engine can re-seed
  // the slots the dead incarnation held. Returns false for unknown/detached
  // nodes (nothing remote to rebuild).
  bool reopen(std::uint64_t request, const std::string& node) override;
  // Drops dead-with-no-reconnect tile workers from the shard map; the tiles
  // they served fall to the survivors (tile % remaining) on the next run.
  std::size_t prune_tile_workers() override;

  bool has_tile_workers() const override;
  std::size_t tile_worker_count() const override;
  std::string tile_node(std::size_t tile) const override;
  void put_tile(std::uint64_t request, const runtime::MessageRecord& meta, std::size_t tile,
                const dnn::Tensor& input) override;
  void run_tile(std::uint64_t request, std::size_t tile) override;
  dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile) override;

  Stats stats() const {
    return {frames_sent_.load(),   payload_bytes_sent_.load(), relay_bytes_.load(),
            payload_bytes_fetched_.load(), peer_pushes_.load(), peer_bytes_.load(),
            reconnects_.load(),    reopens_.load(),            detached_workers_.load(),
            readmitted_workers_.load(),    pings_.load(),      heartbeat_deaths_.load(),
            pipelined_sends_.load(),       config_bytes_sent_.load()};
  }

 private:
  // One queued-but-unanswered frame on a channel: written (or still sitting in
  // the node's outbox) with `corr` stamped in its header, completed when the
  // matching reply is drained. The completion fields (error / tensor / reply)
  // are written once, under the node mutex, before `completed` is flipped;
  // issuers only read them after observing completed == true.
  struct PendingOp {
    std::uint64_t corr = 0;
    MsgKind sent = MsgKind::kOk;      // request kind, for desync diagnostics
    MsgKind expected = MsgKind::kOk;  // reply kind that means success
    bool is_fetch = false;            // decode the reply body as a tensor
    std::atomic<bool> completed{false};
    Frame reply;
    std::exception_ptr error;
    std::optional<dnn::Tensor> tensor;
  };
  class SocketOp;  // AsyncOp over one PendingOp (defined in the .cpp)

  struct Node {
    std::string name;
    Socket socket;
    // Peer endpoint of the current socket, cached while the channel is healthy:
    // once the peer dies, getpeername() fails (ECONNRESET tears the association
    // down), and death messages are exactly where the address matters.
    std::string peer;
    // One in-flight request/response per connection: stages of different
    // requests may address the same node from different threads (concurrent
    // infer() callers).
    std::mutex mutex;
    // Cached kConfig body for replay after reconnect.
    std::vector<std::uint8_t> config_body;
    ReconnectFn reconnect;
    RetryPolicy retry;
    // Dead for good (no reconnect hook): the node is skipped by every lookup
    // and lifecycle loop, but the object stays allocated so concurrent
    // requests never chase a dangling pointer.
    std::atomic<bool> detached{false};
    // Heartbeat clocks. last_probe_ms (steady-clock millis of the last probe
    // round) and misses are atomics because ping() updates them even when the
    // channel mutex is busy. The outstanding kPing (a missed probe leaves its
    // kPong owed on the stream) rides the same pending queue as every other
    // frame; ping_op keeps a handle on it so at most one is ever in flight.
    std::atomic<std::int64_t> last_probe_ms{0};
    std::atomic<int> misses{0};
    // Correlation machinery (all guarded by `mutex`): next id to stamp, the
    // FIFO of unanswered frames, and the write-coalescing outbox of encoded
    // frames not yet pushed to the socket.
    std::uint64_t next_corr = 1;
    std::deque<std::shared_ptr<PendingOp>> pending;
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_frames = 0;
    std::shared_ptr<PendingOp> ping_op;
  };

  Node* find(const std::string& node) const;
  Node& tile_worker(std::size_t tile) const;
  // Locked request/response round-trip. kError replies become TransportError
  // with the worker's message; any reply kind other than `expected` is a
  // protocol desync and throws too.
  Frame call(Node& node, MsgKind kind, std::span<const std::uint8_t> body,
             MsgKind expected = MsgKind::kOk);
  Frame roundtrip_locked(Node& node, MsgKind kind, std::span<const std::uint8_t> body,
                         MsgKind expected);
  // Stamps a correlation id, encodes the frame into the node's outbox (no
  // write yet) and queues its PendingOp. flush_locked pushes the whole outbox
  // in one write; drain_one_locked reads one reply, matches it against
  // pending.front() and completes that op (protocol errors are *stored* in the
  // op, the channel stays in sync).
  std::shared_ptr<PendingOp> submit_op(Node& node, MsgKind kind,
                                       std::span<const std::uint8_t> body,
                                       MsgKind expected = MsgKind::kOk);
  void flush_locked(Node& node);
  void drain_one_locked(Node& node);
  // submit_op wrapped as an OpHandle for the issue_* facade (no flush: batching
  // happens across consecutive issues; issue-time socket failures recover and
  // throw exactly like the blocking verbs).
  OpHandle issue_call(Node& node, MsgKind kind, std::span<const std::uint8_t> body,
                      MsgKind expected = MsgKind::kOk, bool is_fetch = false,
                      std::uint64_t issue_bytes = 0);
  // Socket-level failure with ops in flight: every queued op is completed with
  // the recovery outcome (ChannelDied) so parked waiters see the death too,
  // then the same exception propagates to the caller that hit the failure.
  [[noreturn]] void fail_pending_and_recover_locked(Node& node, const std::string& error);
  // Channel-death recovery: re-establish under bounded backoff (redial_locked),
  // then throw TransportError for the interrupted call.
  [[noreturn]] void recover_locked(Node& node, const std::string& error);
  // Closes the node's socket and forgets its correlation and heartbeat state.
  void drop_channel_locked(Node& node);
  // Dials a fresh incarnation through the reconnect hook and replays the
  // cached kConfig through roundtrip_locked; throws what either throws.
  void redial_locked(Node& node);
  // Issues one kPut of `tensor` into `slot` on `node` (seeds and sends).
  OpHandle issue_put(std::uint64_t request, Node& node, const runtime::MessageRecord& meta,
                     std::uint64_t slot, const dnn::Tensor& tensor);
  // One peer handshake: kPeerListen on `to`, kConnectPeer on `from`.
  void link_peers(Node& from, Node& to);
  std::string advertised_address(const Node& to) const;
  // Returns a pruned (detached) tile worker to the shard map: redial_locked,
  // then restore its deterministic shard position.
  void readmit(Node& node);
  std::uint64_t push_peer(Node& from, std::uint64_t request,
                          const runtime::MessageRecord& meta, std::uint64_t slot);
  void observe(MsgKind kind, const std::string& node) {
    if (op_observer_) op_observer_(kind, node);
  }

  std::map<std::string, std::unique_ptr<Node>> nodes_;
  // Shard order; also present in nodes_. Guarded by shard_mutex_: recovery may
  // prune dead workers while other in-flight requests are sharding tiles.
  std::vector<Node*> tile_workers_;
  mutable std::mutex shard_mutex_;
  // Per-node dial-address overrides for the peer handshake (shard_mutex_).
  std::map<std::string, std::string> advertised_addresses_;
  bool peers_enabled_ = false;
  std::uint64_t epoch_ = 0;
  bool elide_weights_ = false;
  // rpc::weights_hash of the last configure() — what a kBundleMismatch reply
  // is reported against.
  std::uint64_t weights_hash_ = 0;
  OpObserver op_observer_;
  bool heartbeats_ = false;
  HeartbeatPolicy heartbeat_policy_;
  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> payload_bytes_sent_{0};
  std::atomic<std::uint64_t> relay_bytes_{0};
  std::atomic<std::uint64_t> payload_bytes_fetched_{0};
  std::atomic<std::uint64_t> peer_pushes_{0};
  std::atomic<std::uint64_t> peer_bytes_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> reopens_{0};
  std::atomic<std::uint64_t> detached_workers_{0};
  std::atomic<std::uint64_t> readmitted_workers_{0};
  std::atomic<std::uint64_t> pings_{0};
  std::atomic<std::uint64_t> heartbeat_deaths_{0};
  std::atomic<std::uint64_t> pipelined_sends_{0};
  std::atomic<std::uint64_t> config_bytes_sent_{0};
};

// Forks and execs a d3_node worker binary connected back to this process over
// localhost TCP. The listening socket is bound before the fork, so there is no
// startup race; a child that dies before connecting fails the constructor
// instead of hanging it.
class WorkerProcess {
 public:
  explicit WorkerProcess(const std::string& binary);
  // Extra argv entries appended after "--connect <host> <port>" (e.g. the
  // deterministic {"--crash-after", "N"} fault-injection flag of d3_node).
  WorkerProcess(const std::string& binary, const std::vector<std::string>& extra_args);
  // `host` is the coordinator-side listen interface the worker dials back to
  // (default 127.0.0.1; a non-loopback interface exercises the off-host
  // network path while still forking locally).
  WorkerProcess(const std::string& binary, const std::vector<std::string>& extra_args,
                const std::string& host);
  // Closes the socket if still held (the worker exits on EOF) and reaps the
  // child, escalating to SIGKILL if it ignores the hang-up.
  ~WorkerProcess();
  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  // Hands the connected socket to a SocketTransport (call exactly once).
  Socket take_socket();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  Socket socket_;
};

// Forks and execs a d3_node worker in --listen mode: the worker binds its own
// (ephemeral) port, prints "PORT <n>" on a pipe back to this process, and then
// outlives any one coordinator connection. That inversion — worker listens,
// coordinators dial — is what coordinator failover needs: a standby can dial
// the same worker the dead coordinator used and find its per-request state
// intact. dial() hands out a fresh connected socket per coordinator
// incarnation.
class ListenWorkerProcess {
 public:
  explicit ListenWorkerProcess(const std::string& binary);
  ListenWorkerProcess(const std::string& binary, const std::vector<std::string>& extra_args);
  // The worker has no coordinator socket to see EOF on, so teardown is
  // SIGKILL + reap (tests also SIGSTOP/SIGKILL it mid-run on purpose).
  ~ListenWorkerProcess();
  ListenWorkerProcess(const ListenWorkerProcess&) = delete;
  ListenWorkerProcess& operator=(const ListenWorkerProcess&) = delete;

  // Dials a fresh coordinator connection to the worker (any number of times;
  // the worker serves them one at a time with persistent node state).
  Socket dial() const;
  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace d3::rpc
