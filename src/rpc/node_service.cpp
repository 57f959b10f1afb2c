#include "rpc/node_service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/bundle.h"
#include "core/plan_io.h"
#include "core/vsm_executor.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "runtime/thread_pool.h"

namespace d3::rpc {

namespace {

// A reference to per-request state this worker incarnation does not hold —
// the telltale of a respawn after a death (the coordinator's request predates
// this process). Reported as kErrorState, naming the node whose state is gone,
// so the coordinator's tier-granular recovery can rebuild exactly that state
// (reopen + re-seed) instead of failing the request. `node` may differ from
// the replying worker: a kPushPeer relays the *consumer's* state loss through
// the producer.
class StateError : public WireError {
 public:
  StateError(std::string node, const std::string& what)
      : WireError(what), node_(std::move(node)) {}
  const std::string& node() const { return node_; }

 private:
  std::string node_;
};

class NodeService {
 public:
  // Listen mode: the service outlives coordinator connections; each accepted
  // one is attached here (and detached on hang-up) while every other piece of
  // node state — slots, replicas, peer channels, the fencing high-water mark —
  // persists. Several coordinator connections may be attached at once (an
  // active and a deposed one during a failover): each carries its own fencing
  // epoch, set by the kConfig it sent, and every verb on a connection whose
  // epoch is below the worker-wide maximum is answered kFenced before any
  // state mutation.
  NodeService() = default;
  // The kernel hook holds `this`.
  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  // Borrowed connection (--connect mode): the caller owns the fd.
  void attach_coordinator(int fd) {
    coordinators_.emplace(fd, CoordinatorConn{});
    poller_.add(fd, static_cast<std::uint64_t>(fd));
  }

  // Accepted connection (--listen mode): the service owns the socket.
  void attach_coordinator(Socket socket) {
    const int fd = socket.fd();
    CoordinatorConn conn;
    conn.owned = std::move(socket);
    coordinators_.emplace(fd, std::move(conn));
    poller_.add(fd, static_cast<std::uint64_t>(fd));
  }

  void detach_coordinator(int fd) {
    const auto it = coordinators_.find(fd);
    if (it == coordinators_.end()) return;
    poller_.remove(fd);
    coordinators_.erase(it);  // closes an owned socket via RAII
  }

  bool is_coordinator(int fd) const { return coordinators_.count(fd) > 0; }
  std::size_t coordinator_count() const { return coordinators_.size(); }

  // True when `fd`'s coordinator has been deposed: a successor configured this
  // worker under a higher fencing epoch, so every frame from `fd` — kShutdown
  // included — must be rejected with kFenced.
  bool stale(int fd) const { return coordinators_.at(fd).epoch < max_epoch_; }

  Frame fenced_reply() const {
    WireWriter w;
    w.u64(max_epoch_);
    return Frame{MsgKind::kFenced, w.take()};
  }

  Poller& poller() { return poller_; }
  bool is_peer_listener(int fd) const {
    return peer_listener_.valid() && peer_listener_.fd() == fd;
  }

  // Handles one coordinator frame from connection `fd`. Returns the reply to
  // write back. The fencing gate runs before any handler: kConfig carries the
  // sender's epoch as its first field (a lower-than-max epoch is fenced, a
  // higher one deposes every other connection), and every other verb is
  // checked against the connection's last-configured epoch.
  Frame handle(const Frame& request, int fd) {
    CoordinatorConn& conn = coordinators_.at(fd);
    WireReader r(request.body);
    if (request.kind == MsgKind::kConfig) {
      const std::uint64_t epoch = r.u64();
      if (epoch < max_epoch_) return fenced_reply();
      conn.epoch = epoch;
      max_epoch_ = std::max(max_epoch_, epoch);
      return config(r);
    }
    if (conn.epoch < max_epoch_) return fenced_reply();
    switch (request.kind) {
      case MsgKind::kBegin: return begin(r);
      case MsgKind::kPut: return put(r);
      case MsgKind::kPutReplica: return put_replica(r);
      case MsgKind::kPing: return Frame{MsgKind::kPong, {}};
      case MsgKind::kRunLayer: return run_layer(r);
      case MsgKind::kRunStack: return run_stack(r);
      case MsgKind::kGet: return get(r);
      case MsgKind::kEnd: return end(r);
      case MsgKind::kPeerListen: return peer_listen(r, fd);
      case MsgKind::kConnectPeer: return connect_peer(r, conn.epoch);
      case MsgKind::kPushPeer: return push_peer(r);
      case MsgKind::kPutTile: return put_tile(r);
      case MsgKind::kRunTile: return run_tile(r);
      case MsgKind::kGetTile: return get_tile(r);
      default:
        throw WireError("node: unexpected message kind " +
                        std::to_string(static_cast<int>(request.kind)));
    }
  }

  // The one way a deployment is applied — an AOT --bundle boot (which makes
  // the node live before any coordinator dials in) or a kConfig: resolve the
  // model, parse the plan, decode the shard (or, when `elided`, keep the shard
  // this node holds) and check that it covers every layer the plan assigns
  // this node. Only then commit, so a throw leaves the node as it was (and a
  // bundle that fails to load kills the boot instead of limping into serving).
  void install(const core::DeploymentBundle& bundle, bool elided) {
    if (elided && bundle.model_name != model_name_)
      throw WireError("deployment: model '" + bundle.model_name + "' does not match loaded '" +
                      model_name_ + "' despite equal weights hash");
    dnn::Network net = dnn::zoo::by_name(bundle.model_name);
    core::SerializablePlan plan = core::parse_plan_binary(bundle.plan_bytes, net);
    std::optional<WeightShard> shard;
    if (!elided) shard = decode_weight_shard(bundle.shard_bytes, net);
    const std::vector<bool>& present = shard ? shard->present : weight_mask_;
    const std::vector<bool> need = exec::WeightStore::layers_for_node(plan, bundle.node_name);
    for (std::size_t id = 0; id < need.size(); ++id)
      if (need[id] && !present[id])
        throw WireError("deployment: plan assigns layer " + std::to_string(id) + " to '" +
                        bundle.node_name + "' but its weight shard elides it");
    if (shard) {
      weights_ = std::move(shard->weights);
      weight_mask_ = std::move(shard->present);
    }
    net_ = std::move(net);
    plan_ = std::move(plan);
    node_name_ = bundle.node_name;
    model_name_ = bundle.model_name;
    plan_hash_ = fnv1a(bundle.plan_bytes);
    weights_hash_ = bundle.weights_hash;
    vsm_workers_ = bundle.vsm_workers;
    pool_.reset();  // rebuilt at this configuration's width on first use
    requests_.clear();
  }

  // Accepts one dialled peer channel: the first frame must be kPeerHello with
  // the dialling node's name; the channel replaces any previous inbound
  // channel from that peer (a reconnected worker re-dials). A misbehaving
  // dialler (no hello within the bounded wait, malformed or unexpected first
  // frame) only costs its own connection — never the serve loop, which must
  // stay responsive for the coordinator and the other peers.
  void accept_peer() {
    try {
      Socket channel = tcp_accept(peer_listener_, 1000);
      const int fd[] = {channel.fd()};
      if (poll_readable(fd, 5000) < 0) return;  // no hello in time: drop it
      const Frame hello = read_frame(channel.fd());
      if (hello.kind != MsgKind::kPeerHello) return;  // not a peer: drop it
      WireReader r(hello.body);
      const std::string peer = r.str();
      const std::uint64_t epoch = r.u64();
      r.expect_end("peer-hello");
      // Fencing propagates worker -> worker: a hello carrying a deposed
      // coordinator's epoch is rejected (the dialler relays the kFenced to its
      // own coordinator), and a higher one raises this worker's high-water
      // mark so the deposed coordinator's direct connection fences too.
      if (epoch < max_epoch_) {
        const Frame fenced = fenced_reply();
        write_frame(channel.fd(), fenced.kind, fenced.body);
        return;  // drop the channel
      }
      max_epoch_ = std::max(max_epoch_, epoch);
      for (auto it = peer_in_.begin(); it != peer_in_.end();) {
        if (it->name == peer) {
          poller_.remove(it->socket.fd());
          it = peer_in_.erase(it);
        } else {
          ++it;
        }
      }
      write_frame(channel.fd(), MsgKind::kPeerOk, {});
      poller_.add(channel.fd(), static_cast<std::uint64_t>(channel.fd()));
      peer_in_.push_back(PeerChannel{peer, std::move(channel)});
    } catch (const std::exception&) {
      // Socket/wire failure during the handshake: the RAII socket closed, the
      // dialler sees the hang-up; nothing else is affected.
    }
  }

  // Services one frame from the inbound peer channel on `fd`; a stale
  // readiness tag (the channel was dropped while servicing an earlier event)
  // is ignored.
  void serve_peer_fd(int fd) {
    for (std::size_t i = 0; i < peer_in_.size(); ++i)
      if (peer_in_[i].socket.fd() == fd) {
        serve_peer(i);
        return;
      }
  }

  // Services one frame from inbound peer channel `index` (into peer_in_).
  // Returns false when the channel was dropped — peer hang-up, a mid-frame
  // socket failure, or a desynchronised stream (anything but kPeerPut).
  // Handler-level failures (bad slot, wrong addressee) are answered with
  // kError and the channel stays up — mirroring how the coordinator
  // connection treats handler vs protocol failures.
  bool serve_peer(std::size_t index) {
    PeerChannel& channel = peer_in_.at(index);
    const auto drop = [&] {
      poller_.remove(channel.socket.fd());
      peer_in_.erase(peer_in_.begin() + static_cast<std::ptrdiff_t>(index));
      return false;
    };
    Frame frame;
    try {
      if (!read_frame_or_eof(channel.socket.fd(), frame)) return drop();
      if (frame.kind != MsgKind::kPeerPut) return drop();
      Frame reply;
      try {
        WireReader r(frame.body);
        store_peer_put(r);
        reply = Frame{MsgKind::kPeerOk, {}};
      } catch (const StateError& e) {
        // This incarnation never saw the pushed request: tell the producer so
        // it can relay the state loss (and whose state it is) upstream.
        WireWriter w;
        w.str(e.node());
        w.str(e.what());
        reply = Frame{MsgKind::kErrorState, w.take()};
      } catch (const std::exception& e) {
        WireWriter w;
        w.str(e.what());
        reply = Frame{MsgKind::kError, w.take()};
      }
      write_frame(channel.socket.fd(), reply.kind, reply.body);
    } catch (const SocketError&) {
      return drop();
    }
    return true;
  }

 private:
  struct RequestSlots {
    std::vector<std::optional<dnn::Tensor>> slots;  // 0 = input, i+1 = layer i
    std::map<std::uint64_t, dnn::Tensor> tile_in;   // VSM tile inputs by tile index
    std::map<std::uint64_t, dnn::Tensor> tile_out;  // computed tile outputs
  };

  struct PeerChannel {
    std::string name;  // the node on the other end
    Socket socket;
  };

  static Frame ok() { return Frame{MsgKind::kOk, {}}; }

  // kConfig: the body after the epoch is one deployment bundle, whose decode
  // checks the content hash before it trusts any field. An empty shard means
  // the coordinator elided the weights (a real shard is never empty: it
  // carries its magic and a presence flag per layer).
  Frame config(WireReader& r) {
    const core::DeploymentBundle bundle = core::decode_bundle(r.rest());
    const bool elided = bundle.shard_bytes.empty();
    // Idempotent on content identity — (node, model, plan hash, weights hash,
    // pool width) — NOT on raw body bytes: a standby coordinator taking over
    // replays the same deployment (possibly elided, e.g. to a bundle-booted
    // worker), and wiping per-request slots (and buddy replicas) here would
    // destroy exactly the state the takeover needs.
    if (net_ && bundle.node_name == node_name_ && bundle.model_name == model_name_ &&
        fnv1a(bundle.plan_bytes) == plan_hash_ && bundle.weights_hash == weights_hash_ &&
        bundle.vsm_workers == vsm_workers_)
      return ok();
    // An elided bundle can never *install* weights, so disagreement is
    // answered kBundleMismatch — naming the hash this node actually holds
    // (0 = none) — before any state mutation, and the coordinator fails
    // loudly instead of running a version-skewed model.
    if (elided && (!net_ || bundle.weights_hash != weights_hash_)) {
      WireWriter w;
      w.u64(net_ ? weights_hash_ : 0);
      return Frame{MsgKind::kBundleMismatch, w.take()};
    }
    // A different identity is a genuine reconfiguration: it resets everything.
    install(bundle, elided);
    return ok();
  }

  // The configuration's one pool, at least as wide as the host: every conv
  // and FC kernel (run_layer, run_tile, run_stack) splits its GEMM across it
  // into disjoint output blocks, each accumulated in reference order, so
  // outputs stay bitwise-identical. run_stack's tile lanes share it only when
  // the plan asked for them (vsm_workers > 0); a tile's nested kernel
  // parallel_for on the same pool is safe because callers help drain it.
  // The threads start on the first call, so a worker whose kernels never
  // reach the parallelism threshold never spawns them. Only the serve thread
  // makes that first call (every other caller is a job already running on
  // the pool), so the lazy build needs no lock.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
    if (!pool_)
      pool_ = std::make_unique<runtime::ThreadPool>(
          std::max<std::size_t>(vsm_workers_, runtime::ThreadPool::hardware_threads()));
    pool_->parallel_for(n, body);
  }

  exec::OpContext op_context() const { return exec::OpContext{nullptr, &op_parallel_}; }

  void require_configured() const {
    if (!net_) throw WireError("node: not configured");
  }

  RequestSlots& request(std::uint64_t id) {
    const auto it = requests_.find(id);
    if (it == requests_.end())
      throw StateError(node_name_, "unknown request " + std::to_string(id));
    return it->second;
  }

  const dnn::Tensor& slot_tensor(RequestSlots& req, std::uint64_t slot) {
    if (slot >= req.slots.size())
      throw WireError("node: slot " + std::to_string(slot) + " out of range");
    if (!req.slots[slot])
      throw StateError(node_name_, "slot " + std::to_string(slot) + " not present");
    return *req.slots[slot];
  }

  Frame begin(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    r.expect_end("begin");
    // Idempotent: request ids are globally unique (the coordinator never
    // reuses one), so a second kBegin — a recovery reopen racing a duplicate,
    // or a fault-injected replay — must not wipe slots already re-seeded.
    const auto [it, inserted] = requests_.try_emplace(id);
    if (inserted) it->second.slots.assign(net_->num_layers() + 1, std::nullopt);
    return ok();
  }

  // Stores an Envelope-carried tensor into a request slot; shared by the
  // coordinator's kPut, the peer channel's kPeerPut, and — with the addressee
  // check waived — the buddy-replica kPutReplica, whose envelope deliberately
  // names the *real* consumer so a failed-over coordinator can re-push it
  // peer-to-peer verbatim.
  void store_envelope(std::uint64_t id, std::uint64_t slot, Envelope env,
                      bool check_addressee = true) {
    RequestSlots& req = request(id);
    if (slot >= req.slots.size())
      throw WireError("node: put slot " + std::to_string(slot) + " out of range");
    if (check_addressee && !env.meta.to_node.empty() && env.meta.to_node != node_name_)
      throw WireError("node '" + node_name_ + "': envelope addressed to '" +
                      env.meta.to_node + "'");
    req.slots[slot] = decode_tensor(env.payload);
  }

  Frame put(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t slot = r.u64();
    Envelope env = decode_envelope(r);
    r.expect_end("put");
    store_envelope(id, slot, std::move(env));
    return ok();
  }

  Frame put_replica(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t slot = r.u64();
    Envelope env = decode_envelope(r);
    r.expect_end("put-replica");
    store_envelope(id, slot, std::move(env), /*check_addressee=*/false);
    return ok();
  }

  void store_peer_put(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t slot = r.u64();
    Envelope env = decode_envelope(r);
    r.expect_end("peer-put");
    store_envelope(id, slot, std::move(env));
  }

  Frame run_layer(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t layer = r.u64();
    r.expect_end("run-layer");
    if (layer >= net_->num_layers())
      throw WireError("node: layer id " + std::to_string(layer) + " out of range");
    RequestSlots& req = request(id);
    std::vector<const dnn::Tensor*> ins;
    ins.reserve(net_->layer(layer).inputs.size());
    for (const dnn::LayerId in : net_->layer(layer).inputs)
      ins.push_back(&slot_tensor(req, in == dnn::kNetworkInput ? 0 : in + 1));
    req.slots[layer + 1] = exec::run_layer(*net_, weights_, layer, ins, op_context());
    return ok();
  }

  Frame run_stack(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    r.expect_end("run-stack");
    if (!plan_ || !plan_->vsm) throw WireError("node: no VSM stack in the shipped plan");
    const core::FusedTilePlan& vsm = *plan_->vsm;
    RequestSlots& req = request(id);
    const dnn::LayerId in_id = net_->layer(vsm.stack.front()).inputs[0];
    const dnn::Tensor& stack_input =
        slot_tensor(req, in_id == dnn::kNetworkInput ? 0 : in_id + 1);
    // Scatter, per-tile fused execution (across this node's own worker pool
    // when the plan asked for tile lanes) and tile-order gather, all inside
    // this process: intra-edge traffic never touches the coordinator, exactly
    // like the paper's edge cluster.
    const core::TileParallelFor serial_tiles;
    req.slots[vsm.stack.back() + 1] =
        core::run_fused_tiles(*net_, weights_, stack_input, vsm,
                              vsm_workers_ > 0 ? op_parallel_ : serial_tiles, op_context());
    return ok();
  }

  Frame get(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t slot = r.u64();
    r.expect_end("get");
    return Frame{MsgKind::kTensor, encode_tensor(slot_tensor(request(id), slot))};
  }

  Frame end(WireReader& r) {
    const std::uint64_t id = r.u64();
    r.expect_end("end");
    requests_.erase(id);
    return ok();
  }

  // --- Peer channels ---------------------------------------------------------

  Frame peer_listen(WireReader& r, int coordinator_fd) {
    r.expect_end("peer-listen");
    // Idempotent: a coordinator re-establishing links after a sibling worker
    // died just gets the existing port back.
    if (!peer_listener_.valid()) {
      peer_port_ = 0;
      // Bind the interface the coordinator reached this worker on: peers are
      // told to dial an address observed on that same network, so the listener
      // must be reachable by that route (loopback only works single-host).
      peer_listener_ = tcp_listen_on(local_address(coordinator_fd), peer_port_);
      poller_.add(peer_listener_.fd(), static_cast<std::uint64_t>(peer_listener_.fd()));
    }
    WireWriter w;
    w.u32(peer_port_);
    return Frame{MsgKind::kOk, w.take()};
  }

  Frame connect_peer(WireReader& r, std::uint64_t epoch) {
    require_configured();
    const std::string peer = r.str();
    const std::string host = r.str();
    const std::uint32_t port = r.u32();
    r.expect_end("connect-peer");
    if (port == 0 || port > 65535)
      throw WireError("node: peer port " + std::to_string(port) + " out of range");
    // Replace any stale channel (the peer may be a reconnected fresh process).
    peer_out_.erase(peer);
    Socket channel = tcp_connect(host, static_cast<std::uint16_t>(port));
    WireWriter hello;
    hello.str(node_name_);
    // The hello carries the issuing coordinator's epoch: a peer that a
    // successor already configured rejects the stale handshake with kFenced.
    hello.u64(epoch);
    write_frame(channel.fd(), MsgKind::kPeerHello, hello.buffer());
    const Frame ack = read_frame(channel.fd());
    if (ack.kind == MsgKind::kFenced) {
      // The peer fenced this coordinator's epoch: raise our own high-water
      // mark (so the deposed coordinator's direct verbs fence here too) and
      // relay the rejection verbatim.
      WireReader fr(ack.body);
      max_epoch_ = std::max(max_epoch_, fr.u64());
      return Frame{MsgKind::kFenced, ack.body};
    }
    if (ack.kind != MsgKind::kPeerOk)
      throw WireError("node: peer '" + peer + "' rejected the channel handshake");
    peer_out_.emplace(peer, std::move(channel));
    return ok();
  }

  Frame push_peer(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t slot = r.u64();
    Envelope env = decode_envelope(r);  // metadata only; payload arrives empty
    r.expect_end("push-peer");
    const auto it = peer_out_.find(env.meta.to_node);
    if (it == peer_out_.end())
      throw WireError("node '" + node_name_ + "': no peer channel to '" + env.meta.to_node +
                      "'");
    env.payload = encode_tensor(slot_tensor(request(id), slot));
    const std::uint64_t payload_bytes = env.payload.size();
    WireWriter w;
    w.u64(id);
    w.u64(slot);
    encode_envelope(w, env);
    write_frame(it->second.fd(), MsgKind::kPeerPut, w.buffer());
    wait_peer_ack(it->second);
    WireWriter reply;
    reply.u64(payload_bytes);
    return Frame{MsgKind::kOk, reply.take()};
  }

  // Waits for the pushed tensor's kPeerOk while *also* servicing inbound peer
  // channels: two nodes pushing to each other simultaneously (two pipelined
  // requests crossing the same boundary in opposite directions) would
  // otherwise deadlock, each blocked on the other's acknowledgement.
  void wait_peer_ack(Socket& out_channel) {
    for (;;) {
      std::vector<int> fds{out_channel.fd()};
      for (const auto& in : peer_in_) fds.push_back(in.socket.fd());
      const int idx = poll_readable(fds, 30000);
      if (idx < 0) throw SocketError("peer push: timed out waiting for acknowledgement");
      if (idx == 0) {
        const Frame ack = read_frame(out_channel.fd());
        if (ack.kind == MsgKind::kErrorState) {
          // The *consumer* lost its per-request state (fresh incarnation):
          // relay exactly that — node name and all — to the coordinator, so
          // its recovery targets the consumer, not this producer.
          WireReader r(ack.body);
          const std::string lost = r.str();
          throw StateError(lost, r.str());
        }
        if (ack.kind == MsgKind::kError) {
          WireReader r(ack.body);
          throw WireError("peer rejected push: " + r.str());
        }
        if (ack.kind != MsgKind::kPeerOk)
          throw WireError("node: unexpected peer ack kind " +
                          std::to_string(static_cast<int>(ack.kind)));
        return;
      }
      serve_peer(static_cast<std::size_t>(idx - 1));
    }
  }

  // --- Edge fan-out tiles ----------------------------------------------------

  const core::FusedTilePlan& vsm_plan() const {
    if (!plan_ || !plan_->vsm) throw WireError("node: no VSM stack in the shipped plan");
    return *plan_->vsm;
  }

  Frame put_tile(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t tile = r.u64();
    Envelope env = decode_envelope(r);
    r.expect_end("put-tile");
    const core::FusedTilePlan& vsm = vsm_plan();
    if (tile >= vsm.num_tiles())
      throw WireError("node: tile " + std::to_string(tile) + " out of range");
    // Tile envelopes are addressed to the *virtual* per-tile edge node
    // ("edge<tile+1>"); this physical worker serves several of them, so no
    // to_node check — the tile index is the address.
    request(id).tile_in[tile] = decode_tensor(env.payload);
    return ok();
  }

  Frame run_tile(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t tile = r.u64();
    r.expect_end("run-tile");
    const core::FusedTilePlan& vsm = vsm_plan();
    if (tile >= vsm.num_tiles())
      throw WireError("node: tile " + std::to_string(tile) + " out of range");
    RequestSlots& req = request(id);
    const auto it = req.tile_in.find(tile);
    if (it == req.tile_in.end())
      throw StateError(node_name_, "tile " + std::to_string(tile) + " input not delivered");
    // Rebuild the exec::Tile from the shipped plan: the crop's position and
    // the full-map extent are a pure function of (plan, tile), so only the
    // tensor data ever crosses the wire.
    const exec::Region& region = vsm.tiles[tile].input_regions.front();
    const dnn::Shape expect{vsm.input_shapes.front().c, region.height(), region.width()};
    if (!(it->second.shape() == expect))
      throw WireError("node: tile " + std::to_string(tile) + " input shape " +
                      it->second.shape().to_string() + " != plan's " + expect.to_string());
    exec::Tile input;
    input.data = it->second;
    input.origin_x = region.x0;
    input.origin_y = region.y0;
    input.full_w = vsm.input_shapes.front().w;
    input.full_h = vsm.input_shapes.front().h;
    req.tile_out[tile] =
        core::run_single_tile(*net_, weights_, input, vsm, tile, op_context()).data;
    return ok();
  }

  Frame get_tile(WireReader& r) {
    require_configured();
    const std::uint64_t id = r.u64();
    const std::uint64_t tile = r.u64();
    r.expect_end("get-tile");
    RequestSlots& req = request(id);
    const auto it = req.tile_out.find(tile);
    if (it == req.tile_out.end())
      throw StateError(node_name_, "tile " + std::to_string(tile) + " output not computed");
    return Frame{MsgKind::kTensor, encode_tensor(it->second)};
  }

  // One attached coordinator connection: the socket (owned in listen mode,
  // borrowed in --connect mode) and the fencing epoch its kConfig carried.
  struct CoordinatorConn {
    Socket owned;
    std::uint64_t epoch = 0;
  };

  std::map<int, CoordinatorConn> coordinators_;
  // Highest fencing epoch any kConfig or kPeerHello has carried: the fencing
  // high-water mark every verb is checked against. Persists across coordinator
  // connections (listen mode), exactly like the request slots it protects.
  std::uint64_t max_epoch_ = 0;
  Poller poller_;  // coordinators + listener + peer listener + inbound peers
  std::string node_name_;
  std::string model_name_;
  // Content identity of the applied configuration — what kConfig idempotence
  // is keyed on, and what a weights-elided bundle is checked against.
  // weights_hash_ is the whole model's rpc::weights_hash, even though this
  // node holds only its shard (the bundle carries it verbatim).
  std::uint64_t plan_hash_ = 0;
  std::uint64_t weights_hash_ = 0;
  std::uint32_t vsm_workers_ = 0;
  // Per-layer presence in weights_ (the shard mask) — checked when a new plan
  // arrives weights-elided.
  std::vector<bool> weight_mask_;
  std::optional<dnn::Network> net_;
  exec::WeightStore weights_;
  std::optional<core::SerializablePlan> plan_;
  std::unique_ptr<runtime::ThreadPool> pool_;  // null until first parallel_for
  // The intra-op hook every kernel gets (over parallel_for above).
  const exec::ParallelFor op_parallel_ =
      [this](std::size_t n, const std::function<void(std::size_t)>& body) {
        parallel_for(n, body);
      };
  std::map<std::uint64_t, RequestSlots> requests_;
  Socket peer_listener_;
  std::uint16_t peer_port_ = 0;
  std::map<std::string, Socket> peer_out_;  // channels this node pushes on
  std::vector<PeerChannel> peer_in_;        // channels peers push to us on
};

// Why the serve loop ended: the last coordinator connection hung up (only
// terminal in --connect mode) vs an explicit, un-fenced kShutdown.
enum class Hangup { kEof, kShutdown };

// Serves one ready coordinator frame on `fd`. Returns the hang-up kind when
// that connection ended (EOF, socket failure, or an honoured kShutdown);
// nullopt while it stays up. Throws nothing — a mid-frame socket failure is a
// connection death, not a service death.
std::optional<Hangup> serve_coordinator_frame(NodeService& service, int fd,
                                              const ServeOptions& options,
                                              std::uint64_t& served) {
  try {
    Frame request;
    if (!read_frame_or_eof(fd, request)) return Hangup::kEof;
    // Scripted crash point: die abruptly on the (N+1)th coordinator frame —
    // read but never answered, exactly what a SIGKILL mid-call looks like
    // from the coordinator, minus the race.
    if (served == options.crash_after_frames) ::_exit(137);
    ++served;
    if (request.kind == MsgKind::kShutdown) {
      // A deposed coordinator cannot take the worker down with it: its
      // kShutdown is fenced like every other verb.
      if (service.stale(fd)) {
        const Frame fenced = service.fenced_reply();
        write_frame(fd, fenced.kind, fenced.body, request.corr);
        return std::nullopt;
      }
      write_frame(fd, MsgKind::kOk, {}, request.corr);
      return Hangup::kShutdown;
    }
    // Emulated service latency concentrates on the compute verbs: the sleep
    // happens before the reply, so a coordinator pipelining several
    // outstanding frames sees the replies spaced by the service time —
    // exactly what the overlap bench must hide behind other channels.
    if (options.service_seconds > 0 && (request.kind == MsgKind::kRunLayer ||
                                        request.kind == MsgKind::kRunStack))
      std::this_thread::sleep_for(std::chrono::duration<double>(options.service_seconds));
    Frame reply;
    try {
      reply = service.handle(request, fd);
    } catch (const StateError& e) {
      WireWriter w;
      w.str(e.node());
      w.str(e.what());
      reply = Frame{MsgKind::kErrorState, w.take()};
    } catch (const std::exception& e) {
      WireWriter w;
      w.str(e.what());
      reply = Frame{MsgKind::kError, w.take()};
    }
    // Echo the request's correlation id: the transport matches this reply to
    // its per-channel pending-op queue.
    write_frame(fd, reply.kind, reply.body, request.corr);
  } catch (const SocketError&) {
    // The coordinator died mid-frame (SIGKILL, network fault). Every other
    // piece of node state survives for its successor.
    return Hangup::kEof;
  }
  return std::nullopt;
}

// The shared serve loop. With a `listener`, new coordinator connections are
// accepted from it and served concurrently with existing ones (an active and
// a deposed coordinator during a failover each hold a live connection); the
// loop only returns on an honoured kShutdown. Without one (--connect mode)
// the loop ends when the single coordinator connection does.
Hangup serve_until_hangup(NodeService& service, const Socket* listener,
                          const ServeOptions& options, std::uint64_t& served) {
  for (;;) {
    // One ready registration per wait: the Poller is level-triggered, so
    // still-ready channels surface again immediately, and a channel dropped
    // while servicing an earlier event can never leave a stale tag behind.
    const std::vector<std::uint64_t> ready = service.poller().wait(-1);
    if (ready.empty()) continue;
    const int rfd = static_cast<int>(ready.front());
    if (listener && rfd == listener->fd()) {
      try {
        service.attach_coordinator(tcp_accept(*listener, 1000));
      } catch (const SocketError&) {
        // A dialler that vanished between readiness and accept costs nothing.
      }
    } else if (service.is_coordinator(rfd)) {
      const std::optional<Hangup> hangup =
          serve_coordinator_frame(service, rfd, options, served);
      if (!hangup) continue;
      service.detach_coordinator(rfd);
      if (*hangup == Hangup::kShutdown) return Hangup::kShutdown;
      if (!listener && service.coordinator_count() == 0) return Hangup::kEof;
    } else if (service.is_peer_listener(rfd)) {
      service.accept_peer();
    } else {
      service.serve_peer_fd(rfd);
    }
  }
}

}  // namespace

void serve_node(int fd, const ServeOptions& options) {
  NodeService service;
  if (options.bundle) service.install(*options.bundle, /*elided=*/false);
  service.attach_coordinator(fd);
  std::uint64_t served = 0;
  serve_until_hangup(service, /*listener=*/nullptr, options, served);
}

void serve_listen_node(const Socket& listener, const ServeOptions& options) {
  NodeService service;  // persists across coordinator connections
  if (options.bundle) service.install(*options.bundle, /*elided=*/false);
  service.poller().add(listener.fd(), static_cast<std::uint64_t>(listener.fd()));
  std::uint64_t served = 0;
  serve_until_hangup(service, &listener, options, served);
}

}  // namespace d3::rpc
