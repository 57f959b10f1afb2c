#include "rpc/socket_transport.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "core/bundle.h"
#include "rpc/wire.h"

namespace d3::rpc {

namespace {

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The blocking verbs are their issue_* twins awaited: blocks until `op`
// completes and rethrows its failure.
Transport::OpHandle await(Transport::OpHandle op) {
  op.wait();
  op.rethrow();
  return op;
}

}  // namespace

void SocketTransport::add_node(const std::string& node, Socket socket) {
  if (!socket.valid()) throw TransportError("add_node: invalid socket for '" + node + "'");
  auto entry = std::make_unique<Node>();
  entry->name = node;
  entry->socket = std::move(socket);
  entry->peer = describe_peer(entry->socket.fd());
  if (!nodes_.emplace(node, std::move(entry)).second)
    throw TransportError("add_node: node '" + node + "' already attached");
}

void SocketTransport::add_tile_worker(Socket socket) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  // First free "edgeK" name: after a prune the detached node keeps its name
  // (it stays in nodes_ so nothing dangles), so a replacement worker must not
  // collide with it.
  std::size_t k = tile_workers_.size() + 1;
  while (nodes_.count("edge" + std::to_string(k)) > 0) ++k;
  const std::string node = "edge" + std::to_string(k);
  add_node(node, std::move(socket));
  tile_workers_.push_back(nodes_.at(node).get());
}

SocketTransport::Node* SocketTransport::find(const std::string& node) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second->detached.load(std::memory_order_acquire))
    return nullptr;
  return it->second.get();
}

SocketTransport::Node& SocketTransport::tile_worker(std::size_t tile) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  if (tile_workers_.empty()) throw TransportError("no tile workers attached");
  return *tile_workers_[tile % tile_workers_.size()];
}

bool SocketTransport::has_tile_workers() const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return !tile_workers_.empty() && nodes_.count("edge0") == 0;
}

std::size_t SocketTransport::tile_worker_count() const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  return tile_workers_.size();
}

std::string SocketTransport::tile_node(std::size_t tile) const {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  if (tile_workers_.empty()) return {};
  return tile_workers_[tile % tile_workers_.size()]->name;
}

std::shared_ptr<SocketTransport::PendingOp> SocketTransport::submit_op(
    Node& node, MsgKind kind, std::span<const std::uint8_t> body, MsgKind expected) {
  if (!node.socket.valid())
    throw SocketError("node '" + node.name + "': channel is down");
  auto op = std::make_shared<PendingOp>();
  op->corr = node.next_corr++;
  op->sent = kind;
  op->expected = expected;
  encode_frame(node.outbox, kind, body, op->corr);
  ++node.outbox_frames;
  node.pending.push_back(op);
  return op;
}

void SocketTransport::flush_locked(Node& node) {
  if (node.outbox.empty()) return;
  if (node.outbox_frames > 1) pipelined_sends_.fetch_add(1, std::memory_order_relaxed);
  frames_sent_.fetch_add(node.outbox_frames, std::memory_order_relaxed);
  // Moved out before the write: a mid-write failure must not leave half-sent
  // bytes queued for a retry on the (recovered) channel.
  const std::vector<std::uint8_t> bytes = std::move(node.outbox);
  node.outbox.clear();
  node.outbox_frames = 0;
  write_bytes(node.socket.fd(), bytes);
}

void SocketTransport::drain_one_locked(Node& node) {
  if (node.pending.empty())
    throw SocketError("node '" + node.name + "': reply arrived with no frame outstanding");
  Frame reply = read_frame(node.socket.fd());
  const std::shared_ptr<PendingOp> op = node.pending.front();
  if (reply.corr != op->corr)
    throw SocketError("node '" + node.name + "': correlation desync — expected id " +
                      std::to_string(op->corr) + ", got id " + std::to_string(reply.corr) +
                      " (reply kind " + std::to_string(static_cast<int>(reply.kind)) + ")");
  node.pending.pop_front();
  if (node.ping_op == op) node.ping_op.reset();
  if (reply.kind == MsgKind::kErrorState) {
    // A fresh worker incarnation (respawned after a death that some *other*
    // call already paid for) has no per-request state for this request. The
    // channel itself is healthy: the engine can reopen the request on the
    // named node, re-seed its lost slots, and re-run only the interrupted
    // tier.
    WireReader r(reply.body);
    const std::string lost = r.str();
    const std::string message = r.str();
    op->error = std::make_exception_ptr(
        ChannelDied(lost, /*channel_restored=*/true,
                    "node '" + lost + "' lost its per-request state (" + message +
                        "); reopen + re-seed to recover"));
  } else if (reply.kind == MsgKind::kFenced) {
    // A successor coordinator (higher fencing epoch) owns this worker: the
    // verb was rejected before any state mutation. The channel is healthy and
    // the worker state intact — deliberately NO recovery here; the error
    // surfaces to the deposed coordinator's caller, which must stop driving
    // these workers.
    WireReader r(reply.body);
    op->error = std::make_exception_ptr(Fenced(node.name, r.u64()));
  } else if (reply.kind == MsgKind::kBundleMismatch) {
    // The worker holds different weights than the elided kConfig named (a
    // stale boot bundle, or none at all): version skew, rejected before any
    // state mutation. Like Fenced, the channel is healthy and there is
    // nothing to recover — the operator must redistribute matching bundles.
    WireReader r(reply.body);
    op->error = std::make_exception_ptr(BundleMismatch(node.name, r.u64(), weights_hash_));
  } else if (reply.kind == MsgKind::kError) {
    WireReader r(reply.body);
    op->error =
        std::make_exception_ptr(TransportError("node '" + node.name + "': " + r.str()));
  } else if (reply.kind != op->expected) {
    op->error = std::make_exception_ptr(TransportError(
        "node '" + node.name + "': unexpected reply kind " +
        std::to_string(static_cast<int>(reply.kind)) + " to request kind " +
        std::to_string(static_cast<int>(op->sent))));
  } else {
    // A drained kPong is proof of life no matter which caller drained it.
    if (op->sent == MsgKind::kPing) node.misses.store(0, std::memory_order_relaxed);
    if (op->is_fetch) {
      payload_bytes_fetched_.fetch_add(reply.body.size(), std::memory_order_relaxed);
      try {
        op->tensor = decode_tensor(std::span<const std::uint8_t>(reply.body));
      } catch (const std::exception&) {
        op->error = std::current_exception();
      }
    }
    op->reply = std::move(reply);
  }
  op->completed.store(true, std::memory_order_release);
}

void SocketTransport::fail_pending_and_recover_locked(Node& node, const std::string& error) {
  std::deque<std::shared_ptr<PendingOp>> failed;
  failed.swap(node.pending);
  node.outbox.clear();
  node.outbox_frames = 0;
  node.ping_op.reset();
  try {
    recover_locked(node, error);  // always throws
  } catch (...) {
    // Every op queued on the dead socket shares the recovery outcome: a parked
    // waiter learns of the death (and whether the channel was restored) from
    // its own handle, exactly like a blocking caller would from the throw.
    const std::exception_ptr outcome = std::current_exception();
    for (const std::shared_ptr<PendingOp>& op : failed) {
      if (op->completed.load(std::memory_order_acquire)) continue;
      op->error = outcome;
      op->completed.store(true, std::memory_order_release);
    }
    throw;
  }
}

Frame SocketTransport::roundtrip_locked(Node& node, MsgKind kind,
                                        std::span<const std::uint8_t> body, MsgKind expected) {
  const std::shared_ptr<PendingOp> op = submit_op(node, kind, body, expected);
  flush_locked(node);
  // Replies are strictly FIFO per channel: earlier issued-but-unanswered
  // frames (pipelined async ops, an outstanding heartbeat ping) complete
  // first, then this one.
  while (!op->completed.load(std::memory_order_acquire)) drain_one_locked(node);
  if (op->error) std::rethrow_exception(op->error);
  return std::move(op->reply);
}

void SocketTransport::drop_channel_locked(Node& node) {
  node.socket.close();
  node.pending.clear();
  node.outbox.clear();
  node.outbox_frames = 0;
  node.ping_op.reset();
  node.misses.store(0, std::memory_order_relaxed);
}

void SocketTransport::redial_locked(Node& node) {
  drop_channel_locked(node);
  node.socket = node.reconnect();
  node.peer = describe_peer(node.socket.fd());
  // A fresh process knows nothing: replay the cached deployment so the
  // channel is immediately serviceable.
  if (!node.config_body.empty())
    roundtrip_locked(node, MsgKind::kConfig, node.config_body, MsgKind::kOk);
}

void SocketTransport::recover_locked(Node& node, const std::string& error) {
  // Heartbeat and correlation bookkeeping was about the dead socket. (Callers
  // with queued ops move them out first — fail_pending_and_recover_locked
  // completes them with this recovery's outcome; anything still here belonged
  // to no live waiter.)
  drop_channel_locked(node);
  if (!node.reconnect)
    throw ChannelDied(node.name, /*channel_restored=*/false,
                      "node '" + node.name + "' (peer " + node.peer +
                          ") died mid-request (" + error +
                          "); no reconnect hook registered, node stays detached");
  std::chrono::milliseconds backoff = node.retry.initial_backoff;
  std::string last = error;
  for (int attempt = 1; attempt <= node.retry.max_attempts; ++attempt) {
    std::this_thread::sleep_for(backoff);
    backoff = std::chrono::milliseconds(static_cast<std::chrono::milliseconds::rep>(
        static_cast<double>(backoff.count()) * node.retry.backoff_multiplier));
    try {
      redial_locked(node);
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      // The channel is healthy again, but this worker incarnation never saw
      // the in-flight request's kBegin/kPut history — the engine must reopen
      // the request and re-seed the lost slots (tier-granular recovery), or
      // replay the request end-to-end (identical either way, by the
      // transcript-purity invariant).
      throw ChannelDied(node.name, /*channel_restored=*/true,
                        "node '" + node.name + "' died mid-request (" + error +
                            "); channel re-established after " + std::to_string(attempt) +
                            " attempt(s) — reopen + re-seed, or replay the request");
    } catch (const ChannelDied&) {
      throw;  // recovery outcome, not a retryable failure
    } catch (const Fenced&) {
      throw;  // deposed, not disconnected: no amount of retrying helps
    } catch (const BundleMismatch&) {
      throw;  // version skew, not a transient failure: retrying cannot help
    } catch (const std::exception& e) {
      node.socket.close();
      last = e.what();
    }
  }
  throw ChannelDied(node.name, /*channel_restored=*/false,
                    "node '" + node.name + "' (peer " + node.peer +
                        ") died mid-request (" + error + ") and reconnect failed after " +
                        std::to_string(node.retry.max_attempts) + " attempts: " + last);
}

// AsyncOp over one queued frame. poll()/wait() flush the node's outbox (the
// frame may still be sitting there unsent) and drain replies — in FIFO order,
// so they may complete *earlier* ops first; completion failures (including a
// channel death, which runs full recovery) land in `error` instead of being
// thrown, so a parked caller can always settle every handle it holds before
// acting on any of them.
class SocketTransport::SocketOp final : public Transport::AsyncOp {
 public:
  SocketOp(SocketTransport& transport, Node& node, std::shared_ptr<PendingOp> op,
           std::uint64_t issue_bytes)
      : transport_(&transport), node_(&node), op_(std::move(op)) {
    bytes = issue_bytes;
  }

  bool poll() override { return advance(/*block=*/false); }
  void wait() override { advance(/*block=*/true); }
  bool settled() const override {
    return done_ || op_->completed.load(std::memory_order_acquire);
  }
  int fd() override {
    if (settled()) return -1;
    std::lock_guard<std::mutex> lock(node_->mutex);
    // The frame must actually be on the wire before readiness of this fd can
    // mean anything to a reactor.
    try {
      transport_->flush_locked(*node_);
    } catch (const SocketError& e) {
      fail_locked(e);
      return -1;
    }
    return node_->socket.valid() ? node_->socket.fd() : -1;
  }

 private:
  bool advance(bool block) {
    if (done_) return true;
    std::lock_guard<std::mutex> lock(node_->mutex);
    try {
      if (!op_->completed.load(std::memory_order_acquire)) {
        transport_->flush_locked(*node_);
        while (!op_->completed.load(std::memory_order_acquire)) {
          if (!block) {
            const int fds[] = {node_->socket.fd()};
            if (poll_readable(fds, 0) < 0) return false;  // no reply bytes yet
          }
          transport_->drain_one_locked(*node_);
        }
      }
    } catch (const SocketError& e) {
      fail_locked(e);
      return true;
    }
    return finish_locked();
  }

  // Socket-level failure: run channel recovery and surface its outcome
  // (ChannelDied) through `error` — poll()/wait()/fd() never throw.
  void fail_locked(const SocketError& e) {
    try {
      transport_->fail_pending_and_recover_locked(*node_, e.what());
    } catch (...) {
      if (!op_->completed.load(std::memory_order_acquire)) {
        op_->error = std::current_exception();
        op_->completed.store(true, std::memory_order_release);
      }
    }
    finish_locked();
  }

  bool finish_locked() {
    error = op_->error;
    if (!error && op_->tensor) tensor = std::move(op_->tensor);
    if (!error && op_->is_fetch) bytes = op_->reply.body.size();
    done_ = true;
    return true;
  }

  SocketTransport* transport_;
  Node* node_;
  std::shared_ptr<PendingOp> op_;
  bool done_ = false;
};

Transport::OpHandle SocketTransport::issue_call(Node& node, MsgKind kind,
                                                std::span<const std::uint8_t> body,
                                                MsgKind expected, bool is_fetch,
                                                std::uint64_t issue_bytes) {
  std::lock_guard<std::mutex> lock(node.mutex);
  try {
    std::shared_ptr<PendingOp> op = submit_op(node, kind, body, expected);
    op->is_fetch = is_fetch;
    return OpHandle(std::make_shared<SocketOp>(*this, node, std::move(op), issue_bytes));
  } catch (const SocketError& e) {
    fail_pending_and_recover_locked(node, e.what());  // issue-time failures throw
  }
}

Frame SocketTransport::call(Node& node, MsgKind kind, std::span<const std::uint8_t> body,
                            MsgKind expected) {
  std::lock_guard<std::mutex> lock(node.mutex);
  try {
    return roundtrip_locked(node, kind, body, expected);
  } catch (const SocketError& e) {
    fail_pending_and_recover_locked(node, e.what());  // always throws
  }
}

void SocketTransport::configure(const std::string& model_name, const dnn::Network& net,
                                const exec::WeightStore& weights,
                                std::span<const std::uint8_t> plan_binary,
                                std::size_t vsm_workers) {
  weights_hash_ = weights_hash(weights, net);
  for (auto& [name, node] : nodes_) {
    if (node->detached.load(std::memory_order_acquire)) continue;
    std::vector<std::uint8_t> bundle_bytes;
    {  // scoped: the compiled shard is freed before the body copies it
      core::DeploymentBundle bundle =
          core::compile_bundle(net, weights, plan_binary, name,
                               static_cast<std::uint32_t>(vsm_workers), weights_hash_,
                               elide_weights_);
      bundle.model_name = model_name;
      bundle_bytes = core::encode_bundle(bundle);
    }
    // The fencing epoch leads the body so workers can gate before decoding the
    // bundle; it rides the cached body too, so the kConfig replay after a
    // reconnect carries this coordinator's incarnation automatically.
    WireWriter w;
    w.u64(epoch_);
    node->config_body = w.take();
    node->config_body.insert(node->config_body.end(), bundle_bytes.begin(), bundle_bytes.end());
    config_bytes_sent_.fetch_add(node->config_body.size(), std::memory_order_relaxed);
    call(*node, MsgKind::kConfig, node->config_body);
  }
}

void SocketTransport::set_reconnect(const std::string& node_name, ReconnectFn fn,
                                    RetryPolicy policy) {
  // Deliberately not find(): a detached (pruned) tile worker must be reachable
  // here, because a late reconnect hook is its ticket back into the shard map.
  const auto it = nodes_.find(node_name);
  if (it == nodes_.end())
    throw TransportError("set_reconnect: node '" + node_name + "' is not attached");
  Node& node = *it->second;
  {
    std::lock_guard<std::mutex> lock(node.mutex);
    node.reconnect = std::move(fn);
    node.retry = policy;
  }
  if (node.detached.load(std::memory_order_acquire)) readmit(node);
}

void SocketTransport::readmit(Node& node) {
  {
    // Configured before the worker rejoins the shard map, so the first tile
    // call it sees is serviceable.
    std::lock_guard<std::mutex> lock(node.mutex);
    redial_locked(node);
  }
  std::lock_guard<std::mutex> lock(shard_mutex_);
  node.detached.store(false, std::memory_order_release);
  tile_workers_.push_back(&node);
  // Shard order must be a pure function of the attached set, not of the
  // prune/rejoin history, or tile -> worker routing (and with it which
  // channels carry which bytes) would depend on failure timing. Sorting by
  // (length, name) restores attachment order: edge1 < edge2 < ... < edge10.
  std::sort(tile_workers_.begin(), tile_workers_.end(), [](const Node* a, const Node* b) {
    return std::make_pair(a->name.size(), a->name) < std::make_pair(b->name.size(), b->name);
  });
  readmitted_workers_.fetch_add(1, std::memory_order_relaxed);
}

void SocketTransport::set_advertised_address(const std::string& node_name,
                                             std::string address) {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  advertised_addresses_[node_name] = std::move(address);
}

std::string SocketTransport::advertised_address(const Node& to) const {
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    const auto it = advertised_addresses_.find(to.name);
    if (it != advertised_addresses_.end()) return it->second;
  }
  // The coordinator-observed address of the node's own channel: a sibling
  // worker on the coordinator's network reaches the node by the same route
  // the coordinator does. (A hardcoded 127.0.0.1 here used to break every
  // off-host peer channel.)
  return peer_address(to.socket.fd());
}

void SocketTransport::link_peers(Node& from, Node& to) {
  observe(MsgKind::kPeerListen, to.name);
  WireWriter listen;
  const Frame port_reply = call(to, MsgKind::kPeerListen, listen.buffer());
  WireReader pr(port_reply.body);
  const std::uint32_t port = pr.u32();
  pr.expect_end("peer-listen reply");
  // The receiver is now listening but the dialling leg has not run: the
  // worker-side kPeerHello handshake this window ends in is the observable
  // point a fault injector targets to kill `to` between the two legs.
  observe(MsgKind::kPeerHello, to.name);
  WireWriter w;
  w.str(to.name);
  w.str(advertised_address(to));
  w.u32(port);
  observe(MsgKind::kConnectPeer, from.name);
  call(from, MsgKind::kConnectPeer, w.buffer());
}

void SocketTransport::connect_peers() {
  peers_enabled_ = true;
  // Full mesh over the tier nodes, deliberately: besides the cloud-ward
  // device->edge->cloud flow, Prop.-1 deferred consumers legitimately push
  // *backwards* (a cloud-computed tensor consumed by an edge- or
  // device-assigned layer at the cloud stage), so every ordered pair is
  // reachable. Tile workers are excluded — the coordinator mediates all tile
  // traffic.
  const auto is_tile_worker = [&](Node* n) {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    return std::find(tile_workers_.begin(), tile_workers_.end(), n) != tile_workers_.end();
  };
  for (auto& [from_name, from] : nodes_) {
    if (is_tile_worker(from.get())) continue;
    for (auto& [to_name, to] : nodes_) {
      if (from.get() == to.get() || is_tile_worker(to.get())) continue;
      link_peers(*from, *to);
    }
  }
}

std::uint64_t SocketTransport::open_request() {
  std::vector<OpHandle> ops;
  const std::uint64_t id = issue_open_request(ops);
  try {
    for (const OpHandle& op : ops) await(op);
  } catch (...) {
    // Same leak guard as at issue, for a node that failed its kBegin; the
    // kBegin replies still owed settle ahead of the kEnd (per-channel FIFO).
    close_request(id);
    throw;
  }
  return id;
}

std::uint64_t SocketTransport::issue_open_request(std::vector<OpHandle>& ops) {
  const std::uint64_t id = next_request_.fetch_add(1);
  try {
    for (auto& [name, node] : nodes_) {
      if (node->detached.load(std::memory_order_acquire)) continue;
      WireWriter w;
      w.u64(id);
      ops.push_back(issue_call(*node, MsgKind::kBegin, w.buffer()));
    }
  } catch (...) {
    // The caller never learns this id: free the slot state on every node that
    // already began it (kEnd on an unknown id is a no-op), so a death during
    // open cannot leak per-request state in long-lived workers. Outstanding
    // kBegin handles settle ahead of the kEnd (per-channel FIFO).
    close_request(id);
    throw;
  }
  return id;
}

void SocketTransport::open_request_as(std::uint64_t request) {
  // A resumed id must never collide with a fresh one: advance the counter
  // past it before any broadcast can fail.
  std::uint64_t expected = next_request_.load();
  while (expected <= request && !next_request_.compare_exchange_weak(expected, request + 1)) {
  }
  // No close_request on a partial failure, deliberately: the per-request slots
  // the workers still hold ARE the takeover state (kBegin is idempotent and
  // never wipes them); the standby retries or falls back to a full replay.
  for (auto& [name, node] : nodes_) {
    if (node->detached.load(std::memory_order_acquire)) continue;
    WireWriter w;
    w.u64(request);
    call(*node, MsgKind::kBegin, w.buffer());
  }
}

void SocketTransport::close_request(std::uint64_t request) noexcept {
  for (auto& [name, node] : nodes_) {
    if (node->detached.load(std::memory_order_acquire)) continue;
    try {
      WireWriter w;
      w.u64(request);
      // Fire-and-forget: kEnd's kOk carries no information, and awaiting it
      // would stall teardown behind every queued verb still cooking on the
      // worker. Issue the frame, flush it (fd() writes the outbox), and drop
      // the handle — per-channel FIFO retires the reply under whatever
      // touches the channel next, and a reply still unread at channel close
      // dies with the socket.
      issue_call(*node, MsgKind::kEnd, w.buffer()).fd();
    } catch (...) {
      // Teardown path: a dead worker must not mask the original failure.
    }
  }
}

bool SocketTransport::reopen(std::uint64_t request, const std::string& node_name) {
  Node* node = find(node_name);
  if (!node) return false;
  WireWriter w;
  w.u64(request);
  call(*node, MsgKind::kBegin, w.buffer());
  reopens_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t SocketTransport::prune_tile_workers() {
  std::lock_guard<std::mutex> lock(shard_mutex_);
  std::size_t pruned = 0;
  for (auto it = tile_workers_.begin(); it != tile_workers_.end();) {
    Node* worker = *it;
    bool dead = false;
    {
      // recover_locked closed the socket and left no reconnect hook: that is
      // the only state a worker can be in after an unrecoverable death.
      std::lock_guard<std::mutex> node_lock(worker->mutex);
      dead = !worker->socket.valid() && !worker->reconnect;
    }
    if (dead) {
      worker->detached.store(true, std::memory_order_release);
      it = tile_workers_.erase(it);
      ++pruned;
    } else {
      ++it;
    }
  }
  detached_workers_.fetch_add(pruned, std::memory_order_relaxed);
  return pruned;
}

// The blocking verbs below return early for nodes hosted in-process: the base
// issue_* forms they fall back to dispatch to them again.
void SocketTransport::seed(std::uint64_t request, const std::string& node_name,
                           std::uint64_t slot, const dnn::Tensor& tensor) {
  if (!find(node_name)) return;  // node hosted in-process: the coordinator already has it
  await(issue_seed(request, node_name, slot, tensor));
}

std::optional<dnn::Tensor> SocketTransport::send(std::uint64_t request,
                                                 const runtime::MessageRecord& meta,
                                                 std::uint64_t slot,
                                                 const dnn::Tensor& tensor) {
  if (!find(meta.to_node) || slot == kNoSlot) return std::nullopt;  // hosted in-process
  await(issue_send(request, meta, slot, tensor));
  return std::nullopt;
}

void SocketTransport::replicate(std::uint64_t request, const runtime::MessageRecord& meta,
                                std::uint64_t slot, const dnn::Tensor& tensor) {
  if (buddy_name_.empty() || meta.to_node == buddy_name_) return;
  Node* buddy = find(buddy_name_);
  if (!buddy) return;
  try {
    observe(MsgKind::kPutReplica, buddy_name_);
    WireWriter w;
    w.u64(request);
    w.u64(slot);
    // The envelope names the true consumer, not the buddy: a failed-over
    // coordinator hands the stored copy straight to push_peer routing.
    const Envelope env{meta, encode_tensor(tensor)};
    encode_envelope(w, env);
    call(*buddy, MsgKind::kPutReplica, w.buffer());
    replica_pushes_.fetch_add(1, std::memory_order_relaxed);
    replica_bytes_.fetch_add(env.payload.size(), std::memory_order_relaxed);
  } catch (...) {
    // Best-effort by design: losing the buddy only degrades failover back to
    // re-seeding; it must never fail the request being served.
    replica_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::uint64_t SocketTransport::push_peer(Node& from, std::uint64_t request,
                                         const runtime::MessageRecord& meta,
                                         std::uint64_t slot) {
  WireWriter w;
  w.u64(request);
  w.u64(slot);
  encode_envelope(w, Envelope{meta, {}});  // metadata only; the producer owns the payload
  const Frame reply = call(from, MsgKind::kPushPeer, w.buffer());
  WireReader r(reply.body);
  const std::uint64_t bytes = r.u64();
  r.expect_end("push-peer reply");
  return bytes;
}

bool SocketTransport::send_peer(std::uint64_t request, const runtime::MessageRecord& meta,
                                std::uint64_t slot) {
  if (!peers_enabled_ || slot == kNoSlot) return false;
  // Buddy mode pins ship-time payloads to the coordinator (a peer push would
  // leave it with nothing to replicate), so boundary tensors take the relay
  // path + kPutReplica instead. The peer fabric is reserved for failover-time
  // replica_push deliveries.
  if (!buddy_name_.empty()) return false;
  Node* from = find(meta.from_node);
  Node* to = find(meta.to_node);
  if (!from || !to) return false;  // one endpoint hosted in-process: relay path
  std::uint64_t bytes = 0;
  try {
    bytes = push_peer(*from, request, meta, slot);
  } catch (const ChannelDied&) {
    throw;  // coordinator<->worker channel death: replay, don't re-link
  } catch (const Fenced&) {
    throw;  // deposed: a handshake retry cannot regain ownership
  } catch (const TransportError&) {
    // The worker->worker channel may have died with a reconnected peer
    // incarnation (stale listener port, broken pipe, "no peer channel" on a
    // fresh process); re-run the handshake once and retry. A second failure
    // is genuine and propagates (the request is replayable).
    link_peers(*from, *to);
    bytes = push_peer(*from, request, meta, slot);
  }
  peer_pushes_.fetch_add(1, std::memory_order_relaxed);
  peer_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

bool SocketTransport::replica_push(std::uint64_t request, const runtime::MessageRecord& meta,
                                   std::uint64_t slot) {
  if (buddy_name_.empty() || slot == kNoSlot) return false;
  Node* buddy = find(buddy_name_);
  Node* to = find(meta.to_node);
  if (!buddy || !to || buddy == to) return false;
  // The push is speculative — a standby cannot know which ships the dead
  // coordinator got replicated before dying. A buddy that never stored the
  // slot answers kErrorState naming itself (ChannelDied with its name), and
  // any buddy-side failure means the same thing to the caller: fall back to
  // materialize + send.
  const auto buddy_failed = [&](const ChannelDied& e) { return e.node() == buddy_name_; };
  std::uint64_t bytes = 0;
  try {
    try {
      bytes = push_peer(*buddy, request, meta, slot);
    } catch (const ChannelDied& e) {
      if (buddy_failed(e)) return false;
      throw;  // destination-side state loss: the caller's recovery problem
    } catch (const Fenced&) {
      throw;  // deposed: a handshake retry cannot regain ownership
    } catch (const TransportError&) {
      // A fresh standby has no peer channels yet: re-run the handshake once.
      link_peers(*buddy, *to);
      bytes = push_peer(*buddy, request, meta, slot);
    }
  } catch (const ChannelDied& e) {
    if (buddy_failed(e)) return false;
    throw;
  } catch (const Fenced&) {
    throw;
  } catch (const TransportError&) {
    return false;
  }
  peer_pushes_.fetch_add(1, std::memory_order_relaxed);
  peer_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  replica_restores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SocketTransport::run_layer(std::uint64_t request, const std::string& node_name,
                                dnn::LayerId layer) {
  OpHandle op = issue_run_layer(request, node_name, layer);
  if (!op) return false;
  await(std::move(op));
  return true;
}

bool SocketTransport::run_stack(std::uint64_t request, const std::string& node_name) {
  OpHandle op = issue_run_stack(request, node_name);
  if (!op) return false;
  await(std::move(op));
  return true;
}

dnn::Tensor SocketTransport::fetch(std::uint64_t request, const std::string& node_name,
                                   std::uint64_t slot) {
  return std::move(*await(issue_fetch(request, node_name, slot)).tensor());
}

Transport::OpHandle SocketTransport::issue_put(std::uint64_t request, Node& node,
                                               const runtime::MessageRecord& meta,
                                               std::uint64_t slot, const dnn::Tensor& tensor) {
  WireWriter w;
  w.u64(request);
  w.u64(slot);
  const Envelope env{meta, encode_tensor(tensor)};
  payload_bytes_sent_.fetch_add(env.payload.size(), std::memory_order_relaxed);
  encode_envelope(w, env);
  return issue_call(node, MsgKind::kPut, w.buffer(), MsgKind::kOk, /*is_fetch=*/false,
                    env.payload.size());
}

Transport::OpHandle SocketTransport::issue_seed(std::uint64_t request,
                                                const std::string& node_name,
                                                std::uint64_t slot, const dnn::Tensor& tensor) {
  Node* node = find(node_name);
  // In-process node: the base default (a completed no-op) keeps semantics.
  if (!node) return Transport::issue_seed(request, node_name, slot, tensor);
  runtime::MessageRecord meta;
  meta.from_node = node_name;
  meta.to_node = node_name;
  meta.payload = "seed";
  return issue_put(request, *node, meta, slot, tensor);
}

Transport::OpHandle SocketTransport::issue_send(std::uint64_t request,
                                                const runtime::MessageRecord& meta,
                                                std::uint64_t slot, const dnn::Tensor& tensor) {
  Node* node = find(meta.to_node);
  if (!node || slot == kNoSlot) return Transport::issue_send(request, meta, slot, tensor);
  OpHandle handle = issue_put(request, *node, meta, slot, tensor);
  // The producer is itself a remote node, so the coordinator just moved bytes
  // it neither produced nor consumes: that is the star topology's relay tax.
  if (find(meta.from_node) != nullptr)
    relay_bytes_.fetch_add(handle.bytes(), std::memory_order_relaxed);
  // Buddy replication stays synchronous and best-effort: it rides the buddy's
  // own channel, so it cannot serialize behind this node's pending queue.
  replicate(request, meta, slot, tensor);
  return handle;
}

Transport::OpHandle SocketTransport::issue_run_layer(std::uint64_t request,
                                                     const std::string& node_name,
                                                     dnn::LayerId layer) {
  Node* node = find(node_name);
  if (!node) return OpHandle{};  // not remote: invalid handle = run it locally
  WireWriter w;
  w.u64(request);
  w.u64(layer);
  return issue_call(*node, MsgKind::kRunLayer, w.buffer());
}

Transport::OpHandle SocketTransport::issue_run_stack(std::uint64_t request,
                                                     const std::string& node_name) {
  Node* node = find(node_name);
  if (!node) return OpHandle{};
  WireWriter w;
  w.u64(request);
  return issue_call(*node, MsgKind::kRunStack, w.buffer());
}

Transport::OpHandle SocketTransport::issue_fetch(std::uint64_t request,
                                                 const std::string& node_name,
                                                 std::uint64_t slot) {
  Node* node = find(node_name);
  if (!node)
    throw TransportError("fetch: node '" + node_name + "' is not attached");
  WireWriter w;
  w.u64(request);
  w.u64(slot);
  return issue_call(*node, MsgKind::kGet, w.buffer(), MsgKind::kTensor, /*is_fetch=*/true);
}

void SocketTransport::put_tile(std::uint64_t request, const runtime::MessageRecord& meta,
                               std::size_t tile, const dnn::Tensor& input) {
  Node& worker = tile_worker(tile);
  WireWriter w;
  w.u64(request);
  w.u64(tile);
  const Envelope env{meta, encode_tensor(input)};
  payload_bytes_sent_.fetch_add(env.payload.size(), std::memory_order_relaxed);
  encode_envelope(w, env);
  call(worker, MsgKind::kPutTile, w.buffer());
}

void SocketTransport::run_tile(std::uint64_t request, std::size_t tile) {
  Node& worker = tile_worker(tile);
  WireWriter w;
  w.u64(request);
  w.u64(tile);
  call(worker, MsgKind::kRunTile, w.buffer());
}

dnn::Tensor SocketTransport::fetch_tile(std::uint64_t request, std::size_t tile) {
  Node& worker = tile_worker(tile);
  WireWriter w;
  w.u64(request);
  w.u64(tile);
  const Frame reply = call(worker, MsgKind::kGetTile, w.buffer(), MsgKind::kTensor);
  payload_bytes_fetched_.fetch_add(reply.body.size(), std::memory_order_relaxed);
  return decode_tensor(std::span<const std::uint8_t>(reply.body));
}

void SocketTransport::enable_heartbeats(HeartbeatPolicy policy) {
  heartbeat_policy_ = policy;
  heartbeats_ = true;
  const std::int64_t now = now_ms();
  for (auto& [name, node] : nodes_)
    node->last_probe_ms.store(now, std::memory_order_relaxed);
}

std::vector<std::string> SocketTransport::heartbeat_targets() {
  std::vector<std::string> due;
  if (!heartbeats_) return due;
  const std::int64_t now = now_ms();
  for (auto& [name, node] : nodes_) {
    if (node->detached.load(std::memory_order_acquire)) continue;
    if (now - node->last_probe_ms.load(std::memory_order_relaxed) >=
        heartbeat_policy_.interval.count())
      due.push_back(name);
  }
  return due;
}

int SocketTransport::heartbeat_due_ms() {
  if (!heartbeats_) return -1;
  const std::int64_t now = now_ms();
  std::int64_t soonest = -1;
  for (auto& [name, node] : nodes_) {
    if (node->detached.load(std::memory_order_acquire)) continue;
    std::int64_t due = node->last_probe_ms.load(std::memory_order_relaxed) +
                       heartbeat_policy_.interval.count() - now;
    if (due < 0) due = 0;
    if (soonest < 0 || due < soonest) soonest = due;
  }
  return static_cast<int>(soonest);
}

void SocketTransport::ping(const std::string& node_name) {
  if (!heartbeats_) return;
  Node* node = find(node_name);
  if (!node) return;
  node->last_probe_ms.store(now_ms(), std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(node->mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // A real call holds the channel right now: traffic is a stronger liveness
    // signal than any probe, and blocking here would serialize the prober
    // behind request latency.
    node->misses.store(0, std::memory_order_relaxed);
    return;
  }
  pings_.fetch_add(1, std::memory_order_relaxed);
  try {
    if (!node->socket.valid())
      throw SocketError("node '" + node->name + "': channel is down");
    // At most one kPing is ever outstanding: a missed probe waits for the owed
    // kPong on later rounds instead of stacking new pings on the stream.
    if (!node->ping_op) {
      node->ping_op = submit_op(*node, MsgKind::kPing, {}, MsgKind::kPong);
      flush_locked(*node);
    }
    const std::shared_ptr<PendingOp> probe = node->ping_op;
    const int timeout = static_cast<int>(heartbeat_policy_.timeout.count());
    while (!probe->completed.load(std::memory_order_acquire)) {
      const int fds[] = {node->socket.fd()};
      if (poll_readable(fds, timeout) < 0) {
        const int missed = node->misses.fetch_add(1, std::memory_order_relaxed) + 1;
        if (missed < heartbeat_policy_.miss_threshold) return;  // suspect, not dead yet
        heartbeat_deaths_.fetch_add(1, std::memory_order_relaxed);
        fail_pending_and_recover_locked(
            *node, "missed " + std::to_string(missed) + " heartbeat probe(s) (peer " +
                       node->peer + ")");
      }
      // Whatever is readable first may be an earlier op's reply (the queue is
      // FIFO): drain in order until the probe's own kPong lands. Any async op
      // this completes is picked up by its holder's settled() sweep.
      drain_one_locked(*node);
    }
    if (probe->error) {
      // A kPong answered with an error/mismatched kind is a desync, which is
      // channel-fatal exactly like a socket failure on the probe.
      try {
        std::rethrow_exception(probe->error);
      } catch (const ChannelDied&) {
        throw;
      } catch (const Fenced&) {
        throw;  // deposed coordinator pinging a taken-over worker: not a death
      } catch (const std::exception& e) {
        throw SocketError(e.what());
      }
    }
    node->misses.store(0, std::memory_order_relaxed);
  } catch (const SocketError& e) {
    // A closed or half-dead socket (SIGKILLed worker: poll reports readable,
    // the read sees EOF) is detected on the first probe — no threshold wait.
    heartbeat_deaths_.fetch_add(1, std::memory_order_relaxed);
    fail_pending_and_recover_locked(*node, e.what());  // always throws ChannelDied
  }
}

// --- WorkerProcess -----------------------------------------------------------

namespace {

// Polled by tcp_accept between waits; reaps the child and flips the pid to -1
// when it died before connecting, so the constructor fails fast.
bool child_exited(void* arg) {
  pid_t* pid = static_cast<pid_t*>(arg);
  if (*pid < 0) return true;
  int status = 0;
  if (::waitpid(*pid, &status, WNOHANG) == *pid) {
    *pid = -1;
    return true;
  }
  return false;
}

}  // namespace

WorkerProcess::WorkerProcess(const std::string& binary) : WorkerProcess(binary, {}) {}

WorkerProcess::WorkerProcess(const std::string& binary,
                             const std::vector<std::string>& extra_args)
    : WorkerProcess(binary, extra_args, "127.0.0.1") {}

WorkerProcess::WorkerProcess(const std::string& binary,
                             const std::vector<std::string>& extra_args,
                             const std::string& host) {
  std::uint16_t port = 0;
  Socket listener = tcp_listen_on(host, port);
  const std::string port_str = std::to_string(port);

  // argv assembled before the fork: only async-signal-safe calls may run in
  // the child, and these vectors stay alive in both processes until exec.
  std::vector<std::string> args = {binary, "--connect", host, port_str};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw SocketError("fork failed");
  if (pid_ == 0) {
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed (missing binary)
  }
  pid_t alive = pid_;  // flipped to -1 by child_exited once reaped
  try {
    socket_ = tcp_accept(listener, 30000, &child_exited, &alive);
  } catch (const SocketError& e) {
    if (alive >= 0) {  // child still running (accept timed out rather than child death)
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    // Name the binary: "accept timed out" alone cannot tell a missing worker
    // executable from a genuine network failure.
    throw SocketError("worker '" + binary + "' never connected back: " + e.what());
  } catch (...) {
    if (alive >= 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
    throw;
  }
}

Socket WorkerProcess::take_socket() {
  if (!socket_.valid()) throw SocketError("worker socket already taken");
  return std::move(socket_);
}

WorkerProcess::~WorkerProcess() {
  if (pid_ < 0) return;
  socket_.close();  // EOF tells the worker to exit its serve loop
  int status = 0;
  for (int waited_ms = 0; waited_ms < 5000; waited_ms += 20) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
}

// --- ListenWorkerProcess -----------------------------------------------------

ListenWorkerProcess::ListenWorkerProcess(const std::string& binary)
    : ListenWorkerProcess(binary, {}) {}

ListenWorkerProcess::ListenWorkerProcess(const std::string& binary,
                                         const std::vector<std::string>& extra_args) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw SocketError("pipe failed");

  std::vector<std::string> args = {binary, "--listen", "0"};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw SocketError("fork failed");
  }
  if (pid_ == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed (missing binary)
  }
  ::close(pipe_fds[1]);
  // The worker prints and flushes "PORT <n>\n" before its first accept, so a
  // byte-wise blocking read to the newline cannot hang past worker startup
  // (exec failure closes the pipe and breaks the loop with EOF).
  std::string line;
  char ch = 0;
  while (line.size() < 64) {
    const ssize_t n = ::read(pipe_fds[0], &ch, 1);
    if (n <= 0 || ch == '\n') break;
    line.push_back(ch);
  }
  ::close(pipe_fds[0]);
  unsigned long port = 0;
  if (line.rfind("PORT ", 0) == 0) {
    try {
      port = std::stoul(line.substr(5));
    } catch (const std::exception&) {
      port = 0;
    }
  }
  if (port == 0 || port > 65535) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    throw SocketError("worker '" + binary + "' (--listen) did not report a port (got \"" +
                      line + "\")");
  }
  port_ = static_cast<std::uint16_t>(port);
}

Socket ListenWorkerProcess::dial() const { return tcp_connect("127.0.0.1", port_); }

ListenWorkerProcess::~ListenWorkerProcess() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);  // works on stopped children too (tests SIGSTOP them)
  ::waitpid(pid_, nullptr, 0);
}

}  // namespace d3::rpc
