#include "rpc/fault_injection.h"

#include <stdexcept>
#include <thread>

#include "rpc/socket_transport.h"

namespace d3::rpc {

FaultInjectionTransport::FaultInjectionTransport(std::shared_ptr<Transport> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("FaultInjectionTransport: null inner transport");
  // The peer handshake legs never cross the Transport interface; the observer
  // routes them into the same fault plan. The observer throwing
  // (Action::kFail) propagates exactly like the wire call it precedes failing.
  if (auto* socket = dynamic_cast<SocketTransport*>(inner_.get())) {
    socket->set_op_observer([this](MsgKind kind, const std::string& node) {
      switch (kind) {
        case MsgKind::kPeerListen:
          enter(Op::kPeerListen, node);
          break;
        case MsgKind::kConnectPeer:
          enter(Op::kConnectPeer, node);
          break;
        case MsgKind::kPeerHello:
          enter(Op::kPeerHello, node);
          break;
        default:
          break;  // future observer points count as nothing until mapped
      }
    });
  }
}

void FaultInjectionTransport::set_kill_handler(std::function<void(const std::string&)> handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  kill_ = std::move(handler);
}

void FaultInjectionTransport::schedule(Fault fault) {
  if (fault.nth == 0) throw std::invalid_argument("FaultInjectionTransport: nth is 1-based");
  std::lock_guard<std::mutex> lock(mutex_);
  plan_.push_back(Scheduled{fault, 0, false});
}

std::uint64_t FaultInjectionTransport::op_count(Op op, const std::string& node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!node.empty()) {
    const auto it = counts_.find({op, node});
    return it == counts_.end() ? 0 : it->second;
  }
  std::uint64_t total = 0;
  for (const auto& [key, count] : counts_)
    if (key.first == op) total += count;
  return total;
}

FaultInjectionTransport::Stats FaultInjectionTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool FaultInjectionTransport::enter(Op op, const std::string& node) {
  // Decide every due action under the lock, act on it outside: the kill
  // handler and delays must not serialise other transport traffic.
  std::function<void(const std::string&)> kill;
  std::string kill_target;
  std::chrono::milliseconds delay{0};
  bool duplicate = false;
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.ops;
    ++counts_[{op, node}];
    for (Scheduled& scheduled : plan_) {
      const Fault& fault = scheduled.fault;
      if (scheduled.fired) continue;
      if (fault.op != Op::kAny && fault.op != op) continue;
      if (!fault.node.empty() && fault.node != node) continue;
      if (++scheduled.seen != fault.nth) continue;
      scheduled.fired = true;
      ++stats_.faults_injected;
      switch (fault.action) {
        case Action::kKill:
          if (!kill_)
            throw std::logic_error("FaultInjectionTransport: kKill without a kill handler");
          kill = kill_;
          kill_target = fault.kill_node.empty() ? node : fault.kill_node;
          ++stats_.kills;
          break;
        case Action::kFail:
          fail = true;
          ++stats_.synthetic_failures;
          break;
        case Action::kDelay:
          delay += fault.delay;
          ++stats_.delays;
          break;
        case Action::kDuplicate:
          duplicate = true;
          ++stats_.duplicates;
          break;
      }
    }
  }
  if (delay.count() > 0) std::this_thread::sleep_for(delay);
  if (kill) kill(kill_target);
  if (fail)
    throw ChannelDied(node, /*channel_restored=*/true,
                      "fault injection: scripted state loss on '" + node + "'");
  return duplicate;
}

std::uint64_t FaultInjectionTransport::open_request() {
  // open_request has no per-node target and allocates the id itself; a
  // duplicate here would leak a request, so only kill/fail/delay make sense.
  enter(Op::kBegin, "");
  return inner_->open_request();
}

void FaultInjectionTransport::close_request(std::uint64_t request) noexcept {
  try {
    enter(Op::kEnd, "");
  } catch (...) {
    // Teardown must stay noexcept; a scripted failure here only counts.
  }
  inner_->close_request(request);
}

void FaultInjectionTransport::seed(std::uint64_t request, const std::string& node,
                                   std::uint64_t slot, const dnn::Tensor& tensor) {
  const bool duplicate = enter(Op::kPut, node);
  inner_->seed(request, node, slot, tensor);
  if (duplicate) inner_->seed(request, node, slot, tensor);
}

std::optional<dnn::Tensor> FaultInjectionTransport::send(std::uint64_t request,
                                                         const runtime::MessageRecord& meta,
                                                         std::uint64_t slot,
                                                         const dnn::Tensor& tensor) {
  const bool duplicate = enter(Op::kPut, meta.to_node);
  if (duplicate) inner_->send(request, meta, slot, tensor);
  return inner_->send(request, meta, slot, tensor);
}

bool FaultInjectionTransport::run_layer(std::uint64_t request, const std::string& node,
                                        dnn::LayerId layer) {
  const bool duplicate = enter(Op::kRunLayer, node);
  if (duplicate) inner_->run_layer(request, node, layer);
  return inner_->run_layer(request, node, layer);
}

bool FaultInjectionTransport::run_stack(std::uint64_t request, const std::string& node) {
  const bool duplicate = enter(Op::kRunStack, node);
  if (duplicate) inner_->run_stack(request, node);
  return inner_->run_stack(request, node);
}

dnn::Tensor FaultInjectionTransport::fetch(std::uint64_t request, const std::string& node,
                                           std::uint64_t slot) {
  const bool duplicate = enter(Op::kGet, node);
  if (duplicate) inner_->fetch(request, node, slot);
  return inner_->fetch(request, node, slot);
}

bool FaultInjectionTransport::send_peer(std::uint64_t request,
                                        const runtime::MessageRecord& meta,
                                        std::uint64_t slot) {
  const bool duplicate = enter(Op::kPushPeer, meta.from_node);
  if (duplicate) inner_->send_peer(request, meta, slot);
  return inner_->send_peer(request, meta, slot);
}

bool FaultInjectionTransport::reopen(std::uint64_t request, const std::string& node) {
  const bool duplicate = enter(Op::kBegin, node);
  if (duplicate) inner_->reopen(request, node);
  return inner_->reopen(request, node);
}

void FaultInjectionTransport::open_request_as(std::uint64_t request) {
  // Failover takeover: counts as a kBegin like open_request (it broadcasts
  // kBegin frames), and kBegin's idempotence makes a duplicate harmless.
  const bool duplicate = enter(Op::kBegin, "");
  inner_->open_request_as(request);
  if (duplicate) inner_->open_request_as(request);
}

void FaultInjectionTransport::ping(const std::string& node) {
  const bool duplicate = enter(Op::kPing, node);
  inner_->ping(node);
  if (duplicate) inner_->ping(node);
}

void FaultInjectionTransport::put_tile(std::uint64_t request,
                                       const runtime::MessageRecord& meta, std::size_t tile,
                                       const dnn::Tensor& input) {
  const bool duplicate = enter(Op::kPutTile, inner_->tile_node(tile));
  inner_->put_tile(request, meta, tile, input);
  if (duplicate) inner_->put_tile(request, meta, tile, input);
}

void FaultInjectionTransport::run_tile(std::uint64_t request, std::size_t tile) {
  const bool duplicate = enter(Op::kRunTile, inner_->tile_node(tile));
  inner_->run_tile(request, tile);
  if (duplicate) inner_->run_tile(request, tile);
}

dnn::Tensor FaultInjectionTransport::fetch_tile(std::uint64_t request, std::size_t tile) {
  const bool duplicate = enter(Op::kGetTile, inner_->tile_node(tile));
  if (duplicate) inner_->fetch_tile(request, tile);
  return inner_->fetch_tile(request, tile);
}

}  // namespace d3::rpc
