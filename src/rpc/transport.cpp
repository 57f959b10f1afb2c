#include "rpc/transport.h"

#include <cstring>

#include "rpc/wire.h"

namespace d3::rpc {

void Transport::seed(std::uint64_t, const std::string&, std::uint64_t, const dnn::Tensor&) {}

bool Transport::run_layer(std::uint64_t, const std::string&, dnn::LayerId) { return false; }

bool Transport::run_stack(std::uint64_t, const std::string&) { return false; }

dnn::Tensor Transport::fetch(std::uint64_t, const std::string& node, std::uint64_t) {
  throw TransportError("fetch: node '" + node + "' is not remote on transport '" + name() +
                       "'");
}

namespace {

// An op that was completed synchronously at issue time (the base-class
// issue_* forms, which just run the blocking verb).
class ReadyOp final : public Transport::AsyncOp {
 public:
  bool poll() override { return true; }
  void wait() override {}
};

Transport::OpHandle ready_op() {
  return Transport::OpHandle(std::make_shared<ReadyOp>());
}

}  // namespace

// The issue_* defaults dispatch the blocking verb through `this`, so a
// decorator (FaultInjectionTransport) that overrides only the blocking verbs
// still observes — and may fault — every issued op.
Transport::OpHandle Transport::issue_seed(std::uint64_t request, const std::string& node,
                                          std::uint64_t slot, const dnn::Tensor& tensor) {
  seed(request, node, slot, tensor);
  return ready_op();
}

Transport::OpHandle Transport::issue_send(std::uint64_t request,
                                          const runtime::MessageRecord& meta,
                                          std::uint64_t slot, const dnn::Tensor& tensor) {
  send(request, meta, slot, tensor);
  return ready_op();
}

Transport::OpHandle Transport::issue_run_layer(std::uint64_t request, const std::string& node,
                                               dnn::LayerId layer) {
  return run_layer(request, node, layer) ? ready_op() : OpHandle{};
}

Transport::OpHandle Transport::issue_run_stack(std::uint64_t request,
                                               const std::string& node) {
  return run_stack(request, node) ? ready_op() : OpHandle{};
}

Transport::OpHandle Transport::issue_fetch(std::uint64_t request, const std::string& node,
                                           std::uint64_t slot) {
  OpHandle handle = ready_op();
  handle.tensor() = fetch(request, node, slot);
  return handle;
}

Transport::OpHandle Transport::issue_put_tile(std::uint64_t request,
                                              const runtime::MessageRecord& meta,
                                              std::size_t tile, const dnn::Tensor& input) {
  put_tile(request, meta, tile, input);
  return ready_op();
}

Transport::OpHandle Transport::issue_run_tile(std::uint64_t request, std::size_t tile) {
  run_tile(request, tile);
  return ready_op();
}

Transport::OpHandle Transport::issue_fetch_tile(std::uint64_t request, std::size_t tile) {
  OpHandle handle = ready_op();
  handle.tensor() = fetch_tile(request, tile);
  return handle;
}

std::uint64_t Transport::issue_open_request(std::vector<OpHandle>& ops) {
  (void)ops;
  return open_request();
}

bool Transport::send_peer(std::uint64_t, const runtime::MessageRecord&, std::uint64_t) {
  return false;
}

bool Transport::reopen(std::uint64_t, const std::string&) { return false; }

void Transport::open_request_as(std::uint64_t) {
  throw TransportError("open_request_as: transport '" + name() +
                       "' holds no per-node request state to resume");
}

void Transport::ping(const std::string&) {}

std::vector<std::string> Transport::heartbeat_targets() { return {}; }

int Transport::heartbeat_due_ms() { return -1; }

void Transport::heartbeat_poll() {
  // `this` dispatches the virtuals, so a decorator (FaultInjectionTransport)
  // that overrides ping() observes every probe this driver issues.
  for (const std::string& node : heartbeat_targets()) ping(node);
}

std::string Transport::tile_node(std::size_t) const { return {}; }

void Transport::put_tile(std::uint64_t, const runtime::MessageRecord&, std::size_t,
                         const dnn::Tensor&) {
  throw TransportError("put_tile: transport '" + name() + "' has no tile workers");
}

void Transport::run_tile(std::uint64_t, std::size_t) {
  throw TransportError("run_tile: transport '" + name() + "' has no tile workers");
}

dnn::Tensor Transport::fetch_tile(std::uint64_t, std::size_t) {
  throw TransportError("fetch_tile: transport '" + name() + "' has no tile workers");
}

std::optional<dnn::Tensor> SerializingLoopback::send(std::uint64_t,
                                                     const runtime::MessageRecord& meta,
                                                     std::uint64_t, const dnn::Tensor& tensor) {
  // The full wire path: tensor -> envelope -> framed bytes -> envelope ->
  // tensor, checked bitwise in place: a flipped bit shows even where a later
  // layer would have masked it.
  Envelope env{meta, encode_tensor(tensor)};
  const std::vector<std::uint8_t> wire = encode_envelope(env);
  const Envelope back = decode_envelope(wire);
  if (back.meta.seq != meta.seq || back.meta.bytes != meta.bytes)
    throw TransportError("loopback: envelope metadata did not survive the wire");
  const dnn::Tensor decoded = decode_tensor(back.payload);
  if (!(decoded.shape() == tensor.shape()) ||
      (tensor.size() > 0 &&
       std::memcmp(decoded.data(), tensor.data(), tensor.size() * sizeof(float)) != 0))
    throw TransportError("loopback: tensor '" + meta.payload + "' did not survive the wire");
  messages_.fetch_add(1, std::memory_order_relaxed);
  payload_bytes_.fetch_add(env.payload.size(), std::memory_order_relaxed);
  wire_bytes_.fetch_add(wire.size(), std::memory_order_relaxed);
  return std::nullopt;
}

}  // namespace d3::rpc
