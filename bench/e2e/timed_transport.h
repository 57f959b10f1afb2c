// TimedTransport: a bench-private rpc::Transport decorator that records one
// span per transport verb (bench request index, node, verb, payload bytes,
// steady-clock start/end) and forwards the call unchanged, following the
// rpc::FaultInjectionTransport pattern. This file is the benchmark's only
// coupling to the Transport interface.
//
// It overrides the blocking verbs only. The base issue_* forms call those
// blocking verbs, so an engine driven through this decorator takes the
// blocking walk: traced runs are solo and never feed end-to-end metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rpc/transport.h"

namespace d3::bench_e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::size_t request = 0;  // bench request index (TimedTransport::set_request)
  std::string node;         // "*" for broadcasts (open/close)
  std::string verb;
  std::uint64_t bytes = 0;  // tensor payload bytes the verb moved
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class TimedTransport final : public rpc::Transport {
 public:
  explicit TimedTransport(std::shared_ptr<rpc::Transport> inner) : inner_(std::move(inner)) {}

  // Tags every span recorded from now on (the traced loop is solo, so one
  // request is in flight at a time).
  void set_request(std::size_t request) { request_.store(request, std::memory_order_relaxed); }
  std::vector<Span> take_spans() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

  std::string name() const override { return "timed(" + inner_->name() + ")"; }

  std::uint64_t open_request() override {
    const std::int64_t start = now_ns();
    const std::uint64_t id = inner_->open_request();
    record("open", "*", 0, start);
    return id;
  }
  void close_request(std::uint64_t request) noexcept override {
    const std::int64_t start = now_ns();
    inner_->close_request(request);
    try {
      record("close", "*", 0, start);
    } catch (...) {
      // Teardown stays noexcept; a span lost to allocation failure only
      // shows as unaccounted time.
    }
  }
  void open_request_as(std::uint64_t request) override { inner_->open_request_as(request); }
  void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
            const dnn::Tensor& tensor) override {
    const std::int64_t start = now_ns();
    inner_->seed(request, node, slot, tensor);
    record("seed", node, bytes_of(tensor), start);
  }
  std::optional<dnn::Tensor> send(std::uint64_t request, const runtime::MessageRecord& meta,
                                  std::uint64_t slot, const dnn::Tensor& tensor) override {
    const std::int64_t start = now_ns();
    auto wired = inner_->send(request, meta, slot, tensor);
    record("send", meta.to_node, bytes_of(tensor), start);
    return wired;
  }
  bool run_layer(std::uint64_t request, const std::string& node, dnn::LayerId layer) override {
    const std::int64_t start = now_ns();
    const bool remote = inner_->run_layer(request, node, layer);
    record("run_layer", node, 0, start);
    return remote;
  }
  bool run_stack(std::uint64_t request, const std::string& node) override {
    const std::int64_t start = now_ns();
    const bool remote = inner_->run_stack(request, node);
    record("run_stack", node, 0, start);
    return remote;
  }
  dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                    std::uint64_t slot) override {
    const std::int64_t start = now_ns();
    dnn::Tensor out = inner_->fetch(request, node, slot);
    record("fetch", node, bytes_of(out), start);
    return out;
  }
  bool send_peer(std::uint64_t request, const runtime::MessageRecord& meta,
                 std::uint64_t slot) override {
    const std::int64_t start = now_ns();
    const bool pushed = inner_->send_peer(request, meta, slot);
    record("send_peer", meta.from_node, pushed ? static_cast<std::uint64_t>(meta.bytes) : 0,
           start);
    return pushed;
  }
  bool reopen(std::uint64_t request, const std::string& node) override {
    return inner_->reopen(request, node);
  }
  bool replica_push(std::uint64_t request, const runtime::MessageRecord& meta,
                    std::uint64_t slot) override {
    return inner_->replica_push(request, meta, slot);
  }
  void ping(const std::string& node) override { inner_->ping(node); }
  std::vector<std::string> heartbeat_targets() override { return inner_->heartbeat_targets(); }
  int heartbeat_due_ms() override { return inner_->heartbeat_due_ms(); }
  std::size_t prune_tile_workers() override { return inner_->prune_tile_workers(); }
  bool has_tile_workers() const override { return inner_->has_tile_workers(); }
  std::size_t tile_worker_count() const override { return inner_->tile_worker_count(); }
  std::string tile_node(std::size_t tile) const override { return inner_->tile_node(tile); }
  void put_tile(std::uint64_t request, const runtime::MessageRecord& meta, std::size_t tile,
                const dnn::Tensor& input) override {
    const std::int64_t start = now_ns();
    inner_->put_tile(request, meta, tile, input);
    record("put_tile", inner_->tile_node(tile), bytes_of(input), start);
  }
  void run_tile(std::uint64_t request, std::size_t tile) override {
    const std::int64_t start = now_ns();
    inner_->run_tile(request, tile);
    record("run_tile", inner_->tile_node(tile), 0, start);
  }
  dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile) override {
    const std::int64_t start = now_ns();
    dnn::Tensor out = inner_->fetch_tile(request, tile);
    record("fetch_tile", inner_->tile_node(tile), bytes_of(out), start);
    return out;
  }

 private:
  static std::uint64_t bytes_of(const dnn::Tensor& t) {
    return static_cast<std::uint64_t>(t.shape().bytes());
  }
  // Tile lanes call run_tile concurrently from the engine's pool.
  void record(const char* verb, const std::string& node, std::uint64_t bytes,
              std::int64_t start) {
    const std::int64_t end = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{request_.load(std::memory_order_relaxed), node, verb, bytes, start, end});
  }

  std::shared_ptr<rpc::Transport> inner_;
  std::atomic<std::size_t> request_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace d3::bench_e2e
