#include "runtime/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/vsm_executor.h"
#include "exec/executor.h"
#include "rpc/socket.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "runtime/request_journal.h"

namespace d3::runtime {

namespace {

const char* node_of(core::Tier tier) {
  switch (tier) {
    case core::Tier::kDevice: return "device0";
    case core::Tier::kEdge: return "edge0";
    case core::Tier::kCloud: return "cloud0";
  }
  return "?";
}

// Inverse of node_of: nullopt for tile workers ("edge1".."edgeN") and anything
// else that is not a tier node.
std::optional<core::Tier> tier_of_node(const std::string& node) {
  if (node == "device0") return core::Tier::kDevice;
  if (node == "edge0") return core::Tier::kEdge;
  if (node == "cloud0") return core::Tier::kCloud;
  return std::nullopt;
}

void record(InferenceResult& result, const MessageRecord& meta) {
  result.messages.push_back(meta);
  const int lo = std::min(core::index(meta.from_tier), core::index(meta.to_tier));
  const int hi = std::max(core::index(meta.from_tier), core::index(meta.to_tier));
  if (lo == 0 && hi == 1) result.device_edge_bytes += meta.bytes;
  else if (lo == 1 && hi == 2) result.edge_cloud_bytes += meta.bytes;
  else if (lo == 0 && hi == 2) result.device_cloud_bytes += meta.bytes;
}

// The zero-copy default, shared by every engine constructed without an
// explicit transport.
std::shared_ptr<rpc::Transport> default_transport() {
  static std::shared_ptr<rpc::Transport> transport =
      std::make_shared<rpc::InProcessTransport>();
  return transport;
}

}  // namespace

OnlineEngine::RpcRequestGuard::RpcRequestGuard(std::shared_ptr<rpc::Transport> transport_in,
                                               std::uint64_t id_in)
    : transport(std::move(transport_in)), id(id_in) {}

OnlineEngine::RpcRequestGuard::~RpcRequestGuard() {
  if (transport) transport->close_request(id);
}

OnlineEngine::OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
                           core::Assignment assignment,
                           std::optional<core::FusedTilePlan> vsm)
    : OnlineEngine(net, weights, std::move(assignment), std::move(vsm), Options{}) {}

OnlineEngine::OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
                           core::Assignment assignment,
                           std::optional<core::FusedTilePlan> vsm, Options options)
    : net_(net),
      weights_(weights),
      assignment_(std::move(assignment)),
      vsm_(std::move(vsm)),
      options_(std::move(options)),
      transport_(options_.transport ? options_.transport : default_transport()) {
  if (assignment_.tier.size() != net_.num_layers() + 1)
    throw std::invalid_argument("OnlineEngine: assignment size does not match network");
  if (assignment_.tier[0] != core::Tier::kDevice)
    throw std::invalid_argument("OnlineEngine: v0 must be on the device");
  // Prop.-1 feasibility: no layer strictly device-ward of its most device-ward
  // input. This is also what makes the staged device -> edge -> cloud execution
  // order below dependency-safe.
  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    core::Tier bound = core::Tier::kCloud;
    for (const dnn::LayerId in : net_.layer(id).inputs) {
      const core::Tier t =
          in == dnn::kNetworkInput ? core::Tier::kDevice
                                   : assignment_.tier[dnn::Network::vertex_of(in)];
      if (core::before(t, bound)) bound = t;
    }
    if (core::before(assignment_.tier[dnn::Network::vertex_of(id)], bound))
      throw std::invalid_argument("OnlineEngine: plan violates dataflow precedence at '" +
                                  net_.layer(id).spec.name + "'");
  }
  if (vsm_) {
    if (vsm_->stack.empty()) throw std::invalid_argument("OnlineEngine: empty VSM stack");
    for (const dnn::LayerId id : vsm_->stack)
      if (assignment_.tier[dnn::Network::vertex_of(id)] != core::Tier::kEdge)
        throw std::invalid_argument("OnlineEngine: VSM stack layer '" +
                                    net_.layer(id).spec.name + "' is not on the edge");
    // Intermediate stack outputs exist only as tiles on the workers; no layer
    // outside the stack may consume them.
    for (std::size_t j = 0; j + 1 < vsm_->stack.size(); ++j) {
      for (dnn::LayerId other = 0; other < net_.num_layers(); ++other) {
        if (other == vsm_->stack[j + 1]) continue;
        const auto& ins = net_.layer(other).inputs;
        if (std::find(ins.begin(), ins.end(), vsm_->stack[j]) != ins.end())
          throw std::invalid_argument(
              "OnlineEngine: layer outside the VSM stack consumes an intermediate tile ('" +
              net_.layer(vsm_->stack[j]).spec.name + "')");
      }
    }
  }
  // The plan fingerprint snapshots carry (model name is not part of engine
  // identity — the weights are — so it is hashed as empty; both coordinator
  // incarnations construct from the same assignment + VSM plan).
  plan_hash_ = plan_hash(core::SerializablePlan{"", assignment_, vsm_});
  if (options_.vsm_workers > 0) pool_ = std::make_unique<ThreadPool>(options_.vsm_workers);
}

void OnlineEngine::checkpoint(RequestState& state, int next_stage) const {
  if (!options_.journal) return;
  Snapshot s;
  s.rpc_request = state.rpc_request;
  s.plan_hash = plan_hash_;
  s.next_stage = next_stage;
  s.input = rpc::encode_tensor(state.input);
  s.messages = state.result.messages;
  s.device_edge_bytes = state.result.device_edge_bytes;
  s.edge_cloud_bytes = state.result.edge_cloud_bytes;
  s.device_cloud_bytes = state.result.device_cloud_bytes;
  for (std::size_t t = 0; t < 3; ++t)
    s.layers_executed[t] = static_cast<std::uint64_t>(state.result.layers_executed[t]);
  s.vsm_scatter_bytes = state.result.vsm_scatter_bytes;
  s.vsm_gather_bytes = state.result.vsm_gather_bytes;
  s.computed = state.computed;
  s.sent = state.sent;
  s.shipped = state.shipped;
  s.vsm_recorded = state.vsm_recorded;
  options_.journal->record(s);
}

bool OnlineEngine::try_recover(RequestState& state, const rpc::ChannelDied& died) const {
  if (!options_.tier_recovery || state.recovery_attempts >= kMaxRecoveryAttempts ||
      !recover(state, died))
    return false;
  ++state.recovery_attempts;
  return true;
}

const dnn::Tensor& OnlineEngine::resolve_input(RequestState& state,
                                               dnn::LayerId producer) const {
  return producer == dnn::kNetworkInput ? state.input : materialize(state, producer);
}

rpc::Transport::OpHandle OnlineEngine::fetch_output(RequestState& state,
                                                    dnn::LayerId id) const {
  dnn::Tensor& out = state.outputs[id];
  // Empty = computed on a remote node and never needed at the coordinator
  // until now: pull it from the node hosting the layer's tier.
  if (out.size() != 0) return {};
  const core::Tier at = assignment_.tier[dnn::Network::vertex_of(id)];
  rpc::Transport::OpHandle op;
  try {
    op = transport_->issue_fetch(state.rpc_request, node_of(at), id + 1);
  } catch (const rpc::ChannelDied&) {
    throw;  // a dead worker slot is a recovery problem, not a cache miss
  } catch (const rpc::Fenced&) {
    throw;
  } catch (const rpc::TransportError&) {
    // In-process transports hold no per-node slots: a restored request's
    // pre-crash outputs died with the old engine and cannot be fetched.
    // Recompute deterministically from what the snapshot preserved — the
    // recursion through resolve_input() bottoms out at state.input, and no
    // message is recorded, so the transcript stays a pure function of the
    // plan.
    std::vector<const dnn::Tensor*> ins;
    ins.reserve(net_.layer(id).inputs.size());
    for (const dnn::LayerId in : net_.layer(id).inputs) ins.push_back(&resolve_input(state, in));
    out = exec::run_layer(net_, weights_, id, ins);
    return {};
  }
  if (!op.settled()) return op;
  op.poll();
  op.rethrow();
  out = std::move(*op.tensor());
  return {};
}

const dnn::Tensor& OnlineEngine::materialize(RequestState& state, dnn::LayerId id) const {
  if (rpc::Transport::OpHandle op = fetch_output(state, id)) {
    op.wait();
    op.rethrow();
    state.outputs[id] = std::move(*op.tensor());
  }
  return state.outputs[id];
}

MessageRecord OnlineEngine::record_vsm_message(RequestState& state, std::size_t tile,
                                              bool gather) const {
  const core::FusedTilePlan& plan = *vsm_;
  const std::string tile_name = "tile(" + std::to_string(tile) + ")";
  MessageRecord meta;
  meta.seq = static_cast<std::uint64_t>(state.result.messages.size());
  meta.from_tier = core::Tier::kEdge;
  meta.to_tier = core::Tier::kEdge;
  if (!gather) {
    const exec::Region& region = plan.tiles[tile].input_regions.front();
    meta.bytes = dnn::Shape{plan.input_shapes.front().c, region.height(), region.width()}.bytes();
    meta.from_node = "edge0";
    meta.to_node = "edge" + std::to_string(tile + 1);
    meta.payload = tile_name + " input";
  } else {
    const exec::Region& region = plan.tiles[tile].output_region;
    meta.bytes = dnn::Shape{plan.output_shape.c, region.height(), region.width()}.bytes();
    meta.from_node = "edge" + std::to_string(tile + 1);
    meta.to_node = "edge0";
    meta.payload = tile_name + " output";
  }
  // Recorded exactly once per (tile, direction), even when recovery re-runs
  // the stack: the transcript and the byte accounting are pure functions of
  // the plan, never of how often a tile physically moved.
  if (state.vsm_recorded.empty()) state.vsm_recorded.assign(plan.num_tiles(), {false, false});
  bool& recorded = state.vsm_recorded[tile][gather ? 1 : 0];
  if (!recorded) {
    recorded = true;
    (gather ? state.result.vsm_gather_bytes : state.result.vsm_scatter_bytes) += meta.bytes;
    record(state.result, meta);
    return meta;
  }
  // A re-run gets the first record back: a re-shipped tile keeps its seq.
  for (const MessageRecord& m : state.result.messages)
    if (m.payload == meta.payload && m.to_node == meta.to_node) return m;
  throw std::logic_error("OnlineEngine: " + meta.payload + " missing from the transcript");
}

void OnlineEngine::run_vsm_stack(RequestState& state) const {
  const core::FusedTilePlan& plan = *vsm_;
  const dnn::Tensor& stack_input = resolve_input(state, net_.layer(plan.stack.front()).inputs[0]);

  // Scatter: extract every tile's input crop and record (and send) the
  // message, in tile order, before any concurrent work starts. This pins the
  // transcript.
  std::vector<exec::Tile> tile_inputs;
  tile_inputs.reserve(plan.num_tiles());
  for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
    tile_inputs.push_back(core::extract_tile_input(stack_input, plan, t));
    transport_->send(state.rpc_request, record_vsm_message(state, t, /*gather=*/false),
                     rpc::kNoSlot, tile_inputs.back().data);
  }

  // Parallel tile compute: each edge worker node runs its fused stack slice on
  // its own thread. run_single_tile is pure (reads net/weights/plan, writes
  // only this tile's slot), so tiles never race; the parallel_for join
  // publishes every slot before the gather below reads them.
  std::vector<exec::Tile> tile_outputs(plan.num_tiles());
  const auto compute = [&](std::size_t t) {
    if (options_.emulated_tile_service_seconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.emulated_tile_service_seconds));
    tile_outputs[t] = core::run_single_tile(net_, weights_, tile_inputs[t], *vsm_, t);
  };
  // The emulated edge cluster has vsm_workers nodes, so only that many tile
  // service times may overlap. Tiles are pulled from an atomic counter by
  // `width` pool jobs; any schedule is race-free (disjoint slots) and the
  // gather below restores tile order.
  if (pool_ && plan.num_tiles() > 1) {
    const std::size_t width = std::min(options_.vsm_workers, plan.num_tiles());
    std::atomic<std::size_t> next{0};
    pool_->parallel_for(width, [&](std::size_t) {
      for (std::size_t t = next.fetch_add(1); t < plan.num_tiles(); t = next.fetch_add(1))
        compute(t);
    });
  } else {
    for (std::size_t t = 0; t < plan.num_tiles(); ++t) compute(t);
  }

  // Gather + assembly, again in tile order: the transcript and the assembled
  // feature map are byte-identical to the sequential engine's.
  dnn::Tensor assembled(plan.output_shape);
  for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
    transport_->send(state.rpc_request, record_vsm_message(state, t, /*gather=*/true),
                     rpc::kNoSlot, tile_outputs[t].data);
    const exec::Region& region = plan.tiles[t].output_region;
    exec::copy_region_to_map(tile_outputs[t].data.data(), region, assembled);
  }
  state.outputs[plan.stack.back()] = std::move(assembled);
  mark_stack_computed(state);
}

void OnlineEngine::mark_stack_computed(RequestState& state) const {
  for (const dnn::LayerId id : vsm_->stack) {
    state.computed[id] = true;
    ++state.result.layers_executed[static_cast<std::size_t>(core::index(core::Tier::kEdge))];
  }
}

namespace {

// Emulated tier service as an issued op, complete once `due` passes. Its
// timerfd turns readable at `due` too, so a readiness-driven caller parks on
// it like on a wire reply; a blocking caller's wait() sleeps until `due`.
class ServiceTimer final : public rpc::Transport::AsyncOp {
 public:
  explicit ServiceTimer(std::chrono::steady_clock::time_point due) : due_(due), timer_(due) {}
  bool poll() override { return settled(); }
  void wait() override { std::this_thread::sleep_until(due_); }
  bool settled() const override { return std::chrono::steady_clock::now() >= due_; }
  int fd() override { return timer_.fd(); }

 private:
  std::chrono::steady_clock::time_point due_;
  rpc::TimerFd timer_;
};

// Applies the success effect of every completed op, then rethrows the first
// failure. Each op must have completed (polled true, or waited on).
void settle(std::vector<rpc::Transport::OpHandle>& ops,
            std::vector<std::function<void(rpc::Transport::OpHandle&)>>& effects) {
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].error()) {
      if (!first_error) first_error = ops[i].error();
    } else if (effects[i]) {
      effects[i](ops[i]);
    }
  }
  ops.clear();
  effects.clear();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

bool OnlineEngine::walk_tier(RequestState& state, core::Tier tier,
                             std::vector<rpc::Transport::OpHandle>& ops,
                             std::vector<OpEffect>& effects) const {
  // Queues `op` with its success `effect` for the caller to settle. An op a
  // synchronous transport completed at issue time is finished on the spot —
  // effect applied, error thrown — so on those transports (in-process,
  // loopback, decorators) the walk is a plain sequence of blocking calls.
  const auto queue = [&](rpc::Transport::OpHandle op, OpEffect effect) {
    if (op.settled()) {
      op.poll();
      op.rethrow();
      if (effect) effect(op);
      return;
    }
    ops.push_back(std::move(op));
    effects.push_back(std::move(effect));
  };
  // in_flight[slot][tier]: a put this pass issued whose reply has not landed.
  // `shipped` flips only on the reply, so without this a second consumer at
  // the same tier would ship the boundary a second time.
  std::vector<std::array<bool, 3>> in_flight(state.shipped.size(), {false, false, false});

  // Ensures `producer`'s tensor is present at `to`, shipping it if not, by the
  // cheapest path: the buddy's replica store (restored requests only), a peer
  // push, else a relay through the coordinator. Returns false when the pass
  // must end here: the relay's source is still on a remote node, so its fetch
  // was issued instead.
  //
  // Recording and shipping are tracked separately: the transcript message is
  // recorded exactly once (`sent`), but the payload counts as moved
  // (`shipped`) only once the transport confirms it — so when a channel death
  // interrupts a send, the recovery re-walk re-ships the same boundary
  // without re-recording it, and the transcript stays a pure function of the
  // plan.
  const auto deliver = [&](dnn::LayerId producer, core::Tier to) {
    const bool is_input = producer == dnn::kNetworkInput;
    const core::Tier from = is_input ? core::Tier::kDevice
                                     : assignment_.tier[dnn::Network::vertex_of(producer)];
    const std::size_t slot = is_input ? 0 : producer + 1;
    const std::size_t to_idx = static_cast<std::size_t>(core::index(to));
    if (from == to || state.shipped[slot][to_idx] || in_flight[slot][to_idx]) return true;

    MessageRecord meta;
    meta.seq = static_cast<std::uint64_t>(state.result.messages.size());
    meta.from_node = node_of(from);
    meta.to_node = node_of(to);
    meta.payload = is_input ? "raw input" : net_.layer(producer).spec.name;
    meta.from_tier = from;
    meta.to_tier = to;
    meta.bytes = is_input ? net_.input_shape().bytes() : net_.lambda_out_bytes(producer);
    // Recorded once the path is certain: a pass that ends on the relay's
    // fetch records nothing, so the resumed pass records the boundary under
    // the same seq its envelope carries.
    const auto record_once = [&] {
      if (state.sent[slot][to_idx]) return;
      state.sent[slot][to_idx] = true;
      record(state.result, meta);
    };

    // A restored request re-delivering its interrupted tier tries the buddy's
    // replica store first: the buddy pushes its stored copy peer-to-peer and
    // the standby coordinator never touches the payload. (Speculative: the
    // dead primary may not have replicated this slot.) Then a peer channel,
    // which moves the bytes producer -> consumer directly, so the coordinator
    // never materialises the tensor at all (the raw input is peer-pushable
    // too — it was seeded into the device node). Both are synchronous
    // round-trips on other channels (the buddy's, the producer's).
    if ((state.restored && transport_->replica_push(state.rpc_request, meta, slot)) ||
        transport_->send_peer(state.rpc_request, meta, slot)) {
      record_once();
      state.shipped[slot][to_idx] = true;
      return true;
    }
    // Relay path: serialise out of the coordinator's canonical copy, fetching
    // it first if a remote node computed it.
    if (!is_input) {
      if (rpc::Transport::OpHandle fetch = fetch_output(state, producer)) {
        ops.push_back(std::move(fetch));
        effects.push_back([&state, producer](rpc::Transport::OpHandle& op) {
          if (state.outputs[producer].size() == 0 && op.tensor())
            state.outputs[producer] = std::move(*op.tensor());
        });
        return false;
      }
    }
    record_once();
    const dnn::Tensor& source = is_input ? state.input : state.outputs[producer];
    const auto source_bytes = static_cast<std::uint64_t>(source.shape().bytes());
    in_flight[slot][to_idx] = true;
    queue(transport_->issue_send(state.rpc_request, meta, slot, source),
          [this, &state, slot, to_idx, source_bytes](rpc::Transport::OpHandle&) {
            state.shipped[slot][to_idx] = true;
            // Failover accounting: what a restored request re-ships through
            // the coordinator is the cost buddy replication exists to avoid.
            if (state.restored)
              recovery_bytes_.fetch_add(source_bytes, std::memory_order_relaxed);
          });
    return true;
  };

  // One ascending-id pass: run every pending layer assigned to this stage's
  // tier *or an earlier one* whose inputs are all available. Prop.-1 allows a
  // layer to consume a tensor from a cloud-ward tier (bounded only by its most
  // device-ward input), so such a consumer is not ready at its own tier's
  // stage; it defers and the cloud stage — where every producer has already
  // run — catches it. Layer ids are topological, so the single pass per stage
  // needs no fixpoint loop, and the execution order is a pure function of the
  // plan: transcripts are identical however stages are threaded and whichever
  // transport carries the tensors.
  const auto ready = [&](dnn::LayerId id) {
    for (const dnn::LayerId in : net_.layer(id).inputs)
      if (in != dnn::kNetworkInput && !state.computed[in]) return false;
    return true;
  };

  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    if (state.computed[id]) continue;  // interior of an executed VSM stack
    const core::Tier assigned = assignment_.tier[dnn::Network::vertex_of(id)];
    if (core::before(tier, assigned)) continue;  // cloud-ward of this stage
    if (!ready(id)) continue;                    // deferred to a later stage

    if (vsm_ && id == vsm_->stack.front()) {
      const core::FusedTilePlan& plan = *vsm_;
      // The stack input must be present on the edge coordinator first.
      if (!deliver(net_.layer(id).inputs[0], core::Tier::kEdge)) return false;
      rpc::Transport::OpHandle op =
          transport_->issue_run_stack(state.rpc_request, node_of(core::Tier::kEdge));
      if (op.valid()) {
        queue(std::move(op), nullptr);
        // Remote edge: scatter, tile compute and gather all happen inside the
        // edge process. Record the same intra-edge transcript (a pure function
        // of the tile plan); the stack output stays on the edge node until a
        // peer push, a relay, or the final result wants it.
        for (std::size_t t = 0; t < plan.num_tiles(); ++t)
          record_vsm_message(state, t, /*gather=*/false);
        for (std::size_t t = 0; t < plan.num_tiles(); ++t)
          record_vsm_message(state, t, /*gather=*/true);
        mark_stack_computed(state);
        continue;
      }
      if (!transport_->has_tile_workers()) {
        run_vsm_stack(state);
        continue;
      }
      // Edge fan-out: the engine is the edge coordinator. Each tile's crop
      // goes to the worker serving it, then every run, then every fetch,
      // each group in tile order — a worker serves its channel in order, so
      // it runs a tile only after that tile's crop has landed. The recorded
      // messages name the virtual per-tile nodes, so the transcript is
      // byte-identical to every other execution path.
      const dnn::Tensor& stack_input = resolve_input(state, net_.layer(id).inputs[0]);
      for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
        const exec::Tile crop = core::extract_tile_input(stack_input, plan, t);
        queue(transport_->issue_put_tile(state.rpc_request,
                                         record_vsm_message(state, t, /*gather=*/false), t,
                                         crop.data),
              nullptr);
      }
      for (std::size_t t = 0; t < plan.num_tiles(); ++t)
        queue(transport_->issue_run_tile(state.rpc_request, t), nullptr);
      // The fetches' effects assemble the output; the one that lands the last
      // tile marks the stack computed. A tile worker that dies anywhere leaves
      // the stack uncomputed, and the re-walk issues the whole stack again.
      struct Gather {
        dnn::Tensor output;
        std::size_t tiles = 0;
      };
      auto gather = std::make_shared<Gather>(Gather{dnn::Tensor(plan.output_shape), 0});
      for (std::size_t t = 0; t < plan.num_tiles(); ++t) {
        record_vsm_message(state, t, /*gather=*/true);
        queue(transport_->issue_fetch_tile(state.rpc_request, t),
              [this, &state, gather, t](rpc::Transport::OpHandle& fetched) {
                const core::FusedTilePlan& plan = *vsm_;
                const dnn::Tensor& tile = *fetched.tensor();
                const exec::Region& region = plan.tiles[t].output_region;
                const dnn::Shape expect{plan.output_shape.c, region.height(), region.width()};
                if (!(tile.shape() == expect))
                  throw std::logic_error("OnlineEngine: tile " + std::to_string(t) +
                                         " output shape " + tile.shape().to_string() +
                                         " != plan's " + expect.to_string());
                exec::copy_region_to_map(tile.data(), region, gather->output);
                if (++gather->tiles < plan.num_tiles()) return;
                state.outputs[plan.stack.back()] = std::move(gather->output);
                mark_stack_computed(state);
              });
      }
      return false;  // as on a relay's fetch: the stack's consumers wait for it
    }

    for (const dnn::LayerId in : net_.layer(id).inputs)
      if (!deliver(in, assigned)) return false;
    rpc::Transport::OpHandle op =
        transport_->issue_run_layer(state.rpc_request, node_of(assigned), id);
    if (op.valid()) {
      // Remote node computes it from its own slots; the output is fetched
      // back lazily — only when a relay or the final result needs it. Marked
      // computed at issue: per-channel replies are FIFO, so any later verb
      // reading this layer's slot on the node executes after it; a death
      // before completion is un-marked by recover() (the coordinator's copy
      // is still empty, same signature as any mid-walk death).
      queue(std::move(op), nullptr);
    } else {
      std::vector<const dnn::Tensor*> ins;
      ins.reserve(net_.layer(id).inputs.size());
      for (const dnn::LayerId in : net_.layer(id).inputs)
        ins.push_back(&resolve_input(state, in));
      state.outputs[id] = exec::run_layer(net_, weights_, id, ins);
    }
    state.computed[id] = true;
    ++state.result.layers_executed[static_cast<std::size_t>(core::index(assigned))];
  }
  return true;
}

rpc::Transport::OpHandle OnlineEngine::book_service(core::Tier tier) const {
  const auto t = static_cast<std::size_t>(core::index(tier));
  const double service = options_.emulated_tier_service_seconds[t];
  if (service <= 0.0) return {};
  const Clock::time_point now = Clock::now();
  Clock::time_point due;
  {
    std::lock_guard<std::mutex> lock(service_mutex_);
    due = std::max(now, tier_free_at_[t]) +
          std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(service));
    tier_free_at_[t] = due;
  }
  return rpc::Transport::OpHandle(std::make_shared<ServiceTimer>(due));
}

bool OnlineEngine::recover(RequestState& state, const rpc::ChannelDied& died) const {
  const std::string& node = died.node();
  if (node.empty()) return false;

  const std::optional<core::Tier> tier = tier_of_node(node);
  if (!tier) {
    // A VSM tile-worker shard lost its state. Tile inputs are re-scattered
    // wholesale when the stack re-runs (the stack's layers are only marked
    // computed after the gather), so there is nothing to re-seed — but the
    // worker set may need repair first.
    if (died.channel_restored()) {
      transport_->reopen(state.rpc_request, node);  // fresh incarnation: re-begin
    } else {
      // No way back for this worker: drop it from the shard map so the
      // survivors absorb its tiles (tile % remaining) on the re-run. Another
      // in-flight request may have pruned it already — what matters is that
      // someone is left to serve tiles.
      transport_->prune_tile_workers();
      if (transport_->tile_worker_count() == 0) return false;
    }
    recoveries_.fetch_add(1, std::memory_order_relaxed);
    tiers_replayed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  if (!died.channel_restored()) return false;
  const std::size_t t = static_cast<std::size_t>(core::index(*tier));
  // reopen == false means the node lives in the coordinator's process (e.g. a
  // scripted fault on an in-process transport): the re-seeds below are no-ops
  // there, so they are not counted as recovery traffic.
  const bool remote = transport_->reopen(state.rpc_request, node);

  std::uint64_t reseeded = 0;
  std::uint64_t bytes = 0;
  const auto reseed = [&](std::uint64_t slot, const dnn::Tensor& tensor) {
    transport_->seed(state.rpc_request, node, slot, tensor);
    if (remote) {
      ++reseeded;
      bytes += static_cast<std::uint64_t>(tensor.shape().bytes());
    }
  };
  const auto tier_of_layer = [&](dnn::LayerId id) {
    return assignment_.tier[dnn::Network::vertex_of(id)];
  };

  // 1. Un-mark lost layers: layers this node computed whose outputs exist
  //    nowhere else (never materialised at the coordinator) must re-run on the
  //    re-entered walk. The VSM stack is all-or-nothing — its interior
  //    outputs only ever existed as tiles on the dead node, so unless the
  //    coordinator holds the stack output, the whole stack re-runs (its
  //    transcript is already recorded and deduped by vsm_recorded).
  std::uint64_t replayed = 0;
  const auto lost_output = [&](dnn::LayerId id) {
    state.computed[id] = false;
    --state.result.layers_executed[static_cast<std::size_t>(core::index(tier_of_layer(id)))];
    ++replayed;
  };
  const auto in_stack = [&](dnn::LayerId id) {
    return vsm_ && std::find(vsm_->stack.begin(), vsm_->stack.end(), id) != vsm_->stack.end();
  };
  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    if (in_stack(id)) continue;  // grouped below
    if (tier_of_layer(id) == *tier && state.computed[id] && state.outputs[id].size() == 0)
      lost_output(id);
  }
  if (vsm_ && *tier == core::Tier::kEdge && state.computed[vsm_->stack.back()] &&
      state.outputs[vsm_->stack.back()].size() == 0)
    for (const dnn::LayerId id : vsm_->stack) lost_output(id);

  // 2. What the fresh incarnation needs back, now that the pending set is
  //    final. A slot must be re-seeded when a pending layer of this tier will
  //    read it on the node (`on_node`), or when a pending boundary ship of a
  //    tensor this node produced may peer-push straight out of the node's
  //    slots (`from_node`). Everything else is dead weight — skipping it is
  //    what makes recovery cheaper than a full replay.
  std::vector<bool> needed_on_node(net_.num_layers(), false);
  std::vector<bool> needed_from_node(net_.num_layers(), false);
  bool input_needed_on_node = false;
  bool input_needed_from_device = false;
  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    if (state.computed[id]) continue;
    const core::Tier at = tier_of_layer(id);
    const std::size_t at_idx = static_cast<std::size_t>(core::index(at));
    for (const dnn::LayerId in : net_.layer(id).inputs) {
      if (in == dnn::kNetworkInput) {
        if (at == *tier) input_needed_on_node = true;
        // A pending boundary ship of the raw input may peer-push it straight
        // out of the device node's slot 0.
        else if (!state.shipped[0][at_idx])
          input_needed_from_device = true;
        continue;
      }
      if (at == *tier) needed_on_node[in] = true;
      else if (tier_of_layer(in) == *tier && !state.shipped[in + 1][at_idx])
        needed_from_node[in] = true;
    }
  }

  // 3. Re-seed. The raw input goes back when a pending layer will read it on
  //    this node, or (device only — the request's source, where peer pushes
  //    of the input originate) when a pending boundary ship may still source
  //    it from slot 0. Boundary tensors from other tiers are re-seeded from
  //    the coordinator's canonical copy, fetched from the surviving producer
  //    if it was peer-pushed and never materialised here (cross-tier by
  //    construction, so the producer's node is alive). Held outputs of this
  //    node go back only when still needed.
  if ((*tier == core::Tier::kDevice && (input_needed_on_node || input_needed_from_device)) ||
      (state.shipped[0][t] && input_needed_on_node))
    reseed(0, state.input);
  for (dnn::LayerId id = 0; id < net_.num_layers(); ++id) {
    const std::uint64_t slot = id + 1;
    if (state.shipped[slot][t]) {
      if (needed_on_node[id]) reseed(slot, materialize(state, id));
      continue;
    }
    if (tier_of_layer(id) == *tier && state.computed[id] && state.outputs[id].size() > 0 &&
        (needed_on_node[id] || needed_from_node[id]))
      reseed(slot, state.outputs[id]);
  }

  recoveries_.fetch_add(1, std::memory_order_relaxed);
  tensors_reseeded_.fetch_add(reseeded, std::memory_order_relaxed);
  recovery_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (replayed > 0) {
    tiers_replayed_.fetch_add(1, std::memory_order_relaxed);
    layers_replayed_.fetch_add(replayed, std::memory_order_relaxed);
  }
  return true;
}

OnlineEngine::Stats OnlineEngine::stats() const {
  return {recoveries_.load(), tiers_replayed_.load(), layers_replayed_.load(),
          tensors_reseeded_.load(), recovery_bytes_.load()};
}

OnlineEngine::Continuation OnlineEngine::start(const dnn::Tensor& input) const {
  if (!(input.shape() == net_.input_shape()))
    throw std::invalid_argument("OnlineEngine: input shape mismatch");
  Continuation c;
  c.state_ = std::make_unique<RequestState>();
  RequestState& state = *c.state_;
  state.input = input;
  state.outputs.resize(net_.num_layers());
  state.computed.assign(net_.num_layers(), false);
  state.sent.assign(net_.num_layers() + 1, {false, false, false});
  state.shipped.assign(net_.num_layers() + 1, {false, false, false});
  try {
    state.rpc_request = transport_->issue_open_request(c.ops_);
  } catch (const rpc::ChannelDied& died) {
    // A worker killed between requests surfaces here, on the first kBegin to
    // touch it. With the channel re-established and kBegin idempotent, a
    // second open is exactly a fresh start. A tile shard that cannot come
    // back is pruned instead — the survivors absorb its tiles and the retried
    // broadcast skips it (mirroring recover()'s mid-request tile branch).
    if (!options_.tier_recovery) throw;
    if (!died.channel_restored() &&
        (transport_->prune_tile_workers() == 0 || !transport_->has_tile_workers()))
      throw;
    // Handles from the failed issue are dropped: the aborted id got its kEnd,
    // and per-channel FIFO retires the orphaned replies under later traffic.
    c.ops_.clear();
    state.rpc_request = transport_->issue_open_request(c.ops_);
  }
  state.rpc_guard = std::make_unique<RpcRequestGuard>(transport_, state.rpc_request);
  try {
    // The raw frame originates on the device node; no inter-node message is
    // involved, so a remote device tier receives it as a seed, not a send.
    // Queued behind the device node's kBegin (per-channel FIFO), so the seed
    // lands on an open request even though neither has settled yet.
    c.ops_.push_back(
        transport_->issue_seed(state.rpc_request, node_of(core::Tier::kDevice), 0, state.input));
  } catch (const rpc::ChannelDied& died) {
    // recover() re-begins the request and re-seeds slot 0 on the fresh
    // incarnation, so a successful recovery needs no re-issue here.
    if (!try_recover(state, died)) throw;
  }
  c.effects_.resize(c.ops_.size());
  c.phase_ = Continuation::Phase::kAdmitting;
  return c;
}

OnlineEngine::Continuation OnlineEngine::restore(const Snapshot& snapshot) const {
  if (snapshot.plan_hash != plan_hash_)
    throw std::invalid_argument(
        "OnlineEngine: snapshot was journalled under a different deployment plan");
  if (snapshot.computed.size() != net_.num_layers() ||
      snapshot.sent.size() != net_.num_layers() + 1 ||
      snapshot.shipped.size() != net_.num_layers() + 1)
    throw std::invalid_argument("OnlineEngine: snapshot does not match the network");
  auto state = std::make_unique<RequestState>();
  state->input = rpc::decode_tensor(std::span<const std::uint8_t>(snapshot.input));
  if (!(state->input.shape() == net_.input_shape()))
    throw std::invalid_argument("OnlineEngine: snapshot input shape mismatch");
  state->outputs.resize(net_.num_layers());
  state->computed = snapshot.computed;
  state->sent = snapshot.sent;
  state->shipped = snapshot.shipped;
  state->vsm_recorded = snapshot.vsm_recorded;
  state->result.messages = snapshot.messages;
  state->result.device_edge_bytes = snapshot.device_edge_bytes;
  state->result.edge_cloud_bytes = snapshot.edge_cloud_bytes;
  state->result.device_cloud_bytes = snapshot.device_cloud_bytes;
  for (std::size_t t = 0; t < 3; ++t)
    state->result.layers_executed[t] = static_cast<std::size_t>(snapshot.layers_executed[t]);
  state->result.vsm_scatter_bytes = snapshot.vsm_scatter_bytes;
  state->result.vsm_gather_bytes = snapshot.vsm_gather_bytes;
  // Re-open the journalled id: kBegin is idempotent, so the slots the workers
  // kept across the primary's death are untouched, and fresh ids are advanced
  // past the resumed one.
  state->rpc_request = snapshot.rpc_request;
  transport_->open_request_as(snapshot.rpc_request);
  state->rpc_guard = std::make_unique<RpcRequestGuard>(transport_, snapshot.rpc_request);
  state->restored = true;
  Continuation c;
  c.state_ = std::move(state);
  c.next_ = snapshot.next_stage;
  return c;
}

void OnlineEngine::abandon(Continuation&& c) const {
  // Disarm the guard: no kEnd, so the workers keep the request's slots and
  // the journal keeps its snapshots — the exact state a SIGKILLed coordinator
  // leaves behind, minus the corpse.
  if (c.state_ && c.state_->rpc_guard) c.state_->rpc_guard->transport = nullptr;
  c.state_.reset();
}

bool OnlineEngine::step(Continuation& c) const {
  // Past a throw the cursor is untouched, so the caller decides between
  // retrying and replaying.
  const int stage = c.next_;
  while (c.next_ == stage)
    if (step_async(c) == StepStatus::kParked)
      for (rpc::Transport::OpHandle& op : c.ops_) op.wait();
  return c.done();
}

OnlineEngine::StepStatus OnlineEngine::step_async(Continuation& c) const {
  if (c.done()) throw std::logic_error("OnlineEngine: step on a finished continuation");
  RequestState& state = *c.state_;
  // The collect stage re-walks the cloud tier — a no-op unless recovery
  // un-marked layers — before fetching the final output.
  const bool collect = c.next_ == Continuation::kStageCount - 1;
  const core::Tier tier = collect ? core::Tier::kCloud : c.next_tier();
  const auto last = static_cast<dnn::LayerId>(net_.num_layers() - 1);
  for (;;) {
    if (c.phase_ == Continuation::Phase::kStart) {
      // Emulated tier latency is booked once per stage, before the walk: a
      // re-walk (relay fetch, recovery) must not pay it again.
      if (!collect && c.slept_stage_ != c.next_) {
        c.slept_stage_ = c.next_;
        if (rpc::Transport::OpHandle timer = book_service(tier)) {
          c.ops_.push_back(std::move(timer));
          c.effects_.emplace_back();
          c.walked_ = false;
          c.phase_ = Continuation::Phase::kSettling;
          continue;
        }
      }
      try {
        c.walked_ = walk_tier(state, tier, c.ops_, c.effects_);
        if (c.walked_ && collect) {
          if (rpc::Transport::OpHandle op = fetch_output(state, last)) {
            c.ops_.push_back(std::move(op));
            c.effects_.push_back([&state, last](rpc::Transport::OpHandle& fetched) {
              state.outputs[last] = std::move(*fetched.tensor());
            });
          }
        }
      } catch (const rpc::ChannelDied& died) {
        // Ops already issued stay queued on their (healthy) channels; FIFO
        // drains retire them under whoever touches those channels next, and
        // the re-entered walk re-issues only what is still unshipped or what
        // recover() un-marked.
        c.ops_.clear();
        c.effects_.clear();
        if (!try_recover(state, died)) throw;
        return StepStatus::kReady;
      }
      c.phase_ = Continuation::Phase::kSettling;
    }

    // kAdmitting / kSettling: park until every issued op completes.
    bool all = true;
    for (auto& op : c.ops_)
      if (!op.poll()) all = false;
    if (!all) return StepStatus::kParked;
    const bool admitting = c.phase_ == Continuation::Phase::kAdmitting;
    c.phase_ = Continuation::Phase::kStart;
    try {
      settle(c.ops_, c.effects_);
    } catch (const rpc::ChannelDied& died) {
      // recover() rebuilds the lost node's state (during admission: re-begins
      // the request and re-seeds the input), and the re-entered walk resumes
      // where the fault hit.
      if (!try_recover(state, died)) throw;
      if (!admitting) return StepStatus::kReady;
    }
    if (admitting) {
      // Journalled only now: a stage-0 snapshot means every node
      // acknowledged kBegin and the device holds the seed.
      checkpoint(state, 0);
      continue;
    }
    if (!c.walked_) continue;  // the service timer fired, or the pass ended on a fetch
    if (collect) {
      if (options_.journal) options_.journal->finish(state.rpc_request);
      c.result_ = std::move(state.result);
      c.result_.output = std::move(state.outputs[last]);
      c.state_.reset();  // closes the transport-side request
      ++c.next_;
      return StepStatus::kDone;
    }
    // A restored request's first completed tier IS the interrupted one (resume
    // starts there): past it, deliveries are ordinary again.
    state.restored = false;
    checkpoint(state, c.next_ + 1);
    ++c.next_;
    return StepStatus::kReady;
  }
}

InferenceResult OnlineEngine::take(Continuation&& c) const {
  if (!c.done()) throw std::logic_error("OnlineEngine: take() on an unfinished continuation");
  return std::move(c.result_);
}

InferenceResult OnlineEngine::infer(const dnn::Tensor& input) const {
  Continuation c = start(input);
  while (!step(c)) {
  }
  return take(std::move(c));
}

}  // namespace d3::runtime
