// Online execution engine (paper Fig. 2): executes a deployment plan on *real*
// tensors across the computation nodes of the three tiers, orchestrating the
// distributed and parallel processing and the communication among partitions.
//
// Node model. The device node runs its layers and ships boundary tensors to
// the edge/cloud; the edge coordinator scatters VSM fused-tile inputs to its
// worker nodes, gathers their output tiles, and forwards intermediate results
// to the cloud; the cloud node finishes the inference. Every inter-node tensor
// is recorded as a sequence-numbered message, so tests can assert both
// losslessness (the distributed output equals the single-node reference
// bitwise) and traffic accounting (the bytes on each tier boundary match
// core::boundary_traffic).
//
// Transport model. Where those tensors physically live is delegated to an
// rpc::Transport (Options::transport): the engine walks the plan and records
// the transcript — a pure function of the plan, identical on every transport —
// while the transport moves payload bytes and, for remote nodes, runs the
// layers in the worker process that hosts the tier. The default
// InProcessTransport passes tensors by reference (zero-copy, the original
// behaviour); SerializingLoopback round-trips every inter-node tensor through
// the binary wire format; SocketTransport places each tier in its own OS
// process over TCP. Bitwise identity with exec::Executor holds on all three.
//
// A boundary tensor is shipped by the cheapest path the transport offers:
// first Transport::send_peer (producer pushes straight to the consumer's
// process — the coordinator never holds the bytes), else the relay path
// (materialise the producer's output at the coordinator on demand via fetch,
// then send to the consumer). Remote outputs are fetched lazily — only when a
// relay or the final result actually needs them. When the transport shards
// the VSM tile plan across real edge worker processes (has_tile_workers), the
// engine acts as the edge coordinator: its tier walk crops tile inputs and
// issues every tile's put, run and fetch on the workers' channels, so the
// workers compute concurrently, and the fetches assemble the output in tile
// order — same transcript, same bits, as every other path.
//
// Failure model. A node that loses its per-request state mid-request (worker
// death, detected as rpc::ChannelDied) is recovered tier-granularly by
// default: the engine reopens the request on the re-established node,
// re-seeds only the slots the dead incarnation held (from coordinator-held
// boundary tensors, or fetched from surviving producers), and re-runs only
// the interrupted tier — a dead tile worker's tiles re-shard across the
// survivors. Transcript records and payload shipping are tracked separately,
// so recovery is unobservable in the transcript and the output stays
// bitwise-identical; Stats counts what recovery cost. See
// docs/ARCHITECTURE.md "Failure recovery".
//
// Concurrency model. Inference is staged tier-by-tier (device -> edge ->
// cloud); Prop.-1 feasibility guarantees a layer's inputs are produced by the
// same or an earlier stage, so the staging is always dependency-safe. The
// thread stepping a request drives every remote node, tile workers included.
// With Options::vsm_workers > 0 the edge stage computes in-process VSM tiles
// on a runtime::ThreadPool (its only use), one job per virtual edge worker
// node. Transcripts stay deterministic regardless of thread interleaving: tile
// inputs are extracted and their scatter messages recorded in tile order
// *before* the parallel region, only the pure per-tile compute runs
// concurrently, and gather messages plus output assembly happen in tile order
// *after* the join. The engine itself is immutable after construction (bar
// the emulated tier-service slots, which a mutex guards), so any number of
// threads may call infer() concurrently; the continuation API (start /
// step_async / take) is what runtime::ServingReactor uses to pipeline several
// in-flight requests across the tiers from one thread.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/vsm.h"
#include "dnn/network.h"
#include "dnn/tensor.h"
#include "exec/weights.h"
#include "rpc/transport.h"
#include "runtime/message.h"
#include "runtime/thread_pool.h"

namespace d3::rpc {
class ChannelDied;
}

namespace d3::runtime {

class RequestJournal;
struct Snapshot;

struct InferenceResult {
  dnn::Tensor output;
  std::vector<MessageRecord> messages;
  // Bytes crossing each tier boundary (intra-tier messages excluded).
  std::int64_t device_edge_bytes = 0;
  std::int64_t edge_cloud_bytes = 0;
  std::int64_t device_cloud_bytes = 0;
  // Layers executed per tier (VSM tile work counts once, on the coordinator).
  std::array<std::size_t, 3> layers_executed{0, 0, 0};
  // Intra-edge scatter/gather traffic of the VSM stage, if one ran.
  std::int64_t vsm_scatter_bytes = 0;
  std::int64_t vsm_gather_bytes = 0;
};

class OnlineEngine {
  struct RequestState;  // a Continuation's per-request state (defined below)

 public:
  struct Options {
    // Number of pool threads computing in-process VSM tiles concurrently (the
    // edge worker nodes of Fig. 8). 0 = sequential tile loop, no pool.
    std::size_t vsm_workers = 0;
    // Emulated per-tile edge-node service latency (seconds), added to each
    // tile's compute. The paper's edge pool is separate physical machines; on
    // a host with fewer cores than modelled workers, this stands in for the
    // remote node's service time — real threads genuinely overlap the waits,
    // so the sequential engine pays the sum and the threaded engine the max.
    // 0 disables. Purely additive wall-clock: outputs and transcripts are
    // unaffected. Applies to locally-hosted tiles only (a remote edge node's
    // service time is real, not emulated).
    double emulated_tile_service_seconds = 0.0;
    // Emulated per-stage service latency (seconds) for [device, edge, cloud]
    // — the stage actor's fixed overhead (network stack, queueing) that tier
    // pipelining overlaps across in-flight requests. Each tier is one node
    // serving one request at a time, so a stage books its tier's next free
    // service slot before its walk (due = max(now, tier free at) + service)
    // and waits for it as a timer op: a blocking step() sleeps until `due`, a
    // readiness-driven caller parks on the timer's fd like on a wire reply.
    std::array<double, 3> emulated_tier_service_seconds{0.0, 0.0, 0.0};
    // Message fabric between the computation nodes. nullptr = the shared
    // zero-copy InProcessTransport (the original engine behaviour).
    std::shared_ptr<rpc::Transport> transport = nullptr;
    // Tier-granular recovery: when a node loses its per-request state
    // mid-request (rpc::ChannelDied with the channel restored — a worker died
    // and the transport respawned it, or a fresh incarnation answered
    // kErrorState), the engine reopens the request on that node, re-seeds the
    // lost slots from coordinator-held boundary tensors, and re-runs only the
    // interrupted tier — instead of failing the request so the caller replays
    // it end-to-end. Dead tile workers with no reconnect hook are pruned and
    // their tiles re-sharded across the survivors. Outputs stay
    // bitwise-identical and transcripts byte-identical either way (messages
    // are recorded exactly once; re-runs only move payload). A request
    // survives kMaxRecoveryAttempts faults before the ChannelDied propagates.
    // false restores the fail-and-replay contract.
    bool tier_recovery = true;
    // Write-ahead request journal for coordinator failover: non-null makes the
    // engine checkpoint every request once its admission (kBegin + input
    // seed) has settled and after each completed tier, and mark it finished
    // when the collect stage completes. A standby coordinator (same
    // plan, workers surviving in listen mode) then restore()s the unfinished
    // snapshots and resumes them, re-running only the interrupted tier.
    std::shared_ptr<RequestJournal> journal = nullptr;
  };

  // Cumulative recovery counters (atomic; the engine is shared and const).
  struct Stats {
    std::uint64_t recoveries = 0;        // mid-request recoveries completed
    std::uint64_t tiers_replayed = 0;    // recoveries that re-ran lost layers
    std::uint64_t layers_replayed = 0;   // layers re-executed after a death
    std::uint64_t tensors_reseeded = 0;  // slots re-put into recovered nodes
    std::uint64_t recovery_bytes = 0;    // tensor bytes re-moved by re-seeds
  };

  // `net` and `weights` must outlive the engine. The assignment must be
  // Prop.-1 feasible; `vsm` (optional) must cover edge-assigned layers only.
  // Throws std::invalid_argument on inconsistent plans.
  OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
               core::Assignment assignment,
               std::optional<core::FusedTilePlan> vsm = std::nullopt);
  OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
               core::Assignment assignment, std::optional<core::FusedTilePlan> vsm,
               Options options);

  // Runs one synergistic inference: the device node ingests `input`, the plan's
  // tiers execute their partitions in stage order, and the final layer's output
  // is returned together with the full message transcript. Thread-safe: may be
  // called concurrently from any number of threads. Equivalent to start(), a
  // step() loop, then take().
  InferenceResult infer(const dnn::Tensor& input) const;

  // Resumable continuation: one movable token bundling a request's state, a
  // progress cursor, and the finished result, advanced one stage at a time by
  // step() or step_async(). The stages are the three tiers in order plus a
  // final collect stage, so a single thread can interleave thousands of
  // requests by round-robining steps across their continuations. Outputs and
  // transcripts are bitwise-identical to infer() regardless of how steps of
  // different requests interleave.
  class Continuation {
   public:
    static constexpr int kStageCount = 4;  // device, edge, cloud, collect
    Continuation(Continuation&&) noexcept = default;
    Continuation& operator=(Continuation&&) noexcept = default;

    int next_stage() const { return next_; }
    bool done() const { return next_ == kStageCount; }
    // The tier the next step() executes; only valid before the collect stage.
    core::Tier next_tier() const { return static_cast<core::Tier>(next_); }

    // Introspection for readiness-driven schedulers (step_async).
    // True when every outstanding op has completed (no syscalls); a parked
    // continuation whose ops are all settled can be resumed without waiting
    // for fd readability.
    bool ops_settled() const {
      for (const auto& op : ops_)
        if (!op.settled()) return false;
      return true;
    }
    // Unsettled ops (a reply still on the wire, or an emulated-service timer
    // not yet due) — the reactor's outstanding-ops gauge.
    std::size_t ops_outstanding() const {
      std::size_t n = 0;
      for (const auto& op : ops_)
        if (!op.settled()) ++n;
      return n;
    }
    // Fds the outstanding ops wait on (channel sockets, timer fds),
    // deduplicated. May flush frames still sitting in a channel outbox — a
    // parked stage's requests must be on the wire before readiness of these
    // fds means anything.
    std::vector<int> pending_fds() {
      std::vector<int> fds;
      for (auto& op : ops_) {
        if (op.settled()) continue;
        const int fd = op.fd();
        if (fd < 0) continue;
        if (std::find(fds.begin(), fds.end(), fd) == fds.end()) fds.push_back(fd);
      }
      return fds;
    }

   private:
    friend class OnlineEngine;
    Continuation() = default;
    std::unique_ptr<RequestState> state_;
    InferenceResult result_;
    int next_ = 0;
    // step_async's per-stage phase machine (documented there).
    enum class Phase { kAdmitting, kStart, kSettling };
    Phase phase_ = Phase::kStart;
    bool walked_ = false;   // the last walk_tier pass covered the whole tier
    int slept_stage_ = -1;  // emulated tier latency booked once per stage
    std::vector<rpc::Transport::OpHandle> ops_;
    // Parallel to ops_: success-side state mutation for each op (mark
    // shipped, store a fetched output, assemble a fetched tile), applied
    // only after the op completes.
    std::vector<std::function<void(rpc::Transport::OpHandle&)>> effects_;
  };

  // Admits one request: copies `input` into the state and *issues* the
  // admission round-trips (the per-node kBegin broadcast and the device input
  // seed) as pipelined sends; the first step parks on them. Throws
  // std::invalid_argument on input shape mismatch.
  Continuation start(const dnn::Tensor& input) const;
  // Rebuilds an in-flight request from a journal snapshot, for a standby
  // coordinator taking over after the primary died. Re-opens the journalled
  // request id on the transport (the workers' per-request slots survive the
  // primary in listen mode; kBegin is idempotent) and returns a continuation
  // positioned at the interrupted stage — step() it to completion exactly like
  // a fresh start(). Requires every tier node to be remote on the transport
  // (lost coordinator-local outputs are only re-fetchable from workers) and
  // the same deployment plan: a plan-hash mismatch throws
  // std::invalid_argument.
  Continuation restore(const Snapshot& snapshot) const;
  // Drops a continuation WITHOUT closing the transport-side request (no kEnd):
  // the workers keep their slots and the journal keeps its snapshots, exactly
  // the state a dead coordinator leaves behind. This is the in-process way to
  // exercise (and benchmark) the failover path: abandon mid-request, then
  // restore() from the journal.
  void abandon(Continuation&& c) const;

  // Runs the continuation's next stage on the calling thread: step_async(),
  // waiting on the parked ops, until the cursor advances. Returns done()
  // afterwards. A stage that throws (transport death past the recovery
  // budget) leaves the cursor where it was — the caller replays from a fresh
  // start() or propagates.
  bool step(Continuation& c) const;

  // Non-blocking step for readiness-driven schedulers — the engine's one
  // stage driver (step() is a wait loop around it). It runs the stage's tier
  // walk (walk_tier), which issues the tier's remote verbs — boundary puts,
  // run-layer/run-stack, the tile workers' put/run/fetch, a relay's fetch —
  // on their channels (coalesced into pipelined writes) without waiting, and
  // parks on them:
  //
  //   kAdmitting once start()'s kBegin broadcast and input seed settle,
  //              journal stage 0;
  //   kStart     book the stage's emulated-service timer (once per stage, and
  //              park on it), then walk the tier, issuing its remote verbs;
  //   kSettling  once every issued op's reply lands, apply the success effects
  //              (shipped flags, fetched outputs and tiles), recover from
  //              any channel death, then either walk again (the timer fired,
  //              or the pass ended on a relay fetch or a tile gather) or
  //              checkpoint and advance to the next stage.
  //
  // The collect stage runs the same machine: it re-walks the cloud tier (a
  // no-op unless recovery un-marked layers) and then fetches the final
  // output, so a node death there recovers like anywhere else.
  //
  // kParked means outstanding ops are unsettled: the caller should wait for
  // readability on Continuation::pending_fds() (or sweep ops_settled()) and
  // call step_async again — the reactor keeps serving other requests
  // meanwhile, which is what overlaps wire wait (and emulated service) with
  // compute. kReady means call again now. On transports whose issue_* verbs
  // complete synchronously (in-process, loopback, decorators) every wire op
  // settles at issue. Throws like step(); the cursor semantics on throw are
  // identical.
  enum class StepStatus { kDone, kReady, kParked };
  StepStatus step_async(Continuation& c) const;

  // Extracts the result of a done() continuation.
  InferenceResult take(Continuation&& c) const;

  // Faults one request survives through tier-granular recovery.
  static constexpr std::size_t kMaxRecoveryAttempts = 3;
  // Width of the in-process VSM tile stage (0 = sequential tile loop).
  std::size_t vsm_workers() const { return options_.vsm_workers; }
  const core::Assignment& assignment() const { return assignment_; }
  const std::optional<core::FusedTilePlan>& vsm_plan() const { return vsm_; }
  const dnn::Network& network() const { return net_; }
  const std::shared_ptr<rpc::Transport>& transport() const { return transport_; }
  Stats stats() const;

 private:
  using OpEffect = std::function<void(rpc::Transport::OpHandle&)>;
  using Clock = std::chrono::steady_clock;

  // Closes the transport-side request state when a request ends, however it
  // ends (the collect stage, or a continuation torn down mid-flight).
  struct RpcRequestGuard {
    RpcRequestGuard(std::shared_ptr<rpc::Transport> transport, std::uint64_t id);
    ~RpcRequestGuard();
    RpcRequestGuard(const RpcRequestGuard&) = delete;
    RpcRequestGuard& operator=(const RpcRequestGuard&) = delete;

    std::shared_ptr<rpc::Transport> transport;
    std::uint64_t id = 0;
  };

  // Mutable per-request execution state, owned by a Continuation. One
  // request's stages run in order and never concurrently with each other, but
  // distinct requests' states are fully independent.
  struct RequestState {
    // The request input, copied in by start() (the caller's tensor may die
    // before later stages run).
    dnn::Tensor input;
    InferenceResult result;
    std::vector<dnn::Tensor> outputs;   // per layer, filled as stages run
    std::vector<bool> computed;
    // sent[producer index][tier]: the transcript message shipping producer's
    // tensor to that tier has been recorded. Index 0 is the raw input;
    // producer layer id is offset by one. Set before the record, so a
    // boundary is recorded exactly once even across recovery re-runs.
    std::vector<std::array<bool, 3>> sent;
    // shipped[producer index][tier]: the payload bytes actually reached the
    // tier's node — set only once the transport confirms it (a put's reply
    // landed), so a mid-send channel death leaves it false and the re-entered
    // tier walk re-ships without re-recording.
    std::vector<std::array<bool, 3>> shipped;
    // vsm_recorded[tile][0=scatter,1=gather]: transcript dedupe for the VSM
    // intra-edge messages (sized lazily on first stack execution).
    std::vector<std::array<bool, 2>> vsm_recorded;
    // Faults survived so far (bounded by kMaxRecoveryAttempts).
    std::size_t recovery_attempts = 0;
    // True while a restore()d request re-runs its interrupted tier: payload
    // bytes it re-delivers through the coordinator count into
    // Stats::recovery_bytes. Cleared when a tier completes.
    bool restored = false;
    // Transport request id + teardown guard.
    std::uint64_t rpc_request = 0;
    std::unique_ptr<RpcRequestGuard> rpc_guard;
  };

  // One pass of the plan at `tier` — the engine's only tier walk. Records the
  // transcript and issues every remote verb the tier needs without waiting:
  // ops still on the wire land in `ops`, each with its success effect in
  // `effects`; ops a synchronous transport completed at issue are settled on
  // the spot. Returns false when the pass ended early — on a relay whose
  // source is still remote (its fetch is the last op issued), or on a
  // tile-worker stack — and once the caller has settled the ops, the next
  // pass resumes there
  // (`computed`/`sent`/`shipped` make re-entry idempotent, exactly as for
  // recovery re-walks).
  bool walk_tier(RequestState& state, core::Tier tier,
                 std::vector<rpc::Transport::OpHandle>& ops,
                 std::vector<OpEffect>& effects) const;
  // Books `tier`'s next emulated-service slot and returns a timer op due at
  // its end (invalid when the tier has no emulated service).
  rpc::Transport::OpHandle book_service(core::Tier tier) const;
  // Tier-granular recovery after `died`: reopen the request on the lost node,
  // re-seed the slots it held from coordinator-held (or survivor-fetched)
  // tensors, and un-mark lost layers so the re-entered walk re-runs exactly
  // the interrupted tier. Returns false when the failure is not recoverable
  // here (unknown node, channel not restored and not a prunable tile worker)
  // — the caller rethrows.
  bool recover(RequestState& state, const rpc::ChannelDied& died) const;
  // The recovery policy gate shared by every ChannelDied catch site: applies
  // Options::tier_recovery and the per-request attempts bound, runs
  // recover(), and counts the attempt. False = the caller rethrows.
  bool try_recover(RequestState& state, const rpc::ChannelDied& died) const;
  // Appends a journal snapshot of `state` at continuation cursor `next_stage`
  // (no-op without Options::journal).
  void checkpoint(RequestState& state, int next_stage) const;
  void run_vsm_stack(RequestState& state) const;  // in-process: no edge node or tile workers
  void mark_stack_computed(RequestState& state) const;
  // Starts bringing layer `id`'s output to the coordinator. Returns the fetch
  // while it is still on the wire, else an invalid handle: the output is held
  // (it already was, or the transport completed the fetch at issue), or —
  // on transports without per-node slots — it was recomputed locally.
  rpc::Transport::OpHandle fetch_output(RequestState& state, dnn::LayerId id) const;
  // Lazily materialises layer `id`'s output at the coordinator (fetching from
  // the remote node that computed it and waiting, if needed) and returns it.
  const dnn::Tensor& materialize(RequestState& state, dnn::LayerId id) const;
  // Transcript + traffic record for one VSM scatter/gather message, recorded
  // once per request; returns the record (the first one, on a re-run). Byte
  // counts are a pure function of the tile plan — shared by every stack path,
  // so their transcripts cannot diverge.
  MessageRecord record_vsm_message(RequestState& state, std::size_t tile, bool gather) const;
  // The coordinator-held tensor `producer`'s consumer computes on: the raw
  // input, or the producer's output, materialised if a remote node holds it.
  const dnn::Tensor& resolve_input(RequestState& state, dnn::LayerId producer) const;

  const dnn::Network& net_;
  const exec::WeightStore& weights_;
  core::Assignment assignment_;
  std::optional<core::FusedTilePlan> vsm_;
  Options options_;
  std::shared_ptr<rpc::Transport> transport_;
  // FNV-1a over the plan's binary form: stamped into every snapshot and
  // checked by restore() so a standby with a different plan fails loudly.
  std::uint64_t plan_hash_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // in-process tile lanes; null when vsm_workers == 0
  // Recovery counters (see Stats). Mutable: infer() is const and thread-safe.
  mutable std::atomic<std::uint64_t> recoveries_{0};
  mutable std::atomic<std::uint64_t> tiers_replayed_{0};
  mutable std::atomic<std::uint64_t> layers_replayed_{0};
  mutable std::atomic<std::uint64_t> tensors_reseeded_{0};
  mutable std::atomic<std::uint64_t> recovery_bytes_{0};
  // When each tier's emulated-service node is next free (book_service).
  mutable std::mutex service_mutex_;
  mutable std::array<Clock::time_point, 3> tier_free_at_{};
};

}  // namespace d3::runtime
