// Automatic coordinator failover (ISSUE 9): heartbeat-triggered standby
// promotion over the address book, fenced by coordinator incarnation epochs.
//
// Two halves:
//
//   * CoordinatorBeacon — runs beside the *active* coordinator. A tiny frame
//     server answering kPing with kPong (body: u64 fencing epoch) and
//     kJournalSync with kOk (body: u64 epoch + blob of the request-journal
//     file), so standbys can watch liveness and mirror the write-ahead state
//     without touching the inference path.
//
//   * StandbyCoordinator — runs anywhere else. A monitor thread probes the
//     beacon on a fixed cadence; `miss_threshold` consecutive missed beats
//     (EOF, refused dial, or timeout) triggers unattended promotion:
//
//       1. pick epoch = max(every epoch observed from the beacon,
//          options.epoch_hint) + 1 — strictly above the dead incarnation;
//       2. dial every worker in the address book on a fresh SocketTransport
//          stamped with that epoch, and replay the (idempotent) kConfig
//          bundle — this fences the previous coordinator: from here on the
//          workers answer every frame from the lower epoch with kFenced;
//       3. load the request journal (the shared path, or the local mirror
//          kJournalSync kept fresh) and restore() every live snapshot on a
//          fresh OnlineEngine, stepping each to completion.
//
//     The repo's lossless contract carries across the takeover: resumed
//     outputs are bitwise-identical to exec::Executor and the transcript is
//     byte-identical to a run that never saw a failure.
//
// promote() is public and idempotent so deterministic drills (the promotion
// crash-point sweep, the split-brain test) can force the takeover instead of
// waiting out the probe cadence.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rpc/socket.h"
#include "rpc/socket_transport.h"
#include "runtime/address_book.h"
#include "runtime/engine.h"
#include "runtime/request_journal.h"

namespace d3::runtime {

// Durable whole-file replace: writes `bytes` to `path + ".mirror"`, fsyncs,
// then renames over `path`. A process killed at any instant leaves either the
// old complete file or the new complete file — never a torn middle. This is
// how the standby's kJournalSync mirror stays promotion-safe; exposed so
// tests can pin the atomicity contract directly. Throws rpc::SocketError.
void mirror_file_atomically(const std::string& path,
                            const std::vector<std::uint8_t>& bytes);

// Liveness + journal endpoint of the active coordinator. Serves concurrently
// connected standbys from one background thread; the destructor stops it.
class CoordinatorBeacon {
 public:
  // Binds `host`:`port` (0 = ephemeral) and starts serving. `journal_path`
  // is the active coordinator's write-ahead journal file; kJournalSync
  // replies with its current bytes (empty when the file does not exist yet).
  CoordinatorBeacon(std::uint64_t epoch, std::string journal_path,
                    const std::string& host = "127.0.0.1", std::uint16_t port = 0);
  ~CoordinatorBeacon();
  CoordinatorBeacon(const CoordinatorBeacon&) = delete;
  CoordinatorBeacon& operator=(const CoordinatorBeacon&) = delete;

  std::uint16_t port() const { return port_; }
  std::uint64_t epoch() const { return epoch_; }
  void stop();

 private:
  void serve();

  std::uint64_t epoch_ = 0;
  std::string journal_path_;
  std::uint16_t port_ = 0;
  rpc::Socket listener_;
  rpc::EventFd stop_fd_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

// One request the promoted standby finished on behalf of the dead coordinator.
struct ResumedRequest {
  std::uint64_t rpc_request = 0;
  InferenceResult result;
};

class StandbyCoordinator {
 public:
  struct Options {
    AddressBook book;
    // Journal the standby loads at promotion time. With `mirror_journal`
    // false this is the path the active coordinator writes (shared
    // filesystem); with it true this is a local file the monitor refreshes
    // from the beacon (kJournalSync) on every successful probe.
    std::string journal_path;
    bool mirror_journal = false;
    std::chrono::milliseconds probe_interval{50};
    std::chrono::milliseconds probe_timeout{1000};
    int miss_threshold = 3;
    // Buddy replica holder to arm on the promoted transport ("" = none).
    std::string buddy;
    std::size_t vsm_workers = 0;
    // Elide the weight shards from the promotion redials' kConfig (the
    // workers were booted from d3c bundles): each bundle names only the
    // weights hash. A hash disagreement makes promote() throw
    // rpc::BundleMismatch — loud, never half-configured.
    bool elide_weights = false;
    // Lower bound on the active coordinator's epoch, for the case where the
    // standby never managed a successful probe before the death.
    std::uint64_t epoch_hint = 0;
  };

  // `net` and `weights` must outlive this object (same contract as
  // OnlineEngine); the plan must match the one the active coordinator runs,
  // or restore() rejects the journal snapshots at promotion time.
  StandbyCoordinator(const dnn::Network& net, const exec::WeightStore& weights,
                     core::Assignment assignment, std::optional<core::FusedTilePlan> vsm,
                     Options options);
  ~StandbyCoordinator();
  StandbyCoordinator(const StandbyCoordinator&) = delete;
  StandbyCoordinator& operator=(const StandbyCoordinator&) = delete;

  // Starts the monitor thread. Unattended path: probe, miss, promote.
  void start();
  // Stops the monitor thread without promoting (no-op once promoted).
  void stop();
  // Blocks until promotion has completed (true) or `timeout` elapsed (false).
  bool wait_promoted(std::chrono::milliseconds timeout);

  // Performs the takeover now, synchronously; idempotent. Public so drills
  // can force a split-brain deterministically. Throws on unreachable workers
  // or a journal/plan mismatch — promotion must be loud, never half-done.
  void promote();

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  // Valid after promotion.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  rpc::SocketTransport& transport() { return *transport_; }
  OnlineEngine& engine() { return *engine_; }
  const std::vector<ResumedRequest>& resumed() const { return resumed_; }
  // Consecutive missed beats so far (diagnostics / test pinning).
  int misses() const { return misses_.load(std::memory_order_relaxed); }
  // Highest coordinator epoch this standby has seen — from beacon kPong
  // bodies, or from an rpc::Fenced answer to its own promotion attempt (a
  // lost race folds the winner's epoch in here and monitoring resumes).
  std::uint64_t observed_epoch() const {
    return observed_epoch_.load(std::memory_order_relaxed);
  }

 private:
  void monitor();
  // One probe round against the beacon: kPing (+ kJournalSync when
  // mirroring). Throws rpc::SocketError on any miss; updates observed_epoch_.
  void probe_once(rpc::Socket& beacon);
  void mirror_journal_bytes(const std::vector<std::uint8_t>& bytes);

  const dnn::Network& net_;
  const exec::WeightStore& weights_;
  core::Assignment assignment_;
  std::optional<core::FusedTilePlan> vsm_;
  Options options_;

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  // Set (under mutex_) when unattended promotion threw; wait_promoted()
  // rethrows it so a drill fails on the real cause instead of a timeout.
  std::exception_ptr promotion_error_;

  std::atomic<std::uint64_t> observed_epoch_{0};
  std::atomic<int> misses_{0};
  std::atomic<bool> promoted_{false};
  std::atomic<std::uint64_t> epoch_{0};

  std::mutex promote_mutex_;
  std::shared_ptr<rpc::SocketTransport> transport_;
  std::unique_ptr<OnlineEngine> engine_;
  std::vector<ResumedRequest> resumed_;
};

}  // namespace d3::runtime
