#include "runtime/failover.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rpc/wire.h"

namespace d3::runtime {
namespace {

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string& text = buffer.str();
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

}  // namespace

std::shared_ptr<rpc::SocketTransport> dial_deployment(const AddressBook& book,
                                                      std::uint64_t epoch, bool elide_weights,
                                                      const dnn::Network& net,
                                                      const exec::WeightStore& weights,
                                                      const core::SerializablePlan& plan) {
  auto transport = std::make_shared<rpc::SocketTransport>();
  transport->set_epoch(epoch);
  transport->set_elide_weights(elide_weights);
  std::size_t tile_workers = 0;
  for (const Endpoint& worker : book.workers()) {
    rpc::Socket channel = rpc::tcp_connect(worker.host, worker.port);
    if (worker.name == "device0" || worker.name == "edge0" || worker.name == "cloud0") {
      transport->add_node(worker.name, std::move(channel));
    } else {
      transport->add_tile_worker(std::move(channel));
      ++tile_workers;
    }
  }
  transport->configure(net.name(), net, weights, core::serialize_plan_binary(plan),
                       tile_workers);
  transport->connect_peers();
  return transport;
}

// --- CoordinatorBeacon -------------------------------------------------------

CoordinatorBeacon::CoordinatorBeacon(std::uint64_t epoch, std::string journal_path,
                                     const std::string& host, std::uint16_t port)
    : epoch_(epoch), journal_path_(std::move(journal_path)), port_(port) {
  listener_ = rpc::tcp_listen_on(host, port_);
  thread_ = std::thread([this] { serve(); });
}

CoordinatorBeacon::~CoordinatorBeacon() { stop(); }

void CoordinatorBeacon::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  stop_fd_.signal();
  thread_.join();
}

void CoordinatorBeacon::serve() {
  rpc::Poller poller;
  poller.add(stop_fd_.fd(), static_cast<std::uint64_t>(stop_fd_.fd()));
  poller.add(listener_.fd(), static_cast<std::uint64_t>(listener_.fd()));
  std::map<int, rpc::Socket> standbys;
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::vector<std::uint64_t> ready = poller.wait(-1);
    for (const std::uint64_t tag : ready) {
      const int fd = static_cast<int>(tag);
      if (fd == stop_fd_.fd()) return;
      if (fd == listener_.fd()) {
        try {
          rpc::Socket standby = rpc::tcp_accept(listener_, 1000);
          const int sfd = standby.fd();
          poller.add(sfd, static_cast<std::uint64_t>(sfd));
          standbys.emplace(sfd, std::move(standby));
        } catch (const rpc::SocketError&) {
          // A standby that vanished between readiness and accept; keep going.
        }
        continue;
      }
      const auto it = standbys.find(fd);
      if (it == standbys.end()) continue;
      bool drop = false;
      try {
        rpc::Frame request;
        if (!rpc::read_frame_or_eof(fd, request)) {
          drop = true;  // standby hung up between probes
        } else if (request.kind == rpc::MsgKind::kPing) {
          rpc::WireWriter w;
          w.u64(epoch_);
          rpc::write_frame(fd, rpc::MsgKind::kPong, w.take(), request.corr);
        } else if (request.kind == rpc::MsgKind::kJournalSync) {
          rpc::WireWriter w;
          w.u64(epoch_);
          w.blob(read_file_bytes(journal_path_));
          rpc::write_frame(fd, rpc::MsgKind::kOk, w.take(), request.corr);
        } else {
          rpc::WireWriter w;
          w.str("beacon: unexpected message kind");
          rpc::write_frame(fd, rpc::MsgKind::kError, w.take(), request.corr);
        }
      } catch (const rpc::SocketError&) {
        drop = true;
      }
      if (drop) {
        poller.remove(fd);
        standbys.erase(it);
      }
    }
  }
}

// --- StandbyCoordinator ------------------------------------------------------

StandbyCoordinator::StandbyCoordinator(const dnn::Network& net, const exec::WeightStore& weights,
                                       core::Assignment assignment,
                                       std::optional<core::FusedTilePlan> vsm, Options options)
    : net_(net),
      weights_(weights),
      assignment_(std::move(assignment)),
      vsm_(std::move(vsm)),
      options_(std::move(options)) {
  if (!options_.book.coordinator().has_value())
    throw std::invalid_argument("standby: address book has no [coordinator] beacon entry");
  observed_epoch_.store(options_.epoch_hint, std::memory_order_relaxed);
}

StandbyCoordinator::~StandbyCoordinator() { stop(); }

void StandbyCoordinator::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { monitor(); });
}

void StandbyCoordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool StandbyCoordinator::wait_promoted(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, timeout, [this] {
    return promoted_.load(std::memory_order_acquire) || promotion_error_ != nullptr;
  });
  if (promotion_error_) std::rethrow_exception(promotion_error_);
  return promoted_.load(std::memory_order_acquire);
}

void StandbyCoordinator::monitor() {
  const Endpoint beacon_at = *options_.book.coordinator();
  rpc::Socket beacon;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, options_.probe_interval, [this] { return stop_requested_; }))
        return;
    }
    try {
      if (!beacon.valid()) beacon = rpc::tcp_connect(beacon_at.host, beacon_at.port);
      probe_once(beacon);
      misses_.store(0, std::memory_order_relaxed);
    } catch (const rpc::SocketError&) {
      // Refused dial, EOF or timeout — the beacon (and with it the active
      // coordinator process) is gone or wedged. One strike.
      beacon.close();
      if (misses_.fetch_add(1, std::memory_order_relaxed) + 1 < options_.miss_threshold)
        continue;
      try {
        promote();
      } catch (const rpc::Fenced& fenced) {
        // Lost the promotion race: a rival standby already fenced the workers
        // at a higher epoch, so the very first redial answered kFenced and
        // promote() aborted before touching any state. The rival IS a live
        // coordinator — this is not a failure, it is a new active to watch.
        // Fold the observed epoch in (the next takeover bids above it) and
        // return to monitoring instead of dying with a promotion error.
        std::uint64_t seen = observed_epoch_.load(std::memory_order_relaxed);
        while (fenced.epoch() > seen &&
               !observed_epoch_.compare_exchange_weak(seen, fenced.epoch(),
                                                      std::memory_order_relaxed)) {
        }
        misses_.store(0, std::memory_order_relaxed);
        continue;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        promotion_error_ = std::current_exception();
      }
      cv_.notify_all();
      return;
    }
  }
}

void StandbyCoordinator::probe_once(rpc::Socket& beacon) {
  const auto await_reply = [&](rpc::MsgKind expected, const char* what) {
    const int fds[] = {beacon.fd()};
    const int timeout_ms = static_cast<int>(options_.probe_timeout.count());
    if (rpc::poll_readable(fds, timeout_ms) < 0)
      throw rpc::SocketError(std::string("beacon ") + what + " timed out");
    const rpc::Frame reply = rpc::read_frame(beacon.fd());
    if (reply.kind != expected)
      throw rpc::SocketError(std::string("beacon ") + what + ": unexpected reply kind");
    return reply;
  };

  rpc::write_frame(beacon.fd(), rpc::MsgKind::kPing, {});
  const rpc::Frame pong = await_reply(rpc::MsgKind::kPong, "ping");
  rpc::WireReader r(pong.body);
  const std::uint64_t epoch = r.u64();
  std::uint64_t seen = observed_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen &&
         !observed_epoch_.compare_exchange_weak(seen, epoch, std::memory_order_relaxed)) {
  }

  if (!options_.mirror_journal) return;
  rpc::write_frame(beacon.fd(), rpc::MsgKind::kJournalSync, {});
  const rpc::Frame sync = await_reply(rpc::MsgKind::kOk, "journal sync");
  rpc::WireReader sr(sync.body);
  sr.u64();  // epoch rides along; kPong above already folded it in
  mirror_journal_bytes(sr.blob());
}

void StandbyCoordinator::mirror_journal_bytes(const std::vector<std::uint8_t>& bytes) {
  mirror_file_atomically(options_.journal_path, bytes);
}

// Temp-write + fsync + atomic rename: a standby killed at ANY instant of a
// refresh leaves either the previous complete mirror or the new complete
// mirror at `path`, never a torn middle — the journal loader tolerates torn
// *tails*, not torn middles. The fsync before the rename matters: without it
// a crash shortly after the rename can surface a renamed-but-empty file.
void mirror_file_atomically(const std::string& path,
                            const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".mirror";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw rpc::SocketError("cannot write journal mirror \"" + tmp + "\"");
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      throw rpc::SocketError("short write on journal mirror \"" + tmp + "\"");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw rpc::SocketError("cannot fsync journal mirror \"" + tmp + "\"");
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw rpc::SocketError("cannot rename journal mirror into place");
  }
}

void StandbyCoordinator::promote() {
  std::lock_guard<std::mutex> lock(promote_mutex_);
  if (promoted_.load(std::memory_order_acquire)) return;

  // Strictly above every incarnation this standby has ever observed (and the
  // configured lower bound): the first kConfig at this epoch fences the old
  // coordinator out of every worker it reaches.
  const std::uint64_t new_epoch =
      std::max(observed_epoch_.load(std::memory_order_relaxed), options_.epoch_hint) + 1;

  std::shared_ptr<rpc::SocketTransport> transport =
      dial_deployment(options_.book, new_epoch, options_.elide_weights, net_, weights_,
                      core::SerializablePlan{net_.name(), assignment_, vsm_});

  const std::vector<Snapshot> live = RequestJournal::load(options_.journal_path);
  OnlineEngine::Options engine_options;
  engine_options.transport = transport;
  engine_options.journal = std::make_shared<RequestJournal>(options_.journal_path);
  auto engine = std::make_unique<OnlineEngine>(net_, weights_, assignment_, vsm_, engine_options);

  // Resume every request the dead coordinator left mid-flight. Deterministic
  // recompute + idempotent re-delivery make this safe from *any* durable
  // snapshot, even one older than what the workers last saw.
  std::vector<ResumedRequest> resumed;
  for (const Snapshot& snapshot : live) {
    OnlineEngine::Continuation c = engine->restore(snapshot);
    while (!engine->step(c)) {
    }
    resumed.push_back(ResumedRequest{snapshot.rpc_request, engine->take(std::move(c))});
  }

  transport_ = std::move(transport);
  engine_ = std::move(engine);
  resumed_ = std::move(resumed);
  epoch_.store(new_epoch, std::memory_order_release);
  {
    std::lock_guard<std::mutex> signal(mutex_);
    promoted_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace d3::runtime
