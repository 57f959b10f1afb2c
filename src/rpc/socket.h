// POSIX TCP plumbing for the socket transport: RAII file descriptors,
// localhost listen/accept/connect helpers, and length-prefixed frame I/O.
//
// A frame is the unit of the coordinator <-> worker protocol:
//
//   u32 magic | u8 kind | u64 correlation id | u64 body length | body bytes
//
// The correlation id lets one channel carry several outstanding request
// frames: the coordinator stamps each request with a fresh id, the worker
// echoes it verbatim in the reply, and the transport matches replies to its
// per-channel pending-op queue (replies arrive in request order — TCP plus the
// worker's serial serve loop — so the echo is a cross-check, not a reorder
// mechanism). read_frame() is strict — EOF mid-frame, a bad magic or an
// oversized length raise SocketError, so a desynchronised stream can never be
// misparsed as a valid message.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace d3::rpc {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error("rpc: " + what) {}
};

// Bumped (…0F -> …1F) when the correlation-id field was added to the header:
// a stale binary on either end fails loudly on the first frame instead of
// misparsing the stream.
inline constexpr std::uint32_t kFrameMagic = 0xD3A0001F;
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

// Coordinator -> worker requests, worker -> coordinator replies, and the
// worker <-> worker peer-channel frames (docs/PROTOCOL.md is the full spec).
enum class MsgKind : std::uint8_t {
  // Coordinator -> worker requests.
  kConfig = 1,       // model name + weights + plan + options: makes the node live
  kBegin = 2,        // open per-request slot state
  kPut = 3,          // deliver an Envelope into a slot
  kRunLayer = 4,     // execute one layer from the node's slots
  kRunStack = 5,     // execute the VSM fused-tile stack
  kGet = 6,          // fetch a slot's tensor back
  kEnd = 7,          // drop per-request state
  kShutdown = 8,     // acknowledge and exit the serve loop
  kPeerListen = 9,   // open (or report) the node's peer listener; kOk body = port
  kConnectPeer = 10, // dial a peer node's listener and keep the channel
  kPushPeer = 11,    // push one of this node's slots directly to a peer node
  kPutTile = 12,     // deliver one VSM tile input (edge fan-out worker)
  kRunTile = 13,     // run the fused stack over one delivered tile
  kGetTile = 14,     // fetch one computed tile output back
  kPutReplica = 15,  // deliver an Envelope into a slot as a buddy *replica*:
                     // stored verbatim even though the envelope is addressed
                     // to the real consumer, so a failed-over coordinator can
                     // re-deliver it peer-to-peer without re-materialising
  kPing = 16,        // liveness probe; the node answers kPong immediately
  kJournalSync = 17, // standby -> active beacon: pull the request journal;
                     // kOk body = u64 fencing epoch + blob journal file bytes
  // Worker -> worker peer-channel frames (never seen by the coordinator).
  kPeerHello = 32,   // first frame on a dialled peer channel: sender's node name
  kPeerPut = 33,     // a pushed slot tensor: request + slot + Envelope
  // Replies.
  kOk = 64,
  kTensor = 65,   // body: one encoded tensor
  kError = 66,    // body: wire string with the failure message
  kPeerOk = 67,   // peer-channel acknowledgement (hello accepted / put stored)
  kErrorState = 68,  // body: node-name string + message string — the named
                     // node has no per-request state for this request (a fresh
                     // worker incarnation after a death); recoverable by
                     // re-begin + re-seed, unlike a generic kError
  kPong = 69,     // heartbeat reply to kPing (empty body from a worker; the
                  // coordinator beacon answers with a u64 fencing-epoch body)
  kFenced = 70,   // body: u64 current max epoch — the requesting coordinator's
                  // fencing epoch is stale (a successor already configured this
                  // worker); the verb was rejected before any state mutation
  kBundleMismatch = 71,  // body: u64 the weights hash this worker holds (0 =
                         // not configured) — a weights-elided kConfig named a
                         // different hash, so coordinator and worker disagree
                         // about the deployed model version; rejected before
                         // any state mutation
};

// RAII owner of a socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); `port` is updated to
// the bound port. Throws SocketError on failure.
Socket tcp_listen(std::uint16_t& port);

// Binds and listens on `host`:`port` (IPv4 dotted quad; "0.0.0.0" for every
// interface). `port` is updated to the bound port.
Socket tcp_listen_on(const std::string& host, std::uint16_t& port);

// Dotted-quad IPv4 address of a connected socket's remote end (getpeername) —
// how *this* process reaches the peer, which is what a third party on the same
// network should dial to reach it too (the peer-handshake advertisement).
std::string peer_address(int fd);

// Dotted-quad IPv4 address of a connected socket's local end (getsockname) —
// the interface the peer reached this process on, so listeners that must be
// reachable by the same route (a worker's peer listener) bind to it.
std::string local_address(int fd);

// First non-loopback IPv4 address of this host ("" when the host has none) —
// lets off-host-shaped tests bind real interfaces and skip cleanly otherwise.
std::string first_non_loopback_address();

// Best-effort "addr:port" of a connected socket's remote end for error
// messages; "?" when the socket is closed or was never connected. Never
// throws — it exists to annotate failures, not to cause new ones.
std::string describe_peer(int fd) noexcept;

// Accepts one connection, polling up to `timeout_ms`. `abort_check` (optional)
// is polled between waits; returning true aborts the accept (used to notice a
// worker child that died before connecting). Throws SocketError on timeout,
// abort, or OS failure.
Socket tcp_accept(const Socket& listener, int timeout_ms, bool (*abort_check)(void*) = nullptr,
                  void* abort_arg = nullptr);

// Connects to host:port (IPv4 dotted quad, e.g. "127.0.0.1").
Socket tcp_connect(const std::string& host, std::uint16_t port);

struct Frame {
  MsgKind kind = MsgKind::kOk;
  std::vector<std::uint8_t> body;
  // Correlation id echoed from request to reply (0 on channels that never
  // pipeline: peer channels, handshakes). Declared last so the pre-existing
  // Frame{kind, body} aggregate initializers stay valid.
  std::uint64_t corr = 0;
};

// Writes one frame, looping over partial writes. Throws SocketError.
void write_frame(int fd, MsgKind kind, std::span<const std::uint8_t> body,
                 std::uint64_t corr = 0);

// Appends one encoded frame (header + body) to `out` without writing it — the
// transport's per-channel outbox batches a burst of independent requests into
// one write_bytes() flush (a writev-style pipelined send).
void encode_frame(std::vector<std::uint8_t>& out, MsgKind kind,
                  std::span<const std::uint8_t> body, std::uint64_t corr);

// Writes a raw byte run (an outbox of encoded frames), looping over partial
// writes. Throws SocketError.
void write_bytes(int fd, std::span<const std::uint8_t> bytes);

// Reads one frame. Throws SocketError on any malformation, including EOF
// mid-frame. The body buffer grows with the bytes received, never ahead of
// them to the declared length.
Frame read_frame(int fd);

// Like read_frame, but a clean EOF before the first byte returns false —
// the peer hung up between messages (normal worker shutdown).
bool read_frame_or_eof(int fd, Frame& out);

// Polls `fds` for readability, returning the index of the first readable fd,
// or -1 on timeout (timeout_ms < 0 waits forever). Throws SocketError on OS
// failure. Entries with fd < 0 are skipped. The peer-push acknowledgement wait
// (a transient two-fd set) is built on this; the long-lived loops use Poller.
int poll_readable(std::span<const int> fds, int timeout_ms);

// Readiness multiplexer over a long-lived, mutating fd set: an epoll(7)
// instance owning its registrations. This is the worker serve loop's poll set
// generalized — the worker registers its coordinator connection, peer listener
// and inbound peer channels; the serving reactor registers its wake-up eventfd
// and the transport's channels — so one thread can sleep on "anything
// happened" and dispatch by tag instead of rebuilding a pollfd array per
// iteration. Level-triggered by default; `edge_triggered` registrations fire
// once per readability transition (used for hang-up sentinels that must not
// spin an idle loop).
class Poller {
 public:
  Poller();
  ~Poller();
  Poller(Poller&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Poller& operator=(Poller&&) = delete;
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Registers `fd` for readability (POLLIN | POLLRDHUP); `tag` comes back from
  // wait(). Re-registering a live fd throws.
  void add(int fd, std::uint64_t tag, bool edge_triggered = false);
  void remove(int fd);
  std::size_t size() const { return count_; }

  // Blocks up to `timeout_ms` (< 0 = forever) and returns the tags of every
  // ready registration; empty = timeout.
  std::vector<std::uint64_t> wait(int timeout_ms);

 private:
  int fd_ = -1;
  std::size_t count_ = 0;
};

// Wake-up channel for a Poller-driven loop: an eventfd(2) another thread
// signals to interrupt the loop's wait (new work queued, shutdown requested).
// signal() is async-safe and never blocks; drain() clears the pending count.
class EventFd {
 public:
  EventFd();
  int fd() const { return fd_.fd(); }
  void signal();
  void drain();

 private:
  Socket fd_;
};

// One-shot timer for a Poller-driven loop: a timerfd(2) on CLOCK_MONOTONIC —
// the clock std::chrono::steady_clock reads on Linux — that turns readable
// once `due` has passed (immediately if it already has).
class TimerFd {
 public:
  explicit TimerFd(std::chrono::steady_clock::time_point due);
  int fd() const { return fd_.fd(); }

 private:
  Socket fd_;
};

}  // namespace d3::rpc
