#include "rpc/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <ifaddrs.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

namespace d3::rpc {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

// Like fail_errno, but names the connection's remote end: failover logs must
// say *which* channel failed, and by the time the error surfaces the socket
// is often already closed — so the address is captured at the throw site.
[[noreturn]] void fail_errno_peer(const std::string& what, int fd) {
  const int saved = errno;
  const std::string peer = describe_peer(fd);
  errno = saved;
  throw SocketError(what + " (peer " + peer + "): " + std::strerror(saved));
}

// Full-buffer read/write loops (TCP may deliver partial chunks).
// MSG_NOSIGNAL: a peer that died mid-conversation (worker killed, reconnect
// path) must surface as SocketError/EPIPE, not as a process-killing SIGPIPE.
void write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno_peer("write", fd);
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Returns bytes read (== len), or 0 on EOF at the very first byte when
// `eof_ok`; EOF mid-buffer always throws.
std::size_t read_all(int fd, void* data, std::size_t len, bool eof_ok) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno_peer("read", fd);
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return 0;
      throw SocketError("read: peer " + describe_peer(fd) + " closed mid-frame (" +
                        std::to_string(got) + "/" + std::to_string(len) + " bytes)");
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_listen(std::uint16_t& port) { return tcp_listen_on("127.0.0.1", port); }

Socket tcp_listen_on(const std::string& host, std::uint16_t& port) {
  // CLOEXEC everywhere: a fork/exec'd worker must not inherit other
  // connections' fds, or its copies would keep those sockets alive and defeat
  // the EOF-based graceful shutdown of sibling workers.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_errno("socket");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw SocketError("listen: bad address '" + host + "'");
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) fail_errno("bind");
  if (::listen(fd, 4) < 0) fail_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail_errno("getsockname");
  port = ntohs(addr.sin_port);
  return sock;
}

Socket tcp_accept(const Socket& listener, int timeout_ms, bool (*abort_check)(void*),
                  void* abort_arg) {
  int waited = 0;
  for (;;) {
    pollfd pfd{listener.fd(), POLLIN, 0};
    const int slice = 100;
    const int n = ::poll(&pfd, 1, slice);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("poll");
    }
    if (n > 0) break;
    waited += slice;
    if (abort_check && abort_check(abort_arg))
      throw SocketError("accept: peer aborted before connecting");
    if (waited >= timeout_ms) throw SocketError("accept: timed out waiting for peer");
  }
  const int fd = ::accept4(listener.fd(), nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) fail_errno("accept");
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Socket tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_errno("socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw SocketError("connect: bad address '" + host + "'");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    fail_errno("connect to " + host + ":" + std::to_string(port));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

namespace {

// 21-byte header: u32 magic | u8 kind | u64 correlation id | u64 body length.
constexpr std::size_t kFrameHeaderBytes = 21;

void encode_header(std::uint8_t* header, MsgKind kind, std::uint64_t corr,
                   std::uint64_t len) {
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(kFrameMagic >> (8 * i));
  header[4] = static_cast<std::uint8_t>(kind);
  for (int i = 0; i < 8; ++i) header[5 + i] = static_cast<std::uint8_t>(corr >> (8 * i));
  for (int i = 0; i < 8; ++i) header[13 + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

}  // namespace

void write_frame(int fd, MsgKind kind, std::span<const std::uint8_t> body,
                 std::uint64_t corr) {
  if (body.size() > kMaxFrameBytes)
    throw SocketError("frame body of " + std::to_string(body.size()) + " bytes exceeds limit");
  std::uint8_t header[kFrameHeaderBytes];
  encode_header(header, kind, corr, body.size());
  write_all(fd, header, sizeof(header));
  if (!body.empty()) write_all(fd, body.data(), body.size());
}

void encode_frame(std::vector<std::uint8_t>& out, MsgKind kind,
                  std::span<const std::uint8_t> body, std::uint64_t corr) {
  if (body.size() > kMaxFrameBytes)
    throw SocketError("frame body of " + std::to_string(body.size()) + " bytes exceeds limit");
  std::uint8_t header[kFrameHeaderBytes];
  encode_header(header, kind, corr, body.size());
  out.insert(out.end(), header, header + sizeof(header));
  out.insert(out.end(), body.begin(), body.end());
}

void write_bytes(int fd, std::span<const std::uint8_t> bytes) {
  if (!bytes.empty()) write_all(fd, bytes.data(), bytes.size());
}

namespace {

Frame read_frame_impl(int fd, bool eof_ok, bool& eof) {
  std::uint8_t header[kFrameHeaderBytes];
  eof = false;
  if (read_all(fd, header, sizeof(header), eof_ok) == 0) {
    eof = true;
    return {};
  }
  if (load_le32(header) != kFrameMagic)
    throw SocketError("frame: bad magic from peer " + describe_peer(fd));
  const std::uint8_t kind = header[4];
  const std::uint64_t corr = load_le64(header + 5);
  const std::uint64_t len = load_le64(header + 13);
  if (len > kMaxFrameBytes)
    throw SocketError("frame: body length " + std::to_string(len) + " exceeds limit");
  Frame frame;
  frame.kind = static_cast<MsgKind>(kind);
  frame.corr = corr;
  // The declared length is a claim, not a fact: grow the body as bytes arrive
  // (1 MiB, then x4), so a lying or truncated header costs memory in
  // proportion to what the peer actually sent. x4 rather than doubling: each
  // step re-copies and re-faults what already arrived, which doubling made
  // cost ~85% on a 250 MB kConfig read against ~25% for x4.
  std::size_t have = 0;
  while (have < len) {
    const std::size_t want =
        std::min(static_cast<std::size_t>(len), std::max(std::size_t{1} << 20, 4 * have));
    frame.body.resize(want);
    read_all(fd, frame.body.data() + have, want - have, false);
    have = want;
  }
  return frame;
}

}  // namespace

Frame read_frame(int fd) {
  bool eof = false;
  Frame frame = read_frame_impl(fd, false, eof);
  return frame;
}

bool read_frame_or_eof(int fd, Frame& out) {
  bool eof = false;
  out = read_frame_impl(fd, true, eof);
  return !eof;
}

namespace {

std::string dotted_quad(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr)
    fail_errno("inet_ntop");
  return buf;
}

}  // namespace

std::string peer_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail_errno("getpeername");
  return dotted_quad(addr);
}

std::string describe_peer(int fd) noexcept {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0 ||
      addr.sin_family != AF_INET)
    return "?";
  char buf[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr) return "?";
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

std::string local_address(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail_errno("getsockname");
  return dotted_quad(addr);
}

std::string first_non_loopback_address() {
  ifaddrs* list = nullptr;
  if (::getifaddrs(&list) < 0) return {};
  std::string found;
  for (const ifaddrs* ifa = list; ifa != nullptr; ifa = ifa->ifa_next) {
    if (ifa->ifa_addr == nullptr || ifa->ifa_addr->sa_family != AF_INET) continue;
    const auto* addr = reinterpret_cast<const sockaddr_in*>(ifa->ifa_addr);
    if (ntohl(addr->sin_addr.s_addr) >> 24 == 127) continue;  // 127.0.0.0/8
    found = dotted_quad(*addr);
    break;
  }
  ::freeifaddrs(list);
  return found;
}

int poll_readable(std::span<const int> fds, int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
  for (;;) {
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("poll");
    }
    if (n == 0) return -1;
    for (std::size_t i = 0; i < pfds.size(); ++i)
      // POLLHUP/POLLERR count as readable: the subsequent read reports the
      // EOF or error precisely instead of the loop spinning.
      if (pfds[i].fd >= 0 && (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        return static_cast<int>(i);
  }
}

Poller::Poller() : fd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (fd_ < 0) fail_errno("epoll_create1");
}

Poller::~Poller() {
  if (fd_ >= 0) ::close(fd_);
}

void Poller::add(int fd, std::uint64_t tag, bool edge_triggered) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  if (edge_triggered) ev.events |= EPOLLET;
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) < 0) fail_errno("epoll_ctl add");
  ++count_;
}

void Poller::remove(int fd) {
  if (::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr) < 0) fail_errno("epoll_ctl del");
  --count_;
}

std::vector<std::uint64_t> Poller::wait(int timeout_ms) {
  // 64 ready events per wake is plenty for every loop here; anything beyond
  // stays queued in the kernel and surfaces on the next wait.
  epoll_event events[64];
  for (;;) {
    const int n = ::epoll_wait(fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("epoll_wait");
    }
    std::vector<std::uint64_t> tags;
    tags.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) tags.push_back(events[i].data.u64);
    return tags;
  }
}

EventFd::EventFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!fd_.valid()) fail_errno("eventfd");
}

void EventFd::signal() {
  const std::uint64_t one = 1;
  // Non-blocking: EAGAIN means the counter is already saturated, which still
  // wakes the waiter — the signal is level-ful, not lossy.
  [[maybe_unused]] const ssize_t n = ::write(fd_.fd(), &one, sizeof(one));
}

void EventFd::drain() {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_.fd(), &count, sizeof(count));
}

TimerFd::TimerFd(std::chrono::steady_clock::time_point due)
    : fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
  if (!fd_.valid()) fail_errno("timerfd_create");
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(due.time_since_epoch()).count();
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  if (::timerfd_settime(fd_.fd(), TFD_TIMER_ABSTIME, &spec, nullptr) != 0)
    fail_errno("timerfd_settime");
}

}  // namespace d3::rpc
