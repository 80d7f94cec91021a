#include "transport/tcp.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/serde.h"

namespace mlight::transport {

namespace {

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MLIGHT_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  MLIGHT_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL, O_NONBLOCK) failed");
}

}  // namespace

TcpPeerServer::TcpPeerServer(std::size_t maxFrameBytes)
    : maxFrameBytes_(maxFrameBytes) {}

TcpPeerServer::~TcpPeerServer() { stop(); }

std::uint16_t TcpPeerServer::start(std::uint16_t port) {
  MLIGHT_CHECK(!running_, "TcpPeerServer already running");
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MLIGHT_CHECK(listenFd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  MLIGHT_CHECK(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(127.0.0.1) failed");
  MLIGHT_CHECK(::listen(listenFd_, 128) == 0, "listen() failed");
  socklen_t len = sizeof(addr);
  MLIGHT_CHECK(::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0,
               "getsockname() failed");
  port_ = ntohs(addr.sin_port);
  setNonBlocking(listenFd_);
  MLIGHT_CHECK(::pipe(wakePipe_) == 0, "pipe() failed");
  setNonBlocking(wakePipe_[0]);
  running_ = true;
  thread_ = std::thread([this] { serveLoop(); });
  return port_;
}

void TcpPeerServer::stop() {
  if (!running_) return;
  // Self-pipe wakeup: poll() returns, the loop sees the byte and exits.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
  thread_.join();
  running_ = false;
  for (Conn& c : conns_) {
    if (c.fd >= 0) {
      flushWrites(c);  // best-effort: ship queued responses if possible
      ::close(c.fd);
      c.fd = -1;
    }
  }
  conns_.clear();
  ::close(listenFd_);
  listenFd_ = -1;
  ::close(wakePipe_[0]);
  ::close(wakePipe_[1]);
  wakePipe_[0] = wakePipe_[1] = -1;
}

bool TcpPeerServer::serveFrames(Conn& c) {
  try {
    dht::RpcEnvelope req;
    while (c.backlog() <= backlogLimit() && c.reader.next(req)) {
      dht::RpcEnvelope resp = store_.handle(req);
      encodeFrame(resp, c.out);
      framesServed_.fetch_add(1, std::memory_order_relaxed);
      if (c.backlog() > peakBacklog_.load(std::memory_order_relaxed)) {
        peakBacklog_.store(c.backlog(), std::memory_order_relaxed);
      }
    }
  } catch (const common::SerdeError&) {
    // Malformed envelope inside a well-framed length: protocol error,
    // same remedy as an oversized frame.
    connsDropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

bool TcpPeerServer::onReadable(Conn& c) {
  std::uint8_t buf[4096];
  for (;;) {
    // Answer what is buffered before reading more, and stop reading while
    // the client is not taking its responses: the unread requests then
    // back up into the kernel buffers and TCP flow control stalls it.
    if (!serveFrames(c)) return false;
    if (c.backlog() > backlogLimit()) {
      if (!flushWrites(c)) return false;
      if (c.backlog() <= backlogLimit()) continue;  // serve the rest
      // Paused with the backlog over the limit: serveLoop polls only
      // POLLOUT, and the flush that drains it resumes serving.
      if (!c.paused) readPauses_.fetch_add(1, std::memory_order_relaxed);
      c.paused = true;
      return true;
    }
    c.paused = false;
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (!c.reader.feed(buf, static_cast<std::size_t>(n))) {
        // Oversized frame announcement: the stream is poisoned.
        connsDropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      continue;
    }
    if (n == 0) return false;  // peer closed (mid-frame residue dropped)
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // connection error
  }
  return flushWrites(c);
}

bool TcpPeerServer::flushWrites(Conn& c) {
  while (c.outHead < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.outHead,
                             c.out.size() - c.outHead, MSG_NOSIGNAL);
    if (n > 0) {
      c.outHead += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Drop the sent prefix once it outweighs the residue, so the
      // buffer stays within twice the backlog.
      if (c.outHead >= c.backlog()) {
        c.out.erase(c.out.begin(),
                    c.out.begin() + static_cast<std::ptrdiff_t>(c.outHead));
        c.outHead = 0;
      }
      return true;  // POLLOUT
    }
    if (errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.outHead = 0;
  return true;
}

void TcpPeerServer::serveLoop() {
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back(pollfd{wakePipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listenFd_, POLLIN, 0});
    for (const Conn& c : conns_) {
      // Backpressure: a connection whose backlog is over the limit is
      // not read until its client takes enough responses.
      short events = c.backlog() <= backlogLimit() ? POLLIN : 0;
      if (c.backlog() > 0) events = static_cast<short>(events | POLLOUT);
      fds.push_back(pollfd{c.fd, events, 0});
    }
    // Connections accepted below this poll round have no pollfd yet;
    // only the first `polled` entries of conns_ line up with fds[2+i].
    const std::size_t polled = conns_.size();
    const int ready = ::poll(fds.data(), fds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable; stop() still reclaims the fds
    }
    if ((fds[0].revents & POLLIN) != 0) return;  // shutdown requested
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN: accepted everything pending
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Conn c(maxFrameBytes_);
        c.fd = fd;
        conns_.push_back(std::move(c));
      }
    }
    // Walk connections back to front so erasing dead ones does not
    // disturb the pollfd indices still to visit.
    for (std::size_t i = polled; i-- > 0;) {
      const pollfd& p = fds[2 + i];
      Conn& c = conns_[i];
      bool alive = true;
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) alive = false;
      if (alive && (p.revents & POLLOUT) != 0) alive = flushWrites(c);
      // A paused connection resumes once the flush brings its backlog
      // back under the limit: first the frames it already buffered.
      const bool resume = c.paused && c.backlog() <= backlogLimit();
      if (alive && ((p.revents & POLLIN) != 0 || resume)) {
        alive = onReadable(c);
      }
      if (!alive) {
        ::close(c.fd);
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
}

}  // namespace mlight::transport
