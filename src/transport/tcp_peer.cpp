#include "transport/tcp.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/check.h"
#include "common/serde.h"

namespace mlight::transport {

TcpPeerServer::TcpPeerServer(std::size_t maxFrameBytes)
    : maxFrameBytes_(maxFrameBytes) {}

TcpPeerServer::~TcpPeerServer() { stop(); }

std::uint16_t TcpPeerServer::start(std::uint16_t port) {
  MLIGHT_CHECK(!running_, "TcpPeerServer already running");
  try {
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
  } catch (...) {
    closeSockets();  // not running yet, so stop() would not
    throw;
  }
  running_ = true;
  thread_ = std::thread([this] { serveLoop(); });
  return port_;
}

void TcpPeerServer::closeSockets() {
  for (int* fd : {&listenFd_, &wakePipe_[0], &wakePipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void TcpPeerServer::stop() {
  if (!running_) return;
  // Self-pipe wakeup: poll() returns, the loop sees the byte and exits.
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
  thread_.join();
  running_ = false;
  for (FramedLink& c : conns_) {
    c.flush();  // best-effort: ship queued responses if possible
    c.close();
  }
  conns_.clear();
  closeSockets();
}

bool TcpPeerServer::serveFrames(FramedLink& c) {
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

bool TcpPeerServer::onReadable(FramedLink& c) {
  for (;;) {
    // Answer what is buffered before reading more, and stop reading while
    // the client is not taking its responses: the unread requests then
    // back up into the kernel buffers and TCP flow control stalls it.
    if (!serveFrames(c)) return false;
    if (c.backlog() > backlogLimit()) {
      if (!c.flush()) return false;
      if (c.backlog() <= backlogLimit()) continue;  // serve the rest
      // Paused with the backlog over the limit: serveLoop polls only
      // POLLOUT, and the flush that drains it resumes serving.
      readPauses_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    const FramedLink::Read r = c.readSome();
    if (r == FramedLink::Read::kDrained) break;
    if (r == FramedLink::Read::kBroken) {
      // An oversized frame announcement poisons the stream.
      if (c.reader.poisoned()) {
        connsDropped_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
  }
  return c.flush();
}

void TcpPeerServer::serveLoop() {
  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back(pollfd{wakePipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listenFd_, POLLIN, 0});
    for (const FramedLink& c : conns_) {
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
        conns_.emplace_back(maxFrameBytes_).fd = fd;
      }
    }
    // Walk connections back to front so erasing dead ones does not
    // disturb the pollfd indices still to visit.
    for (std::size_t i = polled; i-- > 0;) {
      const pollfd& p = fds[2 + i];
      FramedLink& c = conns_[i];
      bool alive = true;
      if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) alive = false;
      if (alive && (p.revents & POLLOUT) != 0) alive = c.flush();
      // A paused connection resumes once the flush brings its backlog
      // back under the limit: first the frames it already buffered.
      const bool resume =
          c.reader.buffered() > 0 && c.backlog() <= backlogLimit();
      if (alive && ((p.revents & POLLIN) != 0 || resume)) {
        alive = onReadable(c);
      }
      if (!alive) {
        c.close();
        conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
}

}  // namespace mlight::transport
