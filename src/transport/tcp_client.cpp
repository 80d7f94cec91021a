#include "transport/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
// DET-ALLOW(wall-clock timeouts are the measured quantity on the real wire; never reachable from simulated paths)
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/serde.h"

namespace mlight::transport {

namespace {

/// Monotonic wall milliseconds — the real-transport clock.  The retry
/// deadlines below mirror the simulator's formula exactly, just against
/// this clock instead of the simulated one (SimScheduler::now).
double wallMs() {
  // DET-ALLOW(real transport timeouts measure wall time by definition)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now.time_since_epoch())
      .count();
}

}  // namespace

TcpTransport::TcpTransport(const dht::Network& ring,
                           std::vector<PeerAddr> peers, TcpConfig cfg)
    : ring_(ring), cfg_(cfg), addrs_(std::move(peers)) {
  MLIGHT_CHECK(addrs_.size() == ring.physicalCount(),
               "TcpTransport: address list does not match the ring");
  links_.assign(addrs_.size(), FramedLink(cfg_.maxFrameBytes));
}

TcpTransport::~TcpTransport() {
  for (FramedLink& link : links_) link.close();
}

void TcpTransport::reconnectLater(FramedLink& link) {
  link.close();
  ++reconnects_;
}

bool TcpTransport::ensureConnected(std::size_t peer) {
  FramedLink& link = links_[peer];
  if (link.fd >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MLIGHT_CHECK(fd >= 0, "socket() failed");
  setNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(addrs_[peer].port);
  if (::inet_pton(AF_INET, addrs_[peer].host.c_str(), &addr.sin_addr) == 1) {
    // In progress (EINPROGRESS) counts as connected: the queued frame
    // goes out on POLLOUT, and a refusal surfaces as POLLERR or a
    // failed send, which drop the link like any broken connection.
    const int rc =
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc == 0 || errno == EINPROGRESS) {
      link.fd = fd;
      return true;
    }
  }
  ::close(fd);
  return false;
}

void TcpTransport::transmit(Pending& p) {
  // Arm the attempt's timeout first: even a failed connect burns an
  // attempt on the same schedule the simulator would use.
  p.deadlineMs =
      wallMs() + dht::retryBackoffMs(cfg_.timeoutFloorMs, p.attempt);
  if (!ensureConnected(p.peer)) return;  // timeout drives the retry
  encodeFrame(p.env, links_[p.peer].out);
}

void TcpTransport::call(dht::RingId key, dht::RpcEnvelope env, ReplyFn onReply,
                        FailFn onFail) {
  env.id = nextId_++;
  env.to = ring_.responsible(key);
  Pending p;
  p.peer = ring_.physicalOf(env.to);
  p.env = std::move(env);
  p.onReply = std::move(onReply);
  p.onFail = std::move(onFail);
  auto [it, inserted] = pending_.emplace(p.env.id, std::move(p));
  MLIGHT_CHECK(inserted, "duplicate envelope id");
  transmit(it->second);
  pump(0);  // opportunistically move bytes without blocking
}

void TcpTransport::onReadable(FramedLink& link) {
  FramedLink::Read r = FramedLink::Read::kMore;
  while (r == FramedLink::Read::kMore) r = link.readSome();
  // A broken link (the server closed, perhaps mid-frame, or sent an
  // oversized frame) still hands over the replies that arrived whole.
  bool broken = r == FramedLink::Read::kBroken;
  try {
    dht::RpcEnvelope resp;
    while (link.reader.next(resp)) {
      const auto it = pending_.find(resp.id);
      if (it == pending_.end()) continue;  // late reply of a retried rpc
      ReplyFn onReply = std::move(it->second.onReply);
      pending_.erase(it);
      if (onReply) onReply(resp);
    }
  } catch (const common::SerdeError&) {
    broken = true;  // malformed reply: reconnect, timeouts recover
  }
  if (broken) reconnectLater(link);
}

void TcpTransport::fireExpired() {
  const double now = wallMs();
  // Collect first: onFail may issue new calls, mutating pending_.
  std::vector<std::uint64_t> expired;
  for (const auto& kv : pending_) {
    if (kv.second.deadlineMs <= now) expired.push_back(kv.first);
  }
  for (const std::uint64_t id : expired) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    Pending& p = it->second;
    if (p.attempt + 1 >= cfg_.maxAttempts) {
      deadLetters_.record(dht::DeadLetter{p.env.id, p.env.kind, p.env.from,
                                          p.env.to, p.attempt + 1, now});
      FailFn onFail = std::move(p.onFail);
      dht::RpcEnvelope env = std::move(p.env);
      const std::size_t attempts = p.attempt + 1;
      pending_.erase(it);
      if (onFail) onFail(env, attempts);
      continue;
    }
    // Retransmit: a broken pooled connection was already torn down, so
    // transmit() reconnects; the frame is re-queued verbatim (same id —
    // the server's map assignment is idempotent, and a late first reply
    // correlates fine).
    ++p.attempt;
    transmit(p);
  }
}

void TcpTransport::pump(int maxWaitMs) {
  // Deadline-aware wait bound: never sleep past the nearest retry.
  double nearest = -1.0;
  for (const auto& kv : pending_) {
    const double d = kv.second.deadlineMs;
    if (nearest < 0.0 || d < nearest) nearest = d;
  }
  int timeout = maxWaitMs;
  if (nearest >= 0.0) {
    const double untilMs = std::max(0.0, nearest - wallMs());
    timeout = std::min(timeout, static_cast<int>(std::ceil(untilMs)));
  }

  std::vector<pollfd> fds;
  std::vector<std::size_t> peerOfFd;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const FramedLink& link = links_[i];
    if (link.fd < 0) continue;
    // POLLOUT also reports the end of a nonblocking connect.
    const auto events =
        static_cast<short>(link.backlog() > 0 ? POLLIN | POLLOUT : POLLIN);
    fds.push_back(pollfd{link.fd, events, 0});
    peerOfFd.push_back(i);
  }
  if (fds.empty()) {
    // Nothing connected (e.g. every connect failed): still honor the
    // wait bound so drain() paces retries instead of spinning.
    if (timeout > 0) ::poll(nullptr, 0, timeout);
  } else if (::poll(fds.data(), fds.size(), timeout) > 0) {
    for (std::size_t k = 0; k < fds.size(); ++k) {
      FramedLink& link = links_[peerOfFd[k]];
      if (link.fd != fds[k].fd) continue;  // closed by an earlier event
      const short re = fds[k].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0 ||
          ((re & POLLOUT) != 0 && !link.flush())) {
        reconnectLater(link);
        continue;
      }
      if ((re & (POLLIN | POLLHUP)) != 0) onReadable(link);
    }
  }
  fireExpired();
}

void TcpTransport::drain() {
  while (!pending_.empty()) pump(50);
}

}  // namespace mlight::transport
