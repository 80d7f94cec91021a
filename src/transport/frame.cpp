#include "transport/frame.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/check.h"
#include "common/serde.h"

namespace mlight::transport {

void encodeFrame(const dht::RpcEnvelope& env, std::vector<std::uint8_t>& out) {
  common::Writer w = common::Writer::appendingTo(std::move(out));
  w.writeU32(static_cast<std::uint32_t>(env.wireSize()));
  env.serialize(w);
  out = std::move(w).take();
}

bool FrameReader::peekLength(std::uint32_t& len) const {
  if (buffered() < kFrameHeaderBytes) return false;
  len = common::Reader({buf_.data() + head_, kFrameHeaderBytes}).readU32();
  return true;
}

bool FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return false;
  buf_.insert(buf_.end(), data, data + n);
  // Reject an oversized announcement as soon as its header is complete,
  // before buffering any of the body.
  std::uint32_t len = 0;
  if (peekLength(len) && len > maxFrameBytes_) {
    poisoned_ = true;
    return false;
  }
  return true;
}

bool FrameReader::next(dht::RpcEnvelope& out) {
  if (poisoned_) return false;
  std::uint32_t len = 0;
  if (!peekLength(len)) return false;
  if (len > maxFrameBytes_) {
    poisoned_ = true;
    return false;
  }
  if (buffered() < kFrameHeaderBytes + len) return false;
  common::Reader r({buf_.data() + head_ + kFrameHeaderBytes, len});
  out.deserializeFrom(r);
  if (!r.atEnd()) {
    throw common::SerdeError("frame: trailing bytes after envelope");
  }
  head_ += kFrameHeaderBytes + len;
  // Compact once the consumed prefix dominates, keeping feed() appends
  // amortized O(1) without unbounded retention of dead bytes.
  if (head_ > 4096 && head_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return true;
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MLIGHT_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  MLIGHT_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(F_SETFL, O_NONBLOCK) failed");
}

FramedLink::Read FramedLink::readSome() {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      return reader.feed(buf, static_cast<std::size_t>(n)) ? Read::kMore
                                                            : Read::kBroken;
    }
    if (n == 0) return Read::kBroken;  // closed, perhaps mid-frame
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? Read::kDrained
                                                   : Read::kBroken;
  }
}

bool FramedLink::flush() {
  while (outHead < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + outHead, out.size() - outHead, MSG_NOSIGNAL);
    if (n > 0) {
      outHead += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (outHead >= backlog()) {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(outHead));
      outHead = 0;
    }
    return true;  // the rest goes on POLLOUT
  }
  out.clear();
  outHead = 0;
  return true;
}

void FramedLink::close() {
  if (fd >= 0) ::close(fd);
  fd = -1;
  reader = FrameReader(reader.maxFrameBytes());
  out.clear();
  outHead = 0;
}

}  // namespace mlight::transport
