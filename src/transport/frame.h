// Wire framing for RpcEnvelopes over a byte stream.
//
// A TCP connection carries a sequence of frames, each
//
//   [u32 little-endian length][`length` bytes of serialized RpcEnvelope]
//
// — the same serde image the simulator meters (RpcEnvelope::wireSize),
// prefixed with its length so a stream reader can find frame boundaries.
// TCP delivers arbitrary chunk boundaries, so FrameReader reassembles
// incrementally: feed() raw recv() bytes, next() yields complete
// envelopes.  A length field above the configured ceiling poisons the
// stream (the peer is broken or hostile; the connection must be
// dropped), which bounds per-connection buffering.  FramedLink is one
// such connection over a nonblocking socket, the one type both TCP ends
// (tcp.h) hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/rpc.h"

namespace mlight::transport {

/// Ceiling on a single frame's envelope bytes.  Generous against the
/// largest legitimate payload (a client-side batch of records) while
/// keeping a malformed or hostile length field from driving an
/// arbitrarily large buffer allocation.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Bytes of the length prefix.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Appends one frame (header + serialized envelope) to `out`.
void encodeFrame(const dht::RpcEnvelope& env, std::vector<std::uint8_t>& out);

/// Incremental frame decoder over a TCP byte stream.
class FrameReader {
 public:
  explicit FrameReader(std::size_t maxFrameBytes = kMaxFrameBytes)
      : maxFrameBytes_(maxFrameBytes) {}

  /// Buffers `n` raw stream bytes.  Returns false once the stream is
  /// poisoned (a frame header announced more than maxFrameBytes) — the
  /// caller must drop the connection; no further frame can be trusted.
  bool feed(const std::uint8_t* data, std::size_t n);

  /// Extracts the next complete envelope, if one is fully buffered.
  /// Throws common::SerdeError when a complete frame's body is not
  /// exactly one well-formed envelope (the caller should drop the
  /// connection, like a poisoned stream).
  bool next(dht::RpcEnvelope& out);

  /// True once an oversized frame header was seen.
  bool poisoned() const noexcept { return poisoned_; }

  /// Stream bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buf_.size() - head_; }

  std::size_t maxFrameBytes() const noexcept { return maxFrameBytes_; }

 private:
  /// Length announced by the buffered header, if one is available.
  bool peekLength(std::uint32_t& len) const noexcept;

  std::size_t maxFrameBytes_;
  bool poisoned_ = false;
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;  ///< Bytes of buf_ already consumed.
};

/// Puts socket `fd` in nonblocking mode; throws common::CheckFailure on
/// failure.
void setNonBlocking(int fd);

/// One framed connection over a nonblocking socket: inbound bytes
/// reassemble in `reader`, outbound frames queue in `out`, whose first
/// `outHead` bytes are already sent.  The owner polls `fd` and closes
/// it.
struct FramedLink {
  int fd = -1;
  FrameReader reader;
  std::vector<std::uint8_t> out;
  std::size_t outHead = 0;

  explicit FramedLink(std::size_t maxFrameBytes) : reader(maxFrameBytes) {}

  /// Queued bytes not yet sent.
  std::size_t backlog() const noexcept { return out.size() - outHead; }

  enum class Read { kMore, kDrained, kBroken };
  /// Receives one chunk into `reader`.  kMore: bytes arrived and more may
  /// wait; kDrained: nothing to read now; kBroken: the peer closed, the
  /// socket failed or the stream is poisoned (reader.poisoned()), so the
  /// connection must be dropped.
  Read readSome();

  /// Sends queued bytes until the queue is empty or the socket would
  /// block; on blocking, drops the sent prefix once it outweighs the
  /// residue, so `out` stays within twice the backlog.  Returns false
  /// when the connection broke.
  bool flush();

  /// Closes `fd` and discards every buffered byte in both directions.
  void close();
};

}  // namespace mlight::transport
