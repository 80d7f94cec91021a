// Real TCP transport: physical peers as socket-serving threads (or
// processes via examples/mlight_peerd) and a pooled, retrying client.
// Both ends hold their connections as FramedLinks (frame.h): one socket,
// one reassembly reader and one partial-write queue per connection.
//
// Server side (TcpPeerServer): one thread per physical peer runs a
// nonblocking poll(2) event loop over a listening socket, a self-pipe
// (shutdown wakeup), and its accepted links.  Each complete inbound
// envelope is applied to the peer's WireStore and the response frame is
// queued on the link, whose residue waits for POLLOUT after a partial
// write.  That queue is bounded: a client that pipelines requests
// without reading its responses stops being read once the unsent
// backlog passes 4 frames' worth, so TCP flow control pushes back on it
// (nothing is dropped).  Oversized or malformed frames drop the
// connection — the client's retry machinery recovers.
//
// Client side (TcpTransport): single-threaded (one instance per client
// thread), pooling one link per peer with lazy connect and
// reconnect-on-failure.  It resolves owners on the simulator's own ring
// (a dht::Network built with the same peer count), so both worlds place
// every key on the same peer by construction.  Requests carry
// client-assigned envelope ids for correlation; timeouts use the same
// capped exponential backoff as the simulated fault layer
// (dht::retryBackoffMs) and exhausted envelopes land in the same
// dht::DeadLetterRing the simulator uses.  This is the one corner of
// src/ that legitimately reads wall clocks — the measured quantity IS
// wall time — so those lines carry DET-ALLOW annotations and nothing
// here is reachable from simulated code paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dht/network.h"
#include "dht/rpc.h"
#include "store/wire_store.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace mlight::transport {

/// Where a physical peer listens.  Loopback-only by design: this PR's
/// scope is a multi-process single-host deployment.
struct PeerAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Client-side knobs, mirroring the simulator's FaultModel defaults so
/// the two worlds share one retry schedule.
struct TcpConfig {
  /// Backoff floor in wall milliseconds (the simulator's
  /// dht::kTimeoutBaseMs grace; loopback RTT is negligible next to it).
  double timeoutFloorMs = dht::kTimeoutBaseMs;
  /// Total transmissions per envelope, including the first
  /// (FaultModel::maxAttempts analogue).
  std::size_t maxAttempts = 6;
  std::size_t maxFrameBytes = kMaxFrameBytes;
};

/// One physical peer: WireStore + serving thread.
class TcpPeerServer {
 public:
  explicit TcpPeerServer(std::size_t maxFrameBytes = kMaxFrameBytes);
  ~TcpPeerServer();

  TcpPeerServer(const TcpPeerServer&) = delete;
  TcpPeerServer& operator=(const TcpPeerServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral), starts the serving thread,
  /// and returns the bound port.  Throws common::CheckFailure on socket
  /// errors.
  std::uint16_t start(std::uint16_t port = 0);

  /// Graceful shutdown: wakes the loop via the self-pipe, flushes each
  /// connection's queued responses best-effort, closes every socket,
  /// joins the thread.  Idempotent.
  void stop();

  std::uint16_t port() const noexcept { return port_; }

  /// The peer's record store.  Only the serving thread touches it while
  /// the loop runs; callers may inspect it before start() or after
  /// stop().
  store::WireStore& store() noexcept { return store_; }

  /// Complete request frames served (atomic; readable while running).
  std::uint64_t framesServed() const noexcept {
    return framesServed_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for protocol violations (oversized frame,
  /// malformed envelope).
  std::uint64_t connsDropped() const noexcept {
    return connsDropped_.load(std::memory_order_relaxed);
  }
  /// Times the server stopped reading a connection because its unsent
  /// response backlog passed backlogLimit().
  std::uint64_t readPauses() const noexcept {
    return readPauses_.load(std::memory_order_relaxed);
  }
  /// Largest unsent response backlog any connection has held, in bytes
  /// (at most backlogLimit() plus one response frame).
  std::uint64_t peakBacklogBytes() const noexcept {
    return peakBacklog_.load(std::memory_order_relaxed);
  }
  /// Unsent response bytes above which a connection is not read.
  std::size_t backlogLimit() const noexcept { return 4 * maxFrameBytes_; }

 private:
  void serveLoop();
  /// Serves buffered frames and reads more while the connection's
  /// backlog allows; returns false when the connection must close.
  bool onReadable(FramedLink& c);
  /// Answers buffered complete frames until the backlog passes
  /// backlogLimit(); returns false on a malformed envelope.
  bool serveFrames(FramedLink& c);
  /// Closes whatever start() opened.
  void closeSockets();

  std::size_t maxFrameBytes_;
  store::WireStore store_;
  int listenFd_ = -1;
  int wakePipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::thread thread_;
  bool running_ = false;
  std::vector<FramedLink> conns_;
  std::atomic<std::uint64_t> framesServed_{0};
  std::atomic<std::uint64_t> connsDropped_{0};
  std::atomic<std::uint64_t> readPauses_{0};
  std::atomic<std::uint64_t> peakBacklog_{0};
};

/// Client transport over real sockets.  Single-threaded: construct one
/// per client thread; instances share nothing but the ring (read only;
/// it must outlive them) and the peer address list, where peers[i]
/// serves physical peer i of `ring`.
class TcpTransport : public Transport {
 public:
  TcpTransport(const dht::Network& ring, std::vector<PeerAddr> peers,
               TcpConfig cfg = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Queues the request toward the owner of `key`.  Completion (reply or
  /// dead letter) is delivered from pump()/drain().  The envelope id is
  /// assigned here (client correlation id).
  void call(dht::RingId key, dht::RpcEnvelope env, ReplyFn onReply,
            FailFn onFail) override;

  /// One poll(2) round: flush writes, read replies, fire timeouts.
  /// Waits at most `maxWaitMs` (clamped to the nearest retry deadline);
  /// pass 0 to only collect what is already pending.
  void pump(int maxWaitMs);

  void drain() override;

  std::size_t inFlight() const noexcept { return pending_.size(); }

  const dht::DeadLetterRing& deadLetters() const override {
    return deadLetters_;
  }

  /// Reconnect attempts that replaced a broken pooled connection.
  std::uint64_t reconnects() const noexcept { return reconnects_; }

 private:
  struct Pending {
    dht::RpcEnvelope env;  ///< As sent (retransmits reuse it verbatim).
    std::size_t peer = 0;
    std::size_t attempt = 0;  ///< 0 = the original send.
    double deadlineMs = 0.0;  ///< Wall clock, monotonic epoch.
    ReplyFn onReply;
    FailFn onFail;
  };

  /// Ensures a (possibly in-progress) connection to `peer`; returns
  /// false when connect() failed outright this round.
  bool ensureConnected(std::size_t peer);
  /// Drops a broken pooled link; the next transmit reconnects it.
  void reconnectLater(FramedLink& link);
  /// Frames `p.env` onto its peer's link and arms the attempt's timeout.
  void transmit(Pending& p);
  void onReadable(FramedLink& link);
  void fireExpired();

  const dht::Network& ring_;
  TcpConfig cfg_;
  std::vector<PeerAddr> addrs_;  ///< By physical peer index.
  std::vector<FramedLink> links_;  ///< By physical peer index.
  std::map<std::uint64_t, Pending> pending_;  ///< By envelope id.
  std::uint64_t nextId_ = 1;
  std::uint64_t reconnects_ = 0;
  dht::DeadLetterRing deadLetters_;
};

}  // namespace mlight::transport
