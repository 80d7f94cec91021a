// TCP backend: loopback request/response through real sockets, the
// retry/timeout machinery against misbehaving servers, and the
// dead-letter ring when a peer never produces a well-formed reply
// (including the mid-frame-disconnect case).
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "common/check.h"
#include "dht/network.h"
#include "store/wire_store.h"
#include "transport/tcp.h"

namespace mlight::transport {
namespace {

using store::WireStore;
using store::wireRingKey;

dht::RpcEnvelope request(dht::RpcKind kind, std::vector<std::uint8_t> payload) {
  dht::RpcEnvelope env;
  env.kind = kind;
  env.payload = std::move(payload);
  return env;
}

TEST(TcpTransport, InsertAndGetThroughRealSockets) {
  constexpr std::size_t kPeers = 4;
  const dht::Network ring(kPeers);
  std::vector<TcpPeerServer> servers(kPeers);
  std::vector<PeerAddr> addrs(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) addrs[i].port = servers[i].start();

  TcpConfig cfg;
  cfg.timeoutFloorMs = 200.0;  // generous: a loaded CI box must not retry
  TcpTransport client(ring, addrs, cfg);

  // Insert 100 records in batches, addressed by the shared placement mix.
  std::vector<WireStore::Record> batch;
  std::uint32_t stored = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    batch.emplace_back(k, k * 10 + 1);
    if (batch.size() == 16 || k == 99) {
      // One batch per owner peer: group records by responsible peer.
      for (std::size_t p = 0; p < kPeers; ++p) {
        std::vector<WireStore::Record> mine;
        for (const auto& rec : batch) {
          if (ring.physicalOf(ring.responsible(wireRingKey(rec.first))) ==
              p) {
            mine.push_back(rec);
          }
        }
        if (mine.empty()) continue;
        client.call(wireRingKey(mine[0].first),
                    request(dht::RpcKind::kBatchPut,
                            WireStore::encodeBatchPut(mine)),
                    [&stored](const dht::RpcEnvelope& resp) {
                      stored += WireStore::decodeBatchPutResponse(resp.payload);
                    },
                    nullptr);
      }
      batch.clear();
    }
  }
  client.drain();
  EXPECT_EQ(stored, 100u);
  EXPECT_EQ(client.deadLetters().total(), 0u);

  // Every record is retrievable from whatever peer owns it.
  std::size_t found = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    client.call(wireRingKey(k),
                request(dht::RpcKind::kGet, WireStore::encodeGet(k)),
                [&found, k](const dht::RpcEnvelope& resp) {
                  const WireStore::GetResult r =
                      WireStore::decodeGetResponse(resp.payload);
                  EXPECT_TRUE(r.found);
                  EXPECT_EQ(r.value, k * 10 + 1);
                  ++found;
                },
                nullptr);
  }
  client.drain();
  EXPECT_EQ(found, 100u);
  EXPECT_EQ(client.deadLetters().total(), 0u);

  // Range query: broadcast to all peers, merged result must be exact.
  std::vector<WireStore::Record> merged;
  for (std::size_t p = 0; p < kPeers; ++p) {
    client.call(ring.firstVnodeOf(p),
                request(dht::RpcKind::kVisit, WireStore::encodeRange(10, 19)),
                [&merged](const dht::RpcEnvelope& resp) {
                  for (const auto& rec :
                       WireStore::decodeRangeResponse(resp.payload)) {
                    merged.push_back(rec);
                  }
                },
                nullptr);
  }
  client.drain();
  ASSERT_EQ(merged.size(), 10u);

  std::size_t records = 0;
  for (auto& s : servers) {
    s.stop();
    records += s.store().recordCount();
  }
  EXPECT_EQ(records, 100u);
}

TEST(TcpTransport, ConnectRefusedExhaustsRetriesIntoDeadLetterRing) {
  const dht::Network ring(1);
  // Reserve a port with a bound-but-closed socket so nothing listens.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  const std::uint16_t deadPort = ntohs(sa.sin_port);
  ::close(probe);

  TcpConfig cfg;
  cfg.timeoutFloorMs = 2.0;  // keep the backoff ladder test-fast
  cfg.maxAttempts = 3;
  TcpTransport client(ring, {PeerAddr{"127.0.0.1", deadPort}}, cfg);

  std::size_t failedAttempts = 0;
  client.call(wireRingKey(7),
              request(dht::RpcKind::kGet, WireStore::encodeGet(7)),
              [](const dht::RpcEnvelope&) { FAIL() << "unexpected reply"; },
              [&failedAttempts](const dht::RpcEnvelope&,
                                std::size_t attempts) {
                failedAttempts = attempts;
              });
  client.drain();
  EXPECT_EQ(failedAttempts, 3u);
  EXPECT_EQ(client.deadLetters().total(), 1u);
  EXPECT_EQ(client.deadLetters().size(), 1u);
  EXPECT_EQ(client.deadLetters().dropped(), 0u);
  const std::vector<dht::DeadLetter> log = client.deadLetters().snapshot();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].attempts, 3u);
  EXPECT_EQ(log[0].kind, dht::RpcKind::kGet);
}

/// A hostile peer: accepts, reads the request, writes half a response
/// frame, and slams the connection — forever.  Every client attempt sees
/// a mid-frame disconnect.
class MidFrameKiller {
 public:
  MidFrameKiller() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    socklen_t len = sizeof(sa);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len);
    port_ = ntohs(sa.sin_port);
    ::listen(fd_, 16);
    thread_ = std::thread([this] { loop(); });
  }

  ~MidFrameKiller() {
    stop_.store(true);
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    thread_.join();
  }

  std::uint16_t port() const { return port_; }
  std::uint64_t kills() const { return kills_.load(); }

 private:
  void loop() {
    while (!stop_.load()) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;  // listener closed
      std::uint8_t buf[4096];
      // Read one request's worth of bytes (best effort), then emit a
      // torn frame: a plausible header plus half a body.
      (void)::recv(conn, buf, sizeof(buf), 0);
      const std::uint8_t torn[] = {64, 0, 0, 0, 0xDE, 0xAD};
      (void)::send(conn, torn, sizeof(torn), MSG_NOSIGNAL);
      ::close(conn);
      kills_.fetch_add(1);
    }
  }

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> kills_{0};
};

TEST(TcpTransport, MidFrameDisconnectBecomesDeadLetter) {
  MidFrameKiller killer;
  const dht::Network ring(1);
  TcpConfig cfg;
  cfg.timeoutFloorMs = 5.0;
  cfg.maxAttempts = 3;
  TcpTransport client(ring, {PeerAddr{"127.0.0.1", killer.port()}}, cfg);

  std::size_t failedAttempts = 0;
  client.call(wireRingKey(99),
              request(dht::RpcKind::kGet, WireStore::encodeGet(99)),
              [](const dht::RpcEnvelope&) { FAIL() << "unexpected reply"; },
              [&failedAttempts](const dht::RpcEnvelope&,
                                std::size_t attempts) {
                failedAttempts = attempts;
              });
  client.drain();
  EXPECT_EQ(failedAttempts, 3u);
  EXPECT_EQ(client.deadLetters().total(), 1u);
  EXPECT_GE(killer.kills(), 1u);        // the torn frame really was seen
  EXPECT_GE(client.reconnects(), 1u);   // and the pool replaced the conn
}

TEST(TcpTransport, ServerDropsOversizedClientFrame) {
  TcpPeerServer server(/*maxFrameBytes=*/128);
  const std::uint16_t port = server.start();
  const dht::Network ring(1);
  TcpConfig cfg;
  cfg.timeoutFloorMs = 5.0;
  cfg.maxAttempts = 2;
  cfg.maxFrameBytes = 1 << 20;  // client willingly sends a big frame
  TcpTransport client(ring, {PeerAddr{"127.0.0.1", port}}, cfg);

  dht::RpcEnvelope big = request(dht::RpcKind::kGet, {});
  big.payload.assign(4096, 0x55);  // over the server's 128-byte ceiling
  std::size_t failed = 0;
  client.call(wireRingKey(1), std::move(big),
              [](const dht::RpcEnvelope&) { FAIL() << "unexpected reply"; },
              [&failed](const dht::RpcEnvelope&, std::size_t) { ++failed; });
  client.drain();
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(client.deadLetters().total(), 1u);
  server.stop();
  EXPECT_GE(server.connsDropped(), 1u);
  EXPECT_EQ(server.framesServed(), 0u);
}

std::size_t openFdCount() {
  using std::filesystem::directory_iterator;
  return static_cast<std::size_t>(
      std::distance(directory_iterator("/proc/self/fd"), directory_iterator()));
}

// A start() that fails part way (here at bind, the port being taken)
// closes the sockets it opened: the server is not running, so neither
// stop() nor the destructor would.
TEST(TcpTransport, FailedStartClosesItsSockets) {
  TcpPeerServer holder;
  const std::uint16_t port = holder.start();
  const std::size_t before = openFdCount();
  {
    TcpPeerServer second;
    EXPECT_THROW(second.start(port), common::CheckFailure);
  }
  EXPECT_EQ(openFdCount(), before);
  holder.stop();
}

// A client that pipelines requests and never reads: the server stops
// reading it once the unsent response backlog passes backlogLimit(), so
// the backlog peaks within the limit plus one response frame.  Nothing
// is dropped: once the client drains, every response arrives, in order.
TEST(TcpTransport, SlowReaderBoundsServerBacklog) {
  constexpr std::size_t kMaxFrame = 256;  // backlog limit: 1 KiB
  TcpPeerServer server(kMaxFrame);
  // 64 stored records make each range response ~1 KiB, so 10k of them
  // (~10 MiB) overflow any kernel socket buffering.
  std::vector<WireStore::Record> records;
  for (std::uint64_t k = 0; k < 64; ++k) records.emplace_back(k, k);
  server.store().handle(request(dht::RpcKind::kBatchPut,
                                WireStore::encodeBatchPut(records)));
  const dht::RpcEnvelope scan =
      request(dht::RpcKind::kVisit, WireStore::encodeRange(0, 63));
  std::vector<std::uint8_t> oneResponse;
  encodeFrame(server.store().handle(scan), oneResponse);
  const std::uint16_t port = server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  constexpr std::uint64_t kFrames = 10000;
  std::vector<std::uint8_t> requests;
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    dht::RpcEnvelope env = scan;
    env.id = id;
    encodeFrame(env, requests);
  }
  // The writer blocks once the server stops reading; it finishes as the
  // drain below lets the server resume.
  std::thread writer([fd, &requests] {
    std::size_t sent = 0;
    while (sent < requests.size()) {
      const ssize_t n = ::send(fd, requests.data() + sent,
                               requests.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  });

  // Wait until the server has stalled on the unread responses.
  std::uint64_t served = 0;
  for (int waited = 0; waited < 200; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const std::uint64_t now = server.framesServed();
    if (server.readPauses() > 0 && now == served) break;
    served = now;
  }
  const std::uint64_t bound = server.backlogLimit() + oneResponse.size();
  EXPECT_GE(server.readPauses(), 1u);
  EXPECT_LT(server.framesServed(), kFrames);
  EXPECT_LE(server.peakBacklogBytes(), bound);

  FrameReader reader(oneResponse.size());
  std::uint64_t expected = 1;
  std::uint8_t buf[4096];
  bool intact = true;
  while (intact && expected <= kFrames) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    intact = n > 0 && reader.feed(buf, static_cast<std::size_t>(n));
    dht::RpcEnvelope resp;
    while (intact && reader.next(resp)) {
      intact = resp.id == expected && resp.kind == dht::RpcKind::kResponse;
      ++expected;
    }
  }
  ::shutdown(fd, SHUT_RDWR);  // unblocks the writer if the drain failed
  writer.join();
  ::close(fd);
  EXPECT_TRUE(intact) << "stream broke at response " << expected - 1;
  EXPECT_EQ(expected, kFrames + 1);
  EXPECT_EQ(reader.buffered(), 0u);
  server.stop();
  EXPECT_EQ(server.framesServed(), kFrames);
  EXPECT_LE(server.peakBacklogBytes(), bound);
}

}  // namespace
}  // namespace mlight::transport
