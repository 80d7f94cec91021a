// Sim/TCP parity: the two transport backends must return every answer
// alike for the same workload and leave each record on the same peer —
// the property that makes the simulator's predictions meaningful for
// the measured wire run.  Both resolve owners on a dht::Network built
// with the same peer count, so their ring is one by construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dht/network.h"
#include "store/wire_store.h"
#include "transport/sim_transport.h"
#include "transport/tcp.h"

namespace mlight::transport {
namespace {

using store::WireStore;
using store::wireRingKey;

/// Runs the canonical wire workload (batch inserts, point gets, range
/// queries) through one Transport and returns every answer in issue
/// order.
struct Answers {
  std::uint64_t stored = 0;
  std::vector<std::uint64_t> getValues;
  std::vector<WireStore::Record> rangeHits;
  std::uint64_t deadLetters = 0;
};

Answers runWorkload(Transport& t, const dht::Network& ring) {
  Answers a;
  constexpr std::uint64_t kRecords = 256;
  const std::size_t peers = ring.physicalCount();
  // Batched inserts, grouped by owner peer exactly like the bench.
  std::vector<std::vector<WireStore::Record>> byPeer(peers);
  for (std::uint64_t k = 0; k < kRecords; ++k) {
    const std::size_t p = ring.physicalOf(ring.responsible(wireRingKey(k)));
    byPeer[p].emplace_back(k, k ^ 0xABCDu);
  }
  for (std::size_t p = 0; p < peers; ++p) {
    if (byPeer[p].empty()) continue;
    dht::RpcEnvelope env;
    env.kind = dht::RpcKind::kBatchPut;
    env.payload = WireStore::encodeBatchPut(byPeer[p]);
    t.call(wireRingKey(byPeer[p][0].first), std::move(env),
           [&a](const dht::RpcEnvelope& resp) {
             a.stored += WireStore::decodeBatchPutResponse(resp.payload);
           },
           nullptr);
  }
  t.drain();

  for (std::uint64_t k = 0; k < kRecords; k += 7) {
    dht::RpcEnvelope env;
    env.kind = dht::RpcKind::kGet;
    env.payload = WireStore::encodeGet(k);
    t.call(wireRingKey(k), std::move(env),
           [&a](const dht::RpcEnvelope& resp) {
             a.getValues.push_back(
                 WireStore::decodeGetResponse(resp.payload).value);
           },
           nullptr);
    t.drain();  // serialize gets so answer order is issue order
  }

  for (std::size_t p = 0; p < peers; ++p) {
    dht::RpcEnvelope env;
    env.kind = dht::RpcKind::kVisit;
    env.payload = WireStore::encodeRange(32, 95);
    t.call(ring.firstVnodeOf(p), std::move(env),
           [&a](const dht::RpcEnvelope& resp) {
             for (const auto& rec :
                  WireStore::decodeRangeResponse(resp.payload)) {
               a.rangeHits.push_back(rec);
             }
           },
           nullptr);
    t.drain();  // per-peer order: broadcast answers merge peer by peer
  }
  a.deadLetters = t.deadLetters().total();
  return a;
}

TEST(WireParity, SimAndTcpBackendsReturnIdenticalAnswers) {
  constexpr std::size_t kPeers = 6;

  SimTransport sim(kPeers);
  const Answers simAnswers = runWorkload(sim, sim.network());

  const dht::Network ring(kPeers);
  std::vector<TcpPeerServer> servers(kPeers);
  std::vector<PeerAddr> addrs(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) addrs[i].port = servers[i].start();
  TcpConfig cfg;
  cfg.timeoutFloorMs = 200.0;
  TcpTransport tcp(ring, addrs, cfg);
  const Answers tcpAnswers = runWorkload(tcp, ring);

  EXPECT_EQ(simAnswers.stored, tcpAnswers.stored);
  EXPECT_EQ(simAnswers.getValues, tcpAnswers.getValues);
  EXPECT_EQ(simAnswers.rangeHits, tcpAnswers.rangeHits);
  EXPECT_EQ(simAnswers.deadLetters, 0u);
  EXPECT_EQ(tcpAnswers.deadLetters, 0u);

  // And the records physically live on the peers the simulator placed
  // them on.
  for (std::size_t p = 0; p < kPeers; ++p) {
    servers[p].stop();
    EXPECT_EQ(servers[p].store().recordCount(),
              sim.storeOf(p).recordCount())
        << "peer " << p;
  }
}

}  // namespace
}  // namespace mlight::transport
