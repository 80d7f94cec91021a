// Tests for the discrete-event RPC core: scheduler ordering, envelope
// serde, the per-RPC message accounting contract, and the §6 acceptance
// property that lookahead h >= 2 strictly shrinks query rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/digest.h"
#include "common/serde.h"
#include "dht/network.h"
#include "dht/rpc.h"
#include "dht/sim.h"
#include "mlight/index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::dht {
namespace {

TEST(SimScheduler, FiresInTimeThenIssueOrder) {
  SimScheduler sched;
  // This test pins the *default* same-time order (issue order), which
  // only holds with the tie shuffle off — force seed 0 so the test
  // still passes when CI perturbs the whole suite via
  // MLIGHT_SCHED_SHUFFLE_SEED (same-time order is then deliberately
  // different, and SchedulePerturbation.* owns that behavior).
  sched.setTieShuffleSeed(0);
  std::vector<int> order;
  sched.schedule(5.0, [&] { order.push_back(3); });
  sched.schedule(1.0, [&] { order.push_back(1); });
  sched.schedule(5.0, [&] { order.push_back(4); });  // same time, later seq
  sched.schedule(2.0, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sched.now(), 5.0);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.scheduledCount(), 4u);
}

TEST(SimScheduler, TieShufflePermutesSameTimeEvents) {
  // A nonzero shuffle seed fires same-time events in a seeded
  // permutation of issue order: replayable for a given seed, a pure
  // reordering (no event gained or lost), and actually different from
  // FIFO for at least one seed.
  auto runWith = [](std::uint64_t seed) {
    SimScheduler sched;
    sched.setTieShuffleSeed(seed);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      sched.schedule(1.0, [&order, i] { order.push_back(i); });
    }
    sched.run();
    return order;
  };
  const std::vector<int> fifo = runWith(0);
  EXPECT_EQ(fifo, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  bool anyDiffer = false;
  for (std::uint64_t seed : {17ull, 23ull, 71ull}) {
    const std::vector<int> shuffled = runWith(seed);
    EXPECT_EQ(runWith(seed), shuffled);  // replayable per seed
    std::vector<int> sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, fifo);  // a permutation, nothing dropped
    anyDiffer = anyDiffer || shuffled != fifo;
  }
  EXPECT_TRUE(anyDiffer);
}

// The shuffled fire order of a wide same-time batch, pinned by digest:
// events order by (time, tie) alone, and the shuffled tie is a bijection
// of the sequence number, so no two events ever compare equal and the
// order is the same on every build.  A later batch fires only after the
// whole first one.
TEST(SimScheduler, ShuffledTieOrderIsPinned) {
  constexpr int kFirst = 4096;
  constexpr int kSecond = 1024;
  SimScheduler sched;
  sched.setTieShuffleSeed(12345);
  std::vector<int> order;
  for (int i = 0; i < kFirst; ++i) {
    sched.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  for (int i = kFirst; i < kFirst + kSecond; ++i) {
    sched.schedule(2.0, [&order, i] { order.push_back(i); });
  }
  sched.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFirst + kSecond));
  std::vector<int> fired(order.begin(), order.begin() + kFirst);
  std::sort(fired.begin(), fired.end());
  for (int i = 0; i < kFirst; ++i) ASSERT_EQ(fired[i], i);
  fired.assign(order.begin() + kFirst, order.end());
  std::sort(fired.begin(), fired.end());
  for (int i = 0; i < kSecond; ++i) ASSERT_EQ(fired[i], kFirst + i);
  common::Digest d;
  for (const int i : order) d.feed(static_cast<std::uint64_t>(i));
  EXPECT_EQ(d.value(), 0xeefc3b45050d254dull);
  EXPECT_EQ(sched.tieDeliveries(),
            static_cast<std::uint64_t>(kFirst - 1 + kSecond - 1));
}

TEST(SimScheduler, PastTimestampsClampToNow) {
  SimScheduler sched;
  sched.schedule(10.0, [] {});
  sched.run();
  // An event stamped in the past runs at `now`: the clock never rewinds.
  double firedAt = -1.0;
  sched.schedule(3.0, [&] { firedAt = sched.now(); });
  sched.run();
  EXPECT_DOUBLE_EQ(firedAt, 10.0);
  EXPECT_DOUBLE_EQ(sched.now(), 10.0);
}

TEST(SimScheduler, CallbacksMayScheduleAndPump) {
  // The synchronous store facade pumps run() from inside handlers; the
  // scheduler must tolerate re-entrant draining.
  SimScheduler sched;
  int depth = 0;
  sched.schedule(1.0, [&] {
    sched.schedule(2.0, [&] {
      ++depth;
      sched.schedule(3.0, [&] { ++depth; });
      sched.run();  // inner drain
    });
    sched.run();
  });
  sched.run();
  EXPECT_EQ(depth, 2);
  EXPECT_DOUBLE_EQ(sched.now(), 3.0);
}

TEST(RpcEnvelope, SerializeRoundTripsAndMatchesWireSize) {
  RpcEnvelope env;
  env.id = 0xdeadbeefcafe1234ull;
  env.kind = RpcKind::kVisit;
  env.from = RingId{17};
  env.to = RingId{99};
  env.round = 7;
  env.payload = {1, 2, 3, 4, 5};
  common::Writer w;
  env.serialize(w);
  const auto wire = std::move(w).take();
  EXPECT_EQ(wire.size(), env.wireSize());
  common::Reader r(wire);
  const RpcEnvelope back = RpcEnvelope::deserialize(r);
  EXPECT_TRUE(r.atEnd());
  EXPECT_EQ(back.id, env.id);
  EXPECT_EQ(back.kind, env.kind);
  EXPECT_EQ(back.from, env.from);
  EXPECT_EQ(back.to, env.to);
  EXPECT_EQ(back.round, env.round);
  EXPECT_EQ(back.payload, env.payload);
}

TEST(RpcEnvelope, RejectsUnknownKindAndTruncation) {
  RpcEnvelope env;
  env.payload = {42};
  common::Writer w;
  env.serialize(w);
  auto wire = std::move(w).take();
  // Byte 8 is the kind tag (after the 8-byte id).
  wire[8] = 0xee;
  common::Reader bad(wire);
  EXPECT_THROW(RpcEnvelope::deserialize(bad), common::SerdeError);
  wire[8] = static_cast<std::uint8_t>(RpcKind::kGet);
  wire.pop_back();  // truncate the payload
  common::Reader cut(wire);
  EXPECT_THROW(RpcEnvelope::deserialize(cut), common::SerdeError);
}

TEST(Network, SendRpcMetersExactlyOneMessage) {
  Network net(64);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    RpcEnvelope env;
    env.from = net.peers().front();
    net.sendRpc(RingId{0x1234123412341234ull}, std::move(env), {});
  }
  net.run();
  EXPECT_EQ(meter.messages, 1u);
  EXPECT_EQ(meter.lookups, 1u);  // routing an RPC is one DHT-lookup
  EXPECT_GE(meter.hops, 1u);
  EXPECT_EQ(meter.bytesMoved, 0u);  // header bytes are not payload traffic
}

TEST(Network, LegacyLookupAndShipPayloadSendNoRpc) {
  // The count-metric compatibility contract: lookup() and shipPayload()
  // meter exactly what they did before the event core existed, so the
  // `messages` column is purely additive.
  Network net(64);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    const auto a = net.peers().front();
    net.lookup(a, RingId{0x5555aaaa5555aaaaull});
    net.shipPayload(a, net.peers().back(), 128, 3);
  }
  EXPECT_EQ(meter.lookups, 1u);
  EXPECT_EQ(meter.bytesMoved, 128u);
  EXPECT_EQ(meter.recordsMoved, 3u);
  EXPECT_EQ(meter.messages, 0u);
}

TEST(Network, BeginTimelineDrainsAndResetsRounds) {
  Network net(32);
  RpcEnvelope env;
  env.from = net.peers().front();
  env.round = 5;
  bool delivered = false;
  net.sendRpc(RingId{0xabcdefull}, std::move(env),
              [&](const RpcDelivery&) { delivered = true; });
  EXPECT_GT(net.pendingEvents(), 0u);
  net.beginTimeline();
  EXPECT_TRUE(delivered);  // pending deliveries ran before the reset
  EXPECT_EQ(net.pendingEvents(), 0u);
  EXPECT_EQ(net.timelineMaxRound(), 0u);
}

// Send queues live in a dense array by ring slot.  A peer that joins
// below a busy sender shifts its slot, and crashing that peer shifts it
// back; the sender's queue must follow it, so its burst keeps departing
// sendOverheadMs apart.  A busy sender that leaves drops its queue: if it
// rejoins in the same timeline, it starts idle.  beginTimeline() leaves
// every queue idle.
TEST(Network, SendQueueAcrossMembershipChange) {
  Network net(16);
  const double overhead = net.sendOverheadMs();
  const RingId sender = net.peers().back();  // the ring's last slot
  std::vector<double> departures;
  const auto send = [&net, &departures](RingId from) {
    RpcEnvelope env;
    env.from = from;
    const std::size_t i = departures.size();
    departures.push_back(-1.0);
    net.sendRpc(RingId{0x0123456789abcdefull}, std::move(env),
                [&departures, i](const RpcDelivery& d) {
                  departures[i] = d.sentAt;
                });
  };

  const double t0 = net.beginTimeline();
  for (int i = 0; i < 3; ++i) send(sender);  // departures 0-2
  // A joiner whose id sorts below the sender, so the join shifts it.
  std::string name = "joiner";
  while (!(keyId("peer-id:" + name + "#0") < sender)) name += "+";
  const RingId joiner = net.addPeer(name);
  ASSERT_LT(joiner, sender);
  send(joiner);  // departure 3
  send(joiner);  // departure 4
  ASSERT_TRUE(net.crashPeer(joiner));
  ASSERT_EQ(net.addPeer(name), joiner);  // same ring id, fresh queue
  send(joiner);  // departure 5
  ASSERT_TRUE(net.crashPeer(joiner));
  for (int i = 0; i < 2; ++i) send(sender);  // departures 6-7
  net.run();
  const std::vector<double> fromSender = {departures[0], departures[1],
                                          departures[2], departures[6],
                                          departures[7]};
  for (std::size_t i = 0; i < fromSender.size(); ++i) {
    EXPECT_EQ(fromSender[i], t0 + static_cast<double>(i) * overhead) << i;
  }
  EXPECT_EQ(departures[3], t0);
  EXPECT_EQ(departures[4], t0 + overhead);
  EXPECT_EQ(departures[5], t0);

  const double t1 = net.beginTimeline();
  for (const RingId peer : net.peers()) send(peer);
  net.run();
  for (std::size_t i = 8; i < departures.size(); ++i) {
    EXPECT_EQ(departures[i], t1) << "peer " << i - 8;
  }
}

// ISSUE 2 acceptance: on the same data, range queries with lookahead
// h >= 2 must finish in strictly fewer rounds than the basic h = 1
// algorithm — speculation flattens the sequential forwarding chain.
TEST(Lookahead, DeeperLookaheadStrictlyFewerRounds) {
  Network net(96);
  core::MLightConfig config;
  config.thetaSplit = 24;
  config.thetaMerge = 12;
  core::MLightIndex index(net, config);
  for (const auto& r : workload::uniformDataset(3000, 2, 71)) {
    index.insert(r);
  }
  const auto queries = workload::uniformRangeQueries(12, 2, 0.2, 2026);
  std::size_t roundsBasic = 0;
  std::size_t roundsPar = 0;
  std::size_t recordsBasic = 0;
  std::size_t recordsPar = 0;
  for (const auto& q : queries) {
    index.setLookahead(1);
    const auto basic = index.rangeQuery(q);
    index.setLookahead(2);
    const auto par = index.rangeQuery(q);
    roundsBasic += basic.stats.rounds;
    roundsPar += par.stats.rounds;
    recordsBasic += basic.records.size();
    recordsPar += par.records.size();
  }
  index.setLookahead(1);
  EXPECT_EQ(recordsBasic, recordsPar);  // identical answers
  EXPECT_LT(roundsPar, roundsBasic);    // strictly fewer rounds with h >= 2
}

}  // namespace
}  // namespace mlight::dht
