// Replication and crash-fault behaviour of the DistributedStore and of
// m-LIGHT running on top of it.
#include <gtest/gtest.h>

#include <string>

#include "common/bitstring.h"
#include "common/invariants.h"
#include "common/serde.h"
#include "common/rng.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "mlight/index.h"
#include "store/distributed_store.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::store {
namespace {

using mlight::common::BitString;
using mlight::common::Rng;
using mlight::dht::CostMeter;
using mlight::dht::MeterScope;
using mlight::dht::Network;

struct FakeBucket {
  int value = 0;
  std::size_t bytes = 100;
  std::size_t records = 1;
  std::size_t byteSize() const noexcept { return bytes; }
  std::size_t recordCount() const noexcept { return records; }

  void serialize(mlight::common::Writer& w) const {
    w.writeU32(static_cast<std::uint32_t>(value));
    w.writeU32(static_cast<std::uint32_t>(records));
    // Pad to the declared byteSize so the wire-size check holds.
    for (std::size_t i = 8; i < bytes; ++i) w.writeU8(0);
  }
  static FakeBucket deserialize(mlight::common::Reader& r) {
    FakeBucket b;
    b.value = static_cast<int>(r.readU32());
    b.records = r.readU32();
    std::size_t padding = 0;
    while (!r.atEnd()) {
      r.readU8();
      ++padding;
    }
    b.bytes = 8 + padding;
    return b;
  }
};

BitString label(int i) {
  std::string s;
  for (int b = 0; b < 12; ++b) s.push_back((i >> b) % 2 ? '1' : '0');
  return BitString::fromString(s);
}

TEST(Replication, PlaceCostsOnePutPerCopy) {
  Network net(32);
  DistributedStore<FakeBucket> store(net, "r/", 3);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.place(net.peers()[0], label(1), FakeBucket{1, 200, 2});
  }
  EXPECT_EQ(meter.lookups, 3u);  // primary + 2 replicas
  // Payload ships to every copy-holder the source does not own itself.
  EXPECT_GE(meter.bytesMoved, 400u);
}

TEST(Replication, ShipToReplicasCostsPerReplica) {
  Network net(32);
  DistributedStore<FakeBucket> store(net, "r/", 3);
  store.place(net.peers()[0], label(1), FakeBucket{});
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.shipToReplicas(store.ownerOf(label(1)), label(1), 50, 1);
  }
  EXPECT_EQ(meter.lookups, 2u);
  // With replication 1 it is free.
  DistributedStore<FakeBucket> single(net, "s/", 1);
  single.place(net.peers()[0], label(2), FakeBucket{});
  CostMeter m2;
  {
    MeterScope scope(net, m2);
    single.shipToReplicas(net.peers()[0], label(2), 50, 1);
  }
  EXPECT_EQ(m2.lookups, 0u);
}

TEST(Replication, CrashWithoutReplicationLosesBuckets) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "r/", 1);
  for (int i = 0; i < 200; ++i) store.placeLocal(label(i), FakeBucket{i});
  ASSERT_EQ(store.bucketCount(), 200u);
  // Crash a peer that certainly owns something.
  BitString victim = label(0);
  net.crashPeer(store.ownerOf(victim));
  EXPECT_GT(store.lostBuckets(), 0u);
  EXPECT_EQ(store.bucketCount() + store.lostBuckets(), 200u);
  EXPECT_EQ(store.peek(victim), nullptr);
}

TEST(Replication, CrashWithReplicationPreservesEverything) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "r/", 2);
  for (int i = 0; i < 200; ++i) store.placeLocal(label(i), FakeBucket{i});
  CostMeter repair;
  {
    MeterScope scope(net, repair);
    net.crashPeer(store.ownerOf(label(0)));
  }
  EXPECT_EQ(store.lostBuckets(), 0u);
  EXPECT_EQ(store.bucketCount(), 200u);
  EXPECT_GT(store.repairedBuckets(), 0u);
  EXPECT_GT(repair.bytesMoved, 0u);  // copies re-created from survivors
  // All copies re-homed consistently.
  store.forEach([&](const BitString& l, const FakeBucket&,
                    mlight::dht::RingId owner) {
    EXPECT_EQ(owner, store.ownerOf(l));
  });
}

TEST(Replication, RepeatedCrashesWithTripleReplication) {
  Network net(24);
  DistributedStore<FakeBucket> store(net, "r/", 3);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) store.placeLocal(label(i), FakeBucket{i});
  // One crash at a time with immediate repair: no bucket should die even
  // over many successive crashes.
  for (int round = 0; round < 8; ++round) {
    net.crashPeer(net.peers()[rng.below(net.peerCount())]);
  }
  EXPECT_EQ(store.lostBuckets(), 0u);
  EXPECT_EQ(store.bucketCount(), 300u);
}

TEST(Replication, UnderReplicationWarningIsLevelTriggeredNotACounter) {
  // Two peers, R = 2: every bucket is fully replicated until one peer
  // dies, at which point R = 2 is unsatisfiable — and satisfiable again
  // the moment a peer rejoins.  underReplicatedBuckets() must track
  // that *level*, unlike the monotone underReplicatedPlacements()
  // event counter.
  Network net(2);
  DistributedStore<FakeBucket> store(net, "r/", 2);
  for (int i = 0; i < 50; ++i) store.placeLocal(label(i), FakeBucket{i});
  EXPECT_EQ(store.underReplicatedBuckets(), 0u);

  const mlight::dht::RingId victim = net.peers()[0];
  const std::string name = net.physicalNameOf(victim);
  ASSERT_TRUE(net.crashPeer(victim));
  // The survivor holds a copy of everything (nothing lost), but every
  // bucket is degraded to one copy.
  EXPECT_EQ(store.lostBuckets(), 0u);
  EXPECT_EQ(store.underReplicatedBuckets(), 50u);
  EXPECT_GT(store.underReplicatedPlacements(), 0u);

  // Re-placing while degraded must not double-count: the warning set is
  // keyed by label, not by placement event.
  for (int i = 0; i < 10; ++i) store.placeLocal(label(i), FakeBucket{i});
  EXPECT_EQ(store.underReplicatedBuckets(), 50u);

  // A rejoin re-achieves R copies for every bucket: the warning state
  // clears completely (the placement event counter keeps its history).
  net.addPeer(name);
  EXPECT_EQ(store.underReplicatedBuckets(), 0u);
  const std::size_t events = store.underReplicatedPlacements();
  EXPECT_GT(events, 0u);

  // And it degrades again on the next crash — level, not latch.
  ASSERT_TRUE(net.crashPeer(net.peers()[0]));
  EXPECT_EQ(store.underReplicatedBuckets(), 50u);
}

TEST(Replication, ErasedBucketsLeaveTheUnderReplicationWarningSet) {
  // Deleting a degraded bucket removes the warning with it: an empty
  // store cannot be under-replicated.
  Network net(2);
  DistributedStore<FakeBucket> store(net, "r/", 2);
  for (int i = 0; i < 8; ++i) store.placeLocal(label(i), FakeBucket{i});
  net.crashPeer(net.peers()[0]);
  EXPECT_EQ(store.underReplicatedBuckets(), 8u);
  for (int i = 0; i < 8; ++i) store.erase(label(i));
  EXPECT_EQ(store.underReplicatedBuckets(), 0u);
}

TEST(Replication, EraseEndingADegradationEpochReArmsTheWarning) {
  // One peer, R = 2: every placement is degraded and the store warns once
  // per degradation epoch.  Erasing every degraded bucket ends the epoch,
  // so the next degraded placement warns again.
  const mlight::common::AuditLevel previous = mlight::common::auditLevel();
  mlight::common::setAuditLevel(mlight::common::AuditLevel::kBoundaries);
  Network net(1);
  DistributedStore<FakeBucket> store(net, "r/", 2);
  const auto warns = [](auto&& step) {
    testing::internal::CaptureStderr();
    step();
    const std::string err = testing::internal::GetCapturedStderr();
    return err.find("WARNING") != std::string::npos;
  };
  EXPECT_TRUE(warns([&] { store.placeLocal(label(0), {}); }));
  EXPECT_FALSE(warns([&] { store.placeLocal(label(1), {}); }));
  store.erase(label(0));
  store.erase(label(1));
  EXPECT_EQ(store.underReplicatedBuckets(), 0u);
  EXPECT_TRUE(warns([&] { store.placeLocal(label(2), {}); }));
  mlight::common::setAuditLevel(previous);
}

TEST(Replication, GracefulLeaveNeverLosesDataEvenUnreplicated) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "r/", 1);
  for (int i = 0; i < 100; ++i) store.placeLocal(label(i), FakeBucket{i});
  for (int round = 0; round < 6; ++round) {
    net.removePeer(net.peers()[0]);
  }
  EXPECT_EQ(store.lostBuckets(), 0u);
  EXPECT_EQ(store.bucketCount(), 100u);
}

TEST(Replication, MLightSurvivesCrashesWithReplication) {
  Network net(48);
  core::MLightConfig cfg;
  cfg.thetaSplit = 20;
  cfg.thetaMerge = 10;
  cfg.maxEdgeDepth = 20;
  cfg.replication = 2;
  core::MLightIndex index(net, cfg);
  mlight::index::Oracle oracle;
  Rng rng(7);
  for (const auto& r : workload::uniformDataset(800, 2, 11)) {
    index.insert(r);
    oracle.insert(r);
  }
  for (int round = 0; round < 10; ++round) {
    net.crashPeer(net.peers()[rng.below(net.peerCount())]);
  }
  EXPECT_EQ(index.store().lostBuckets(), 0u);
  index.checkInvariants();
  for (const auto& q : workload::uniformRangeQueries(10, 2, 0.2, 13)) {
    auto got = index.rangeQuery(q).records;
    mlight::index::Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
  // Writes still work after the carnage.
  mlight::index::Record r;
  r.key = mlight::common::Point{0.42, 0.58};
  r.id = 999999;
  index.insert(r);
  EXPECT_EQ(index.pointQuery(r.key).records.size(),
            oracle.pointQuery(r.key).size() + 1);
}

TEST(Replication, MLightUnreplicatedCrashLosesData) {
  Network net(48);
  core::MLightConfig cfg;
  cfg.thetaSplit = 20;
  cfg.thetaMerge = 10;
  cfg.maxEdgeDepth = 20;
  cfg.replication = 1;
  core::MLightIndex index(net, cfg);
  for (const auto& r : workload::uniformDataset(800, 2, 17)) {
    index.insert(r);
  }
  const std::size_t bucketsBefore = index.bucketCount();
  Rng rng(19);
  for (int round = 0; round < 10; ++round) {
    net.crashPeer(net.peers()[rng.below(net.peerCount())]);
  }
  // Without replication, crashes punch holes in the index.
  EXPECT_GT(index.store().lostBuckets(), 0u);
  EXPECT_LT(index.bucketCount(), bucketsBefore);
}

TEST(Replication, ReplicationMultipliesMaintenanceCost) {
  CostMeter r1;
  CostMeter r3;
  for (int rep = 1; rep <= 3; rep += 2) {
    Network net(32, 3);
    core::MLightConfig cfg;
    cfg.thetaSplit = 20;
    cfg.thetaMerge = 10;
    cfg.replication = static_cast<std::size_t>(rep);
    cfg.dhtNamespace = "rep" + std::to_string(rep) + "/";
    core::MLightIndex index(net, cfg);
    CostMeter& meter = rep == 1 ? r1 : r3;
    MeterScope scope(net, meter);
    for (const auto& r : workload::uniformDataset(500, 2, 23)) {
      index.insert(r);
    }
  }
  // Three copies ≈ one write + two replica updates per insert: the total
  // cost must rise clearly (the paper's over-DHT simplicity argument in
  // reverse: durability is paid for in maintenance bandwidth).
  EXPECT_GT(r3.lookups, r1.lookups + 2 * 500u - 100u);
  EXPECT_GT(r3.bytesMoved, 2 * r1.bytesMoved);
}

}  // namespace
}  // namespace mlight::store
