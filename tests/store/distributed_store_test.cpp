#include "store/distributed_store.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bitstring.h"
#include "common/serde.h"
#include "dht/network.h"
#include "wal/wal.h"

namespace mlight::store {
namespace {

using mlight::common::BitString;
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

TEST(DistributedStore, PlaceAndFind) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("0101");
  store.place(net.peers()[0], key, FakeBucket{7, 10, 1});
  const auto found = store.routeAndFind(net.peers()[1], key);
  ASSERT_NE(found.bucket, nullptr);
  EXPECT_EQ(found.bucket->value, 7);
  EXPECT_EQ(found.owner, store.ownerOf(key));
}

TEST(DistributedStore, FindMissingReturnsNull) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const auto found =
      store.routeAndFind(net.peers()[0], BitString::fromString("111"));
  EXPECT_EQ(found.bucket, nullptr);
}

TEST(DistributedStore, RouteAndFindMetersOneLookup) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.routeAndFind(net.peers()[0], BitString::fromString("0"));
    store.routeAndFind(net.peers()[0], BitString::fromString("1"));
  }
  EXPECT_EQ(meter.lookups, 2u);
}

TEST(DistributedStore, PlaceShipsBytesOnlyAcrossPeers) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("0011");
  const auto owner = store.ownerOf(key);

  CostMeter fromOwner;
  {
    MeterScope scope(net, fromOwner);
    store.place(owner, key, FakeBucket{1, 500, 5});
  }
  EXPECT_EQ(fromOwner.lookups, 1u);
  EXPECT_EQ(fromOwner.bytesMoved, 0u);  // source already owns the key

  // Re-place from a different peer: payload moves.
  auto other = net.peers()[0] == owner ? net.peers()[1] : net.peers()[0];
  CostMeter fromOther;
  {
    MeterScope scope(net, fromOther);
    store.place(other, key, FakeBucket{2, 500, 5});
  }
  EXPECT_EQ(fromOther.bytesMoved, 500u);
  EXPECT_EQ(fromOther.recordsMoved, 5u);
}

// A put carries one serialized image: the owner decodes the bucket it
// stores from that image and frames the same bytes in its WAL.
TEST(DistributedStore, PutFramesTheBytesItStores) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  mlight::wal::WalSet wal(3);
  store.attachWal(&wal);
  const BitString key = BitString::fromString("0110");
  const auto owner = store.ownerOf(key);
  const auto source = net.peers()[0] == owner ? net.peers()[1] : net.peers()[0];
  const FakeBucket bucket{9, 40, 3};
  store.place(source, key, bucket);

  const mlight::wal::PeerWal* log = wal.findPeer(net.physicalNameOf(owner));
  ASSERT_NE(log, nullptr);
  const auto frames = log->scanCommitted();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].kind, mlight::wal::FrameKind::kPlace);
  EXPECT_EQ(frames[0].key, key);
  mlight::common::Writer w;
  bucket.serialize(w);
  EXPECT_EQ(frames[0].payload, w.bytes());

  const FakeBucket* stored = store.peek(key);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->value, 9);
  EXPECT_EQ(stored->records, 3u);
  EXPECT_EQ(stored->bytes, 40u);
}

TEST(DistributedStore, PlaceLocalIsFree) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.placeLocal(BitString::fromString("01"), FakeBucket{});
  }
  EXPECT_EQ(meter.lookups, 0u);
  EXPECT_EQ(meter.bytesMoved, 0u);
  EXPECT_NE(store.peek(BitString::fromString("01")), nullptr);
}

TEST(DistributedStore, EraseRemoves) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("10");
  store.placeLocal(key, FakeBucket{});
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.peek(key), nullptr);
}

// Continuations receive Bucket*, split/merge code holds one across
// placements of other labels, and range harvests keep record pointers
// until quiescence: a peek() pointer must survive placing and erasing
// other labels, a re-place of its own label, and many doublings of the
// label directory (including a longer label that re-strides it).
TEST(DistributedStore, BucketPointersSurviveOtherPlacements) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString root;  // the empty label is a real key (PHT/DST root)
  const BitString pinned = BitString::fromString("0110");
  store.placeLocal(root, FakeBucket{-1});
  store.placeLocal(pinned, FakeBucket{42});
  FakeBucket* const rootBucket = store.peek(root);
  FakeBucket* const bucket = store.peek(pinned);
  ASSERT_NE(rootBucket, nullptr);
  ASSERT_NE(bucket, nullptr);

  std::vector<BitString> others;
  for (int i = 0; i < 4096; ++i) {
    BitString label = BitString::fromString("1");
    label.appendWordBits(static_cast<std::uint64_t>(i), 20);
    others.push_back(label);
    store.placeLocal(label, FakeBucket{i});
    (void)store.ringKey(label, 3);  // memo-only facets share the table
  }
  // A label at the 256-bit limit widens every slot of the directory.
  store.placeLocal(BitString::repeated(true, BitString::kMaxBits),
                   FakeBucket{7});
  for (std::size_t i = 0; i < others.size(); i += 2) {
    ASSERT_TRUE(store.erase(others[i]));
  }
  for (int i = 0; i < 512; ++i) {  // reuse the freed slots
    BitString label = BitString::fromString("0");
    label.appendWordBits(static_cast<std::uint64_t>(i), 20);
    store.placeLocal(label, FakeBucket{i});
  }

  EXPECT_EQ(store.peek(root), rootBucket);
  EXPECT_EQ(rootBucket->value, -1);
  EXPECT_EQ(store.peek(pinned), bucket);
  EXPECT_EQ(bucket->value, 42);
  // Re-placing the label itself overwrites the bucket in place.
  store.placeLocal(pinned, FakeBucket{43});
  EXPECT_EQ(store.peek(pinned), bucket);
  EXPECT_EQ(bucket->value, 43);
  EXPECT_EQ(store.bucketCount(), 2u + 2048u + 1u + 512u);
  for (std::size_t i = 1; i < others.size(); i += 2) {
    ASSERT_NE(store.peek(others[i]), nullptr);
    EXPECT_EQ(store.peek(others[i])->value, static_cast<int>(i));
  }
}

TEST(DistributedStore, NamespacesIsolateIndexes) {
  Network net(8);
  DistributedStore<FakeBucket> a(net, "a/");
  DistributedStore<FakeBucket> b(net, "b/");
  const BitString key = BitString::fromString("0");
  a.placeLocal(key, FakeBucket{1});
  EXPECT_EQ(b.peek(key), nullptr);
  // Same label generally lands on different peers under different
  // namespaces (hash includes the namespace).
  EXPECT_EQ(a.ringKey(key).value == b.ringKey(key).value, false);
}

TEST(DistributedStore, ChurnMigratesOwnership) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "t/");
  for (int i = 0; i < 100; ++i) {
    store.placeLocal(
        mlight::common::BitString::fromString(
            [&] {
              std::string s;
              for (int b = 0; b < 10; ++b) s.push_back((i >> b) % 2 ? '1' : '0');
              return s;
            }()),
        FakeBucket{i, 64, 1});
  }
  CostMeter churn;
  {
    MeterScope scope(net, churn);
    net.addPeer("newcomer");
  }
  // The newcomer took over some arcs; those buckets shipped.
  std::size_t misplaced = 0;
  store.forEach([&](const BitString& key, const FakeBucket&,
                    mlight::dht::RingId owner) {
    if (owner != store.ownerOf(key)) ++misplaced;
  });
  EXPECT_EQ(misplaced, 0u);
  EXPECT_GT(churn.bytesMoved, 0u);

  // Removing a peer re-homes its buckets too.
  CostMeter churn2;
  {
    MeterScope scope(net, churn2);
    net.removePeer(net.peers()[2]);
  }
  misplaced = 0;
  store.forEach([&](const BitString& key, const FakeBucket&,
                    mlight::dht::RingId owner) {
    if (owner != store.ownerOf(key)) ++misplaced;
  });
  EXPECT_EQ(misplaced, 0u);
}

TEST(DistributedStore, PerPeerRecordsAggregates) {
  Network net(4);
  DistributedStore<FakeBucket> store(net, "t/");
  store.placeLocal(BitString::fromString("0"), FakeBucket{0, 10, 3});
  store.placeLocal(BitString::fromString("1"), FakeBucket{0, 10, 4});
  const auto load = store.perPeerRecords();
  std::size_t total = 0;
  for (const auto& [peer, records] : load) total += records;
  EXPECT_EQ(total, 7u);
}

// One rule picks where an access starts.  Reads (kGet, kHintProbe) of a
// boosted label start at its frozen least-loaded copy unless the caller
// names a salt; mutating kinds (kVisit, kBatchPut) always start at the
// primary.  Only reads feed the heat counters that promote a label.
TEST(DistributedStore, AccessKindsPickTheirStartingCopy) {
  using mlight::dht::RingId;
  using mlight::dht::RpcKind;
  Network net(16, 3);
  DistributedStore<FakeBucket> store(net, "ak/");
  LoadBalancePolicy policy;
  policy.enabled = true;
  policy.promoteReads = 4;
  policy.boostCopies = 2;
  policy.windowMs = 1e9;
  store.setLoadBalance(policy);
  const auto arrivesAt = [&](RpcKind kind, const BitString& label,
                             std::size_t salt) {
    RingId at{};
    store.asyncAccess(
        kind, net.peers()[0], label, 1,
        [&](FakeBucket* bucket, const mlight::dht::RpcDelivery& d) {
          EXPECT_NE(bucket, nullptr);
          at = d.route.owner;
        },
        {}, salt);
    net.run();
    return at;
  };
  const auto readUntilDrained = [&](RpcKind kind, const BitString& label) {
    for (std::uint32_t i = 0; i < policy.promoteReads; ++i) {
      store.refreshReadRouting();
      arrivesAt(kind, label, 0);
    }
    store.drainLoadBalance();
  };

  const BitString hot = BitString::fromString("0110");
  store.placeLocal(hot, FakeBucket{1});
  readUntilDrained(RpcKind::kGet, hot);
  ASSERT_TRUE(store.isBoosted(hot));
  store.refreshReadRouting();
  // The frozen route: the least-loaded copy, first minimum wins.  The
  // primary served the promoting reads, so a replica wins.
  const auto route = store.replicaReadInfo(hot);
  ASSERT_EQ(route.size(), 3u);
  std::size_t frozen = 0;
  std::size_t other = 0;
  std::uint32_t best = ~std::uint32_t{0};
  for (const auto& copy : route) {
    if (copy.load < best) {
      best = copy.load;
      frozen = copy.salt;
    }
  }
  ASSERT_NE(frozen, 0u);
  for (const auto& copy : route) {
    if (copy.salt != 0 && copy.salt != frozen) other = copy.salt;
  }
  ASSERT_NE(other, 0u);
  const RingId primary = store.ownerOf(hot);
  const RingId frozenHolder = net.responsible(store.ringKey(hot, frozen));
  const RingId otherHolder = net.responsible(store.ringKey(hot, other));
  ASSERT_NE(frozenHolder, primary);

  EXPECT_EQ(arrivesAt(RpcKind::kGet, hot, 0), frozenHolder);
  EXPECT_EQ(arrivesAt(RpcKind::kHintProbe, hot, 0), frozenHolder);
  EXPECT_EQ(arrivesAt(RpcKind::kGet, hot, other), otherHolder);
  EXPECT_EQ(arrivesAt(RpcKind::kHintProbe, hot, other), otherHolder);
  EXPECT_EQ(arrivesAt(RpcKind::kVisit, hot, 0), primary);
  EXPECT_EQ(arrivesAt(RpcKind::kBatchPut, hot, 0), primary);

  const BitString cold = BitString::fromString("1001");
  store.placeLocal(cold, FakeBucket{2});
  readUntilDrained(RpcKind::kVisit, cold);
  EXPECT_FALSE(store.isBoosted(cold));
  readUntilDrained(RpcKind::kGet, cold);
  EXPECT_TRUE(store.isBoosted(cold));
}

TEST(DistributedStore, DestructionUnregistersFromNetwork) {
  Network net(4);
  {
    DistributedStore<FakeBucket> store(net, "t/");
    store.placeLocal(BitString::fromString("0"), FakeBucket{});
  }
  // Must not crash touching a dead store's rebalance callback.
  net.addPeer("after-destruction");
  SUCCEED();
}

}  // namespace
}  // namespace mlight::store
