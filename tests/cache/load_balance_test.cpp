// Query-load balancing: hot-leaf read replication + least-loaded
// adaptive routing (src/store LoadBalancePolicy).
//
// Covered here:
//  * the policy is off by default and leaves zero balancing state;
//  * a read-hot leaf is promoted and its query load spreads across the
//    boosted replica set without changing any answer;
//  * routing survives losing the hottest replica mid-sweep (failover
//    with zero wrong answers, traffic keeps spreading);
//  * the whole feature is deterministic — state digests and answers are
//    bit-identical across schedule-shuffle seeds;
//  * hint-cache eviction metering (CostMeter::hintEvictions) and the
//    PeerLoadMeter snapshot math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/digest.h"
#include "dht/cost.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"

namespace mlight {
namespace {

using dht::LatencyModel;
using dht::Network;

/// Constant-latency LAN: heavy same-time tie collisions, so the
/// determinism matrix below actually stresses the deferred
/// promotion/demotion machinery.
LatencyModel lanModel() { return LatencyModel{2.0, 2.0, 1.0}; }

core::MLightConfig balancedConfig() {
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  cfg.loadBalance.enabled = true;
  cfg.loadBalance.promoteReads = 8;
  cfg.loadBalance.boostCopies = 6;
  cfg.loadBalance.windowMs = 1e9;  // stationary hotspot: no demotions
  return cfg;
}

/// Per-physical-peer envelope deltas between two PeerLoadMeter
/// snapshots, padded to the physical peer count.
std::vector<std::uint64_t> loadDelta(const Network& net,
                                     const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t>& after = net.peerLoads().counts();
  std::vector<std::uint64_t> delta(net.physicalCount(), 0);
  for (std::size_t p = 0; p < delta.size(); ++p) {
    const std::uint64_t a = p < after.size() ? after[p] : 0;
    const std::uint64_t b = p < before.size() ? before[p] : 0;
    delta[p] = a - b;
  }
  return delta;
}

/// Point query that must find the queried record (every key queried in
/// this file is a live record's key).
bool queryOk(core::MLightIndex& index, const common::Point& key) {
  const auto out = index.pointQuery(key);
  for (const auto& r : out.records) {
    if (r.key == key) return true;
  }
  return false;
}

TEST(LoadBalance, DisabledByDefaultKeepsZeroState) {
  Network net(16, 3);
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  ASSERT_FALSE(cfg.loadBalance.enabled);
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(200, 9);
  index.bulkLoad(data);
  for (std::size_t q = 0; q < 100; ++q) {
    EXPECT_TRUE(queryOk(index, data[0].key));
  }
  EXPECT_EQ(index.store().boostedLeafCount(), 0u);
  EXPECT_EQ(index.store().hotPromotions(), 0u);
  EXPECT_EQ(index.store().hotDemotions(), 0u);
}

// The core promise: hammering one key promotes its leaf, and the
// boosted replica set absorbs the traffic — the hottest peer's measured
// delta drops by at least 2x vs the unbalanced run of the exact same
// workload, with every answer still correct.
TEST(LoadBalance, HotLeafPromotedAndLoadSpreads) {
  const auto data = workload::northeastDataset(300, 9);
  const std::size_t warmup = 60;
  const std::size_t measured = 240;

  auto hottestDelta = [&](bool balanced, std::uint64_t* promotions) {
    Network net(32, 3);
    core::MLightConfig cfg = balancedConfig();
    cfg.loadBalance.enabled = balanced;
    core::MLightIndex index(net, cfg);
    index.bulkLoad(data);
    for (std::size_t q = 0; q < warmup; ++q) {
      EXPECT_TRUE(queryOk(index, data[0].key));
    }
    const std::vector<std::uint64_t> before = net.peerLoads().counts();
    for (std::size_t q = 0; q < measured; ++q) {
      EXPECT_TRUE(queryOk(index, data[0].key));
    }
    const auto delta = loadDelta(net, before);
    *promotions = index.store().hotPromotions();
    if (balanced) {
      EXPECT_GE(index.store().boostedLeafCount(), 1u);
    }
    return *std::max_element(delta.begin(), delta.end());
  };

  std::uint64_t promotionsOff = 0;
  std::uint64_t promotionsOn = 0;
  const std::uint64_t maxOff = hottestDelta(false, &promotionsOff);
  const std::uint64_t maxOn = hottestDelta(true, &promotionsOn);
  EXPECT_EQ(promotionsOff, 0u);
  EXPECT_GE(promotionsOn, 1u);
  EXPECT_LE(2 * maxOn, maxOff)
      << "boosted replicas did not absorb the hot leaf's read load";
}

// Kill the hottest replica mid-sweep: reads must fail over to the
// surviving copies with zero wrong answers, and the load must keep
// spreading over more than one peer afterwards.
TEST(HotspotRouting, FailoverUnderChurnZeroWrongAnswers) {
  Network net(32, 5);
  core::MLightConfig cfg = balancedConfig();
  cfg.replication = 2;  // base replicas so a crash cannot lose the bucket
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(300, 9);
  for (const auto& r : data) index.insert(r);

  // Phase 1: promote the hot leaf and find the hottest physical peer.
  const std::vector<std::uint64_t> s0 = net.peerLoads().counts();
  for (std::size_t q = 0; q < 120; ++q) {
    ASSERT_TRUE(queryOk(index, data[0].key));
  }
  ASSERT_GE(index.store().hotPromotions(), 1u);
  const auto hotDelta = loadDelta(net, s0);
  const std::size_t hottest = static_cast<std::size_t>(
      std::max_element(hotDelta.begin(), hotDelta.end()) - hotDelta.begin());

  // Crash the vnode of the hottest physical peer that carried the load.
  dht::RingId victim{};
  bool found = false;
  for (const auto peer : net.peers()) {
    if (net.physicalOf(peer) == hottest) {
      victim = peer;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  net.crashPeer(victim);

  // Phase 2: the sweep continues; every answer must still be exact.
  const std::vector<std::uint64_t> s1 = net.peerLoads().counts();
  std::size_t ok = 0;
  for (std::size_t q = 0; q < 120; ++q) {
    ok += queryOk(index, data[0].key);
  }
  EXPECT_EQ(ok, 120u) << "failover produced wrong or missing answers";

  // Re-convergence witness: surviving replicas share the load — more
  // than one live peer received query traffic after the crash.
  const auto postDelta = loadDelta(net, s1);
  std::size_t carriers = 0;
  for (std::size_t p = 0; p < postDelta.size(); ++p) {
    carriers += postDelta[p] > 0;
  }
  EXPECT_GE(carriers, 2u);
  index.checkInvariants();
}

// Determinism: promotions, boosted placement, frozen read routing, and
// the replica-aware hints must all be schedule-independent.  Digest and
// answers are compared across shuffle seeds against the unshuffled run.
TEST(LoadBalance, DigestStableAcrossShuffleSeeds) {
  struct Outcome {
    std::uint64_t indexDigest = 0;
    std::uint64_t netDigest = 0;
    std::uint64_t boosted = 0;
    std::size_t ok = 0;
  };
  auto runOnce = [](std::uint64_t shuffleSeed) {
    Network net(24, 7, /*vnodesPerPeer=*/1, lanModel());
    net.setScheduleShuffleSeed(shuffleSeed);
    core::MLightConfig cfg = balancedConfig();
    cfg.replication = 2;
    core::MLightIndex index(net, cfg);
    const auto data = workload::northeastDataset(200, 11);
    for (const auto& r : data) index.insert(r);
    Outcome out;
    for (std::size_t q = 0; q < 150; ++q) {
      out.ok += queryOk(index, data[q % 4].key);
    }
    index.checkInvariants();
    out.indexDigest = index.stateDigest();
    common::Digest nd;
    net.digestState(nd);
    out.netDigest = nd.value();
    out.boosted = index.store().boostedLeafCount();
    return out;
  };

  const Outcome base = runOnce(0);
  EXPECT_EQ(base.ok, 150u);
  EXPECT_GE(base.boosted, 1u);
  for (const std::uint64_t seed : {17ull, 23ull, 71ull}) {
    const Outcome run = runOnce(seed);
    const std::string label = "seed " + std::to_string(seed);
    EXPECT_EQ(base.indexDigest, run.indexDigest) << label;
    EXPECT_EQ(base.netDigest, run.netDigest) << label;
    EXPECT_EQ(base.boosted, run.boosted) << label;
    EXPECT_EQ(base.ok, run.ok) << label;
  }
}

// Read routing caches each copy holder's ring slot; membership churn
// shifts slots under those caches.  Promote hot leaves, then interleave
// joins, graceful leaves and crashes with more hot reads.  Leaving or
// crashing the peer that owns the lowest ring position shifts every
// surviving slot, so every cached slot goes stale at least once.  The
// answers must stay exact, and the digests are pinned: slot caching is
// host-side only and must not move a single routing decision.
TEST(LoadBalance, ReadRoutingDigestPinnedAcrossChurn) {
  Network net(32, 13, /*vnodesPerPeer=*/4);
  core::MLightConfig cfg = balancedConfig();
  cfg.replication = 2;
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(300, 9);
  for (const auto& r : data) index.insert(r);

  std::size_t wrong = 0;
  std::size_t reads = 0;
  const auto hotReads = [&](std::size_t n) {
    for (std::size_t q = 0; q < n; ++q, ++reads) {
      wrong += !queryOk(index, data[(reads * 7) % 5].key);
    }
  };
  while (index.store().hotPromotions() == 0 && reads < 400) hotReads(1);
  ASSERT_GE(index.store().hotPromotions(), 1u);
  hotReads(40);

  const auto dropLowest = [&](bool crash) {
    const dht::RingId lowest = net.peers().front();
    ASSERT_TRUE(crash ? net.crashPeer(lowest) : net.removePeer(lowest));
  };
  net.addPeer("joiner:1");
  hotReads(40);
  dropLowest(/*crash=*/false);
  hotReads(40);
  dropLowest(/*crash=*/true);
  hotReads(40);
  net.addPeer("joiner:2");
  hotReads(40);
  dropLowest(/*crash=*/true);
  hotReads(40);

  EXPECT_EQ(wrong, 0u);
  EXPECT_GE(index.store().boostedLeafCount(), 1u);
  index.checkInvariants();
  common::Digest nd;
  net.digestState(nd);
  EXPECT_EQ(index.stateDigest(), 0xdb04003f8ce92f2cull);
  EXPECT_EQ(nd.value(), 0xdafaea4607a27b4bull);
}

// Eviction metering: a tiny hint cache under a wide key set must churn,
// and the churn must surface as CostMeter::hintEvictions, with the
// occupancy gauge (HintCacheSet::totalHints) bounded by capacity.
TEST(LoadBalance, HintEvictionsAreMetered) {
  Network net(8, 1);
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  cfg.cache.perDimCapacity = 2;
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(400, 9);
  index.bulkLoad(data);
  for (std::size_t q = 0; q < 200; ++q) {
    EXPECT_TRUE(queryOk(index, data[(q * 7) % data.size()].key));
  }
  EXPECT_GT(net.totalCost().hintEvictions, 0u);
  EXPECT_GT(index.hintCaches().totalHints(), 0u);
}

TEST(LoadBalance, PeerLoadMeterSnapshotMath) {
  dht::PeerLoadMeter meter;
  for (int i = 0; i < 6; ++i) meter.note(2);
  meter.note(0);
  meter.note(5);
  EXPECT_EQ(meter.countOf(2), 6u);
  EXPECT_EQ(meter.countOf(7), 0u);  // beyond the vector: implicit zero
  const auto snap = meter.snapshot(8);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.max, 6u);
  EXPECT_DOUBLE_EQ(snap.avg, 1.0);
  EXPECT_EQ(snap.p99, 6u);  // nearest-rank p99 of 8 samples = the max
  EXPECT_DOUBLE_EQ(snap.maxOverAvg, 6.0);

  // The meter is digest-stable: same notes, same digest.
  common::Digest a;
  common::Digest b;
  meter.digestTo(a);
  dht::PeerLoadMeter other;
  for (int i = 0; i < 6; ++i) other.note(2);
  other.note(0);
  other.note(5);
  other.digestTo(b);
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace mlight
