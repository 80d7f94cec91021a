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
//    PeerLoadMeter snapshot math;
//  * erased or lost boosted labels give their boost slot back;
//  * the incremental frozen-route refresh matches a full re-pick under
//    a mix of reads, splits, merges and churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/invariants.h"
#include "common/rng.h"
#include "dht/cost.h"
#include "dht/network.h"
#include "mlight/bucket.h"
#include "mlight/index.h"
#include "store/distributed_store.h"
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

/// Boosted labels that are currently stored; equals boostedLeafCount()
/// iff no boost is held by an erased or lost label.
std::size_t storedBoostedLabels(const core::MLightIndex& index) {
  std::size_t n = 0;
  index.store().forEach([&](const common::BitString& label, const auto&,
                            dht::RingId) {
    n += index.store().isBoosted(label);
  });
  return n;
}

// A merge erases a leaf's bucket, and an erased label is never read
// again, so no demotion would ever free its boost.  erase() (and crash
// loss) must give the slot back — without counting a demotion — or dead
// labels fill maxHotLeaves and no live leaf can be promoted again.
TEST(LoadBalance, ErasedBoostedLabelReleasesItsSlot) {
  const auto data = workload::northeastDataset(300, 9);
  {
    Network net(32, 3);
    core::MLightIndex index(net, balancedConfig());
    index.bulkLoad(data);
    for (std::size_t q = 0; q < 60; ++q) {
      ASSERT_TRUE(queryOk(index, data[0].key));
    }
    ASSERT_GE(index.store().boostedLeafCount(), 1u);
    for (const auto& r : data) index.erase(r.key, r.id);
    ASSERT_EQ(index.size(), 0u);
    // Every erase reads its leaf first, so the erase sweep itself
    // promotes leaves that the merges then erase.
    EXPECT_GE(index.store().hotPromotions(), 2u);
    EXPECT_EQ(storedBoostedLabels(index), index.store().boostedLeafCount());
    EXPECT_EQ(index.store().hotDemotions(), 0u);
    index.checkInvariants();
  }
  {
    // Store level, so the hot set is exactly the labels read here.
    Network net(16, 3);
    store::DistributedStore<core::LeafBucket> store(net, "lb/");
    store::LoadBalancePolicy policy;
    policy.enabled = true;
    policy.promoteReads = 4;
    policy.boostCopies = 2;
    policy.maxHotLeaves = 2;
    policy.windowMs = 1e9;
    store.setLoadBalance(policy);
    const auto label = [](const char* bits) {
      return common::BitString::fromString(bits);
    };
    const common::BitString hot[] = {label("0010"), label("0111"),
                                      label("1100")};
    for (const auto& l : hot) store.placeLocal(l, core::LeafBucket{l, {}});
    const auto heat = [&](const common::BitString& l) {
      for (int i = 0; i < 4; ++i) {
        store.refreshReadRouting();
        ASSERT_NE(store.routeAndFind(net.peers()[0], l).bucket, nullptr);
      }
      store.drainLoadBalance();
    };
    heat(hot[0]);
    heat(hot[1]);
    ASSERT_TRUE(store.isBoosted(hot[0]));
    ASSERT_TRUE(store.isBoosted(hot[1]));
    // Both hot leaves merge away: their buckets are erased.
    ASSERT_TRUE(store.erase(hot[0]));
    ASSERT_TRUE(store.erase(hot[1]));
    EXPECT_EQ(store.boostedLeafCount(), 0u);
    EXPECT_FALSE(store.isBoosted(hot[0]));
    heat(hot[2]);
    EXPECT_TRUE(store.isBoosted(hot[2]));
    EXPECT_EQ(store.hotPromotions(), 3u);
    EXPECT_EQ(store.hotDemotions(), 0u);
  }
}

class ScopedAuditLevel {
 public:
  explicit ScopedAuditLevel(common::AuditLevel level)
      : previous_(common::auditLevel()) {
    common::setAuditLevel(level);
  }
  ~ScopedAuditLevel() { common::setAuditLevel(previous_); }
  ScopedAuditLevel(const ScopedAuditLevel&) = delete;
  ScopedAuditLevel& operator=(const ScopedAuditLevel&) = delete;

 private:
  common::AuditLevel previous_;
};

// refreshReadRouting re-picks a boosted label only when the store's
// copy-set epoch or the label's last winning load moved.  At the
// paranoid level every refresh also re-picks every boosted label from
// scratch (auditFrozenReadRoutes) and throws on any difference in
// (routed, readSalt).  Each step below ends with a lookup, whose refresh
// checks the state the step left; the mix moves every input of a route:
// hot reads shift loads, batched inserts split leaves, deletes merge
// them, joins, graceful leaves and crashes move copy sets and the
// vnode→physical map, and a short heat window promotes and demotes.
TEST(LoadBalance, IncrementalRoutesMatchFullRecompute) {
  const ScopedAuditLevel paranoid(common::AuditLevel::kParanoid);
  Network net(32, 13, /*vnodesPerPeer=*/4);
  core::MLightConfig cfg = balancedConfig();
  cfg.replication = 2;
  cfg.loadBalance.windowMs = 12000.0;
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(300, 9);
  index.bulkLoad(data);
  auto fresh = workload::northeastDataset(400, 41);
  for (auto& r : fresh) r.id += 1'000'000;
  std::vector<core::MLightIndex::Record> live(data.begin(), data.end());
  std::size_t nextFresh = 0;

  common::Rng rng(20261017);
  const auto failedBefore = common::auditCounters().failed;
  std::size_t joins = 0;
  std::size_t maxBoosted = 0;
  for (std::size_t step = 0; step < 400; ++step) {
    const std::uint64_t dice = rng.below(100);
    if (dice < 70) {
      // Hot reads: a handful of keys, skewed toward the first.
      const std::size_t k = rng.below(1 + rng.below(12));
      (void)index.pointQuery(live[k].key);
    } else if (dice < 80 && nextFresh + 16 <= fresh.size()) {
      const std::span<const core::MLightIndex::Record> batch(
          fresh.data() + nextFresh, 16);
      index.insertBatched(batch, 8);
      live.insert(live.end(), fresh.begin() + nextFresh,
                  fresh.begin() + nextFresh + 16);
      nextFresh += 16;
    } else if (dice < 90 && live.size() > 40) {
      // Delete a cold record (merges), never the hot keys at the front.
      const std::size_t k = 8 + rng.below(live.size() - 8);
      index.erase(live[k].key, live[k].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (dice < 94) {
      net.addPeer("joiner:" + std::to_string(joins++));
    } else if (dice < 97 && net.peers().size() > 24 * 4) {
      ASSERT_TRUE(net.removePeer(net.peers()[rng.below(net.peers().size())]));
    } else if (net.peers().size() > 24 * 4) {
      ASSERT_TRUE(net.crashPeer(net.peers()[rng.below(net.peers().size())]));
    }
    (void)index.lookup(live[0].key);  // refresh + paranoid route audit
    maxBoosted = std::max(maxBoosted, index.store().boostedLeafCount());
  }
  EXPECT_EQ(common::auditCounters().failed, failedBefore);
  // Witnesses: the mix promoted and demoted, several labels were boosted
  // at once, and the refresh kept routes without re-picking them.
  EXPECT_GE(index.store().hotPromotions(), 2u);
  EXPECT_GE(index.store().hotDemotions(), 1u);
  EXPECT_GE(maxBoosted, 2u);
  EXPECT_GT(index.store().skippedReadRoutes(), 0u);
  EXPECT_EQ(storedBoostedLabels(index), index.store().boostedLeafCount());
}

TEST(LoadBalance, PeerLoadMeterCountsAndDigest) {
  dht::PeerLoadMeter meter;
  for (int i = 0; i < 6; ++i) meter.note(2);
  meter.note(0);
  meter.note(5);
  EXPECT_EQ(meter.countOf(2), 6u);
  EXPECT_EQ(meter.countOf(7), 0u);  // beyond the vector: implicit zero
  EXPECT_EQ(meter.counts(),
            (std::vector<std::uint64_t>{1, 0, 6, 0, 0, 1}));

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
