// Negative tests for the theorem-level audit layer: every audit* function
// must actually fire on deliberately corrupted structures, and the
// level/counter machinery must be observable.  Happy paths are covered
// implicitly by the whole suite (checkInvariants routes through the
// audits everywhere).
#include "common/invariants.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "common/zorder.h"
#include "dht/network.h"
#include "index/record.h"
#include "mlight/index.h"
#include "mlight/kdspace.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"

namespace mlight::common {
namespace {

using mlight::index::Record;

BitString bits(const char* text) { return BitString::fromString(text); }

/// Pins the audit level for one test and restores the previous level on
/// exit, so tests do not leak configuration into each other.
class ScopedLevel {
 public:
  explicit ScopedLevel(AuditLevel level) : previous_(auditLevel()) {
    setAuditLevel(level);
  }
  ~ScopedLevel() { setAuditLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  AuditLevel previous_;
};

class InvariantsTest : public ::testing::Test {
 protected:
  void SetUp() override { resetAuditCounters(); }
};

// --- auditNamingBijection ------------------------------------------------

TEST_F(InvariantsTest, NamingBijectionAcceptsValidLeafSet) {
  // 2-D tree of Fig. 1 flavor: leaves with their f_md names.
  std::vector<std::pair<BitString, BitString>> ok = {
      {bits("0010"), bits("00")},   // f(#0) — misaligned last bit
      {bits("0011"), bits("001")},  // f(#1) = #
  };
  EXPECT_NO_THROW(auditNamingBijection(ok, 2));
  EXPECT_EQ(auditCounters().passed, 1u);
}

TEST_F(InvariantsTest, NamingBijectionDetectsDuplicateKey) {
  std::vector<std::pair<BitString, BitString>> corrupt = {
      {bits("0010"), bits("00")},
      {bits("0011"), bits("00")},  // corrupted: second leaf renamed to 00
  };
  EXPECT_THROW(auditNamingBijection(corrupt, 2), AuditFailure);
  EXPECT_EQ(auditCounters().failed, 1u);
}

TEST_F(InvariantsTest, NamingBijectionDetectsNonPrefixKey) {
  std::vector<std::pair<BitString, BitString>> corrupt = {
      {bits("0010"), bits("01")},  // 01 is not a prefix of 0010
  };
  EXPECT_THROW(auditNamingBijection(corrupt, 2), AuditFailure);
}

TEST_F(InvariantsTest, NamingBijectionDetectsKeyNotProperPrefix) {
  std::vector<std::pair<BitString, BitString>> corrupt = {
      {bits("0010"), bits("0010")},  // key == leaf: not a *proper* prefix
  };
  EXPECT_THROW(auditNamingBijection(corrupt, 2), AuditFailure);
}

// --- auditSpaceTiling ----------------------------------------------------

TEST_F(InvariantsTest, SpaceTilingAcceptsCompleteTiling) {
  // m-LIGHT labels (rootPrefixBits = dims + 1 = 3): {#0, #10, #11}.
  std::vector<BitString> leaves = {bits("0010"), bits("00110"),
                                   bits("00111")};
  EXPECT_NO_THROW(auditSpaceTiling(leaves, 3));
}

TEST_F(InvariantsTest, SpaceTilingDetectsMissingLeaf) {
  std::vector<BitString> corrupt = {bits("0010"), bits("00110")};  // hole
  EXPECT_THROW(auditSpaceTiling(corrupt, 3), AuditFailure);
}

TEST_F(InvariantsTest, SpaceTilingDetectsOverlappingLeaves) {
  // #1 covers both #10 and #11, so {#0, #1, #10, #11} double-covers —
  // and the prefix relation #1 < #10 must be what trips the audit.
  std::vector<BitString> corrupt = {bits("0010"), bits("0011"),
                                    bits("00110"), bits("00111")};
  EXPECT_THROW(auditSpaceTiling(corrupt, 3), AuditFailure);
}

TEST_F(InvariantsTest, SpaceTilingWorksForPlainTriePaths) {
  // PHT-style labels: no root prefix.
  std::vector<BitString> ok = {bits("0"), bits("10"), bits("11")};
  EXPECT_NO_THROW(auditSpaceTiling(ok, 0));
  std::vector<BitString> corrupt = {bits("0"), bits("10")};
  EXPECT_THROW(auditSpaceTiling(corrupt, 0), AuditFailure);
}

// --- auditIncrementalSplit ----------------------------------------------

TEST_F(InvariantsTest, IncrementalSplitAcceptsTheoremFiveRelation) {
  // Splitting λ = #0 stored under k = f(λ) = 00: children named {k, λ}.
  EXPECT_NO_THROW(auditIncrementalSplit(bits("0010"), bits("00"), bits("00"),
                                        bits("0010")));
  // Order of the child keys must not matter.
  EXPECT_NO_THROW(auditIncrementalSplit(bits("0010"), bits("00"),
                                        bits("0010"), bits("00")));
}

TEST_F(InvariantsTest, IncrementalSplitDetectsForeignChildKey) {
  EXPECT_THROW(auditIncrementalSplit(bits("0010"), bits("00"), bits("00"),
                                     bits("0011")),
               AuditFailure);
}

TEST_F(InvariantsTest, IncrementalSplitDetectsBothChildrenMoving) {
  EXPECT_THROW(auditIncrementalSplit(bits("0010"), bits("00"), bits("0010"),
                                     bits("0010")),
               AuditFailure);
}

// --- auditIncrementalSplitPlan ------------------------------------------

TEST_F(InvariantsTest, SplitPlanRequiresExactlyOneKeeper) {
  const BitString oldKey = bits("00");
  std::vector<BitString> ok = {bits("00"), bits("0010"), bits("00100")};
  EXPECT_NO_THROW(auditIncrementalSplitPlan(oldKey, ok));

  std::vector<BitString> none = {bits("0010"), bits("00100")};
  EXPECT_THROW(auditIncrementalSplitPlan(oldKey, none), AuditFailure);
}

TEST_F(InvariantsTest, SplitPlanDetectsDuplicateKeys) {
  const BitString oldKey = bits("00");
  std::vector<BitString> corrupt = {bits("00"), bits("0010"), bits("0010")};
  EXPECT_THROW(auditIncrementalSplitPlan(oldKey, corrupt), AuditFailure);
}

// --- auditLoadVariance ---------------------------------------------------

TEST_F(InvariantsTest, LoadVarianceAcceptsBalancedPlan) {
  // Splitting 100 records into 50+50 against ε = 40:
  // (50-40)² + (50-40)² = 200 <= (100-40)² = 3600.
  std::vector<std::size_t> loads = {50, 50};
  EXPECT_NO_THROW(auditLoadVariance(loads, 40.0));
}

TEST_F(InvariantsTest, LoadVarianceDetectsPlanWorseThanNotSplitting) {
  // ε = 40, total 42: keeping the bucket whole costs (42-40)² = 4, the
  // corrupted plan costs (21-40)²·2 = 722 — Algorithm 1 would never
  // choose it.
  std::vector<std::size_t> loads = {21, 21};
  EXPECT_THROW(auditLoadVariance(loads, 40.0), AuditFailure);
}

TEST_F(InvariantsTest, LoadVarianceIgnoresSingleLeafPlans) {
  // A one-leaf plan is "do not split": nothing to compare.
  std::vector<std::size_t> loads = {999};
  EXPECT_NO_THROW(auditLoadVariance(loads, 1.0));
}

// --- auditRecordPlacement ------------------------------------------------

TEST_F(InvariantsTest, RecordPlacementDetectsEscapedRecord) {
  const Rect region(Point{0.0, 0.0}, Point{0.5, 0.5});
  Record inside;
  inside.key = Point{0.25, 0.25};
  Record outside;
  outside.key = Point{0.75, 0.25};

  std::vector<Record> ok = {inside};
  EXPECT_NO_THROW(auditRecordPlacement(
      region, ok, [](const Record& r) -> const Point& { return r.key; }));

  std::vector<Record> corrupt = {inside, outside};
  EXPECT_THROW(
      auditRecordPlacement(
          region, corrupt,
          [](const Record& r) -> const Point& { return r.key; }),
      AuditFailure);
}

// --- auditBucketKeys -----------------------------------------------------

TEST_F(InvariantsTest, BucketKeysDetectKeyArrayOutOfStep) {
  std::vector<Record> records(3);
  records[0].key = Point{0.1, 0.2};
  records[1].key = Point{0.3, 0.4};
  records[2].key = Point{0.5, 0.6};
  const auto keyOf = [](const Record& r) -> const Point& { return r.key; };
  const std::vector<double> good{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_NO_THROW(auditBucketKeys(records, good, 2, keyOf));

  std::vector<double> stale = good;
  stale[3] = 0.41;  // record 1 moved, its key array entry did not
  EXPECT_THROW(auditBucketKeys(records, stale, 2, keyOf), AuditFailure);
  const std::vector<double> shortArray(good.begin(), good.end() - 2);
  EXPECT_THROW(auditBucketKeys(records, shortArray, 2, keyOf), AuditFailure);
  std::vector<double> longArray = good;
  longArray.push_back(0.7);
  longArray.push_back(0.8);
  EXPECT_THROW(auditBucketKeys(records, longArray, 2, keyOf), AuditFailure);
  EXPECT_THROW(auditBucketKeys(records, good, 3, keyOf), AuditFailure);
  // -0.0 == 0.0, but the key array must be a bit-exact copy.
  records[0].key = Point{-0.0, 0.2};
  std::vector<double> signedZero = good;
  signedZero[0] = 0.0;
  EXPECT_THROW(auditBucketKeys(records, signedZero, 2, keyOf), AuditFailure);
  EXPECT_GE(auditCounters().failed, 5u);
}

// --- auditStableStorage --------------------------------------------------

TEST_F(InvariantsTest, StableStorageDetectsMovedOrResizedRecords) {
  std::vector<Record> records(4);
  const Record* data = records.data();
  EXPECT_NO_THROW(
      auditStableStorage(data, 4, records.data(), records.size()));
  std::vector<Record> elsewhere(4);
  EXPECT_THROW(
      auditStableStorage(data, 4, elsewhere.data(), elsewhere.size()),
      AuditFailure);
  records.pop_back();
  EXPECT_THROW(auditStableStorage(data, 4, records.data(), records.size()),
               AuditFailure);
  EXPECT_EQ(auditCounters().passed, 1u);
  EXPECT_EQ(auditCounters().failed, 2u);
}

// --- auditReplicaHolders -------------------------------------------------

TEST_F(InvariantsTest, ReplicaHoldersDetectsDuplicateHolder) {
  std::vector<std::uint64_t> ok = {1, 2, 3};
  EXPECT_NO_THROW(auditReplicaHolders(ok, 3));
  std::vector<std::uint64_t> corrupt = {1, 2, 1};
  EXPECT_THROW(auditReplicaHolders(corrupt, 3), AuditFailure);
}

TEST_F(InvariantsTest, ReplicaHoldersDetectsOverReplication) {
  std::vector<std::uint64_t> corrupt = {1, 2, 3};
  EXPECT_THROW(auditReplicaHolders(corrupt, 2), AuditFailure);
  std::vector<std::uint64_t> empty;
  EXPECT_THROW(auditReplicaHolders(empty, 2), AuditFailure);
}

// --- auditFrozenReadRoute -----------------------------------------------

TEST_F(InvariantsTest, FrozenReadRouteDetectsStaleRoute) {
  const BitString label = BitString::fromString("0101");
  EXPECT_NO_THROW(auditFrozenReadRoute(label, true, 3, true, 3));
  EXPECT_NO_THROW(auditFrozenReadRoute(label, false, 0, false, 0));
  // A skipped refresh kept salt 3 while a full re-pick picks salt 5.
  EXPECT_THROW(auditFrozenReadRoute(label, true, 3, true, 5), AuditFailure);
  // Routed to a label that is no longer stored, and the reverse.
  EXPECT_THROW(auditFrozenReadRoute(label, true, 0, false, 0), AuditFailure);
  EXPECT_THROW(auditFrozenReadRoute(label, false, 0, true, 0), AuditFailure);
}

// --- auditRingOrder ------------------------------------------------------

TEST_F(InvariantsTest, RingOrderDetectsDisorderAndDuplicates) {
  std::vector<std::uint64_t> ok = {10, 20, 30};
  EXPECT_NO_THROW(auditRingOrder(ok));
  std::vector<std::uint64_t> unsorted = {10, 30, 20};
  EXPECT_THROW(auditRingOrder(unsorted), AuditFailure);
  std::vector<std::uint64_t> duplicate = {10, 20, 20};
  EXPECT_THROW(auditRingOrder(duplicate), AuditFailure);
}

TEST_F(InvariantsTest, RingDirectoryDetectsWrongEntries) {
  // Shift 62: four buckets starting at 0, 2^62, 2^63 and 3 * 2^62.
  constexpr std::uint64_t q = std::uint64_t{1} << 62;
  const std::vector<std::uint64_t> ring = {5, q + 1, q + 2, 3 * q};
  std::vector<std::uint32_t> dir = {0, 1, 3, 3, 4};
  EXPECT_NO_THROW(auditRingDirectory(ring, dir, 62));
  std::vector<std::uint32_t> late = dir;
  late[1] = 2;  // skips the bucket's first id
  EXPECT_THROW(auditRingDirectory(ring, late, 62), AuditFailure);
  std::vector<std::uint32_t> early = dir;
  early[3] = 2;  // starts at an id below the bucket floor
  EXPECT_THROW(auditRingDirectory(ring, early, 62), AuditFailure);
  std::vector<std::uint32_t> badEnd = dir;
  badEnd[4] = 3;
  EXPECT_THROW(auditRingDirectory(ring, badEnd, 62), AuditFailure);
  EXPECT_THROW(auditRingDirectory(ring, dir, 61), AuditFailure);  // size
}

// --- level knob and counters --------------------------------------------

TEST_F(InvariantsTest, AuditEnabledGatesOnLevelAndCountsSkips) {
  {
    ScopedLevel off(AuditLevel::kOff);
    EXPECT_FALSE(auditEnabled(AuditLevel::kBoundaries));
    EXPECT_FALSE(auditEnabled(AuditLevel::kParanoid));
  }
  {
    ScopedLevel boundaries(AuditLevel::kBoundaries);
    EXPECT_TRUE(auditEnabled(AuditLevel::kBoundaries));
    EXPECT_FALSE(auditEnabled(AuditLevel::kParanoid));
  }
  {
    ScopedLevel paranoid(AuditLevel::kParanoid);
    EXPECT_TRUE(auditEnabled(AuditLevel::kParanoid));
  }
  EXPECT_EQ(auditCounters().skipped, 3u);
}

TEST_F(InvariantsTest, CountersTrackRunsPassesAndFailures) {
  std::vector<std::uint64_t> ok = {1, 2};
  auditRingOrder(ok);
  auditRingOrder(ok);
  std::vector<std::uint64_t> bad = {2, 1};
  EXPECT_THROW(auditRingOrder(bad), AuditFailure);
  const AuditCounters c = auditCounters();
  EXPECT_EQ(c.run, 3u);
  EXPECT_EQ(c.passed, 2u);
  EXPECT_EQ(c.failed, 1u);
}

TEST_F(InvariantsTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(auditLevelName(AuditLevel::kOff), "off");
  EXPECT_STREQ(auditLevelName(AuditLevel::kBoundaries), "boundaries");
  EXPECT_STREQ(auditLevelName(AuditLevel::kParanoid), "paranoid");
}

// --- end-to-end: corrupting a live index must trip the audits ------------

core::MLightConfig tinyConfig() {
  core::MLightConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.maxEdgeDepth = 16;
  return cfg;
}

void fill(core::MLightIndex& index, std::size_t n) {
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.key = Point{rng.uniform(), rng.uniform()};
    r.id = i;
    index.insert(r);
  }
}

TEST_F(InvariantsTest, CorruptedBucketRegionTripsRecordPlacementAudit) {
  dht::Network net(16, 5);
  core::MLightIndex index(net, tinyConfig());
  fill(index, 64);
  ASSERT_NO_THROW(index.checkInvariants());

  // Reach into the store (test-only corruption) and teleport one record
  // outside its leaf's region.
  const auto& store = index.store();
  bool corrupted = false;
  store.forEach([&](const BitString& key, const core::LeafBucket& b,
                    mlight::dht::RingId) {
    if (corrupted || b.records().empty()) return;
    const Rect region = core::labelRegion(b.label, 2);
    if (region.volume() >= 1.0) return;  // need a proper sub-cell
    auto& bucket = const_cast<core::LeafBucket&>(b);
    // Move the record to the opposite corner of the unit square.
    std::vector<Record> records = bucket.records();
    records[0].key = Point{1.0 - (region.lo()[0] + region.hi()[0]) / 2,
                           1.0 - (region.lo()[1] + region.hi()[1]) / 2};
    bucket.assign(std::move(records));
    (void)key;
    corrupted = true;
  });
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(index.checkInvariants(), AuditFailure);
}

TEST_F(InvariantsTest, CoveredRangeHarvestTripsPlacementAuditAtParanoid) {
  // A range harvest takes a fully covered leaf whole, trusting that its
  // records lie in its cell; at paranoid it re-audits that placement.
  dht::Network net(16, 5);
  core::MLightIndex index(net, tinyConfig());
  fill(index, 64);
  const auto& store = index.store();
  bool corrupted = false;
  store.forEach([&](const BitString&, const core::LeafBucket& b,
                    mlight::dht::RingId) {
    if (corrupted || b.records().empty()) return;
    const Rect region = core::labelRegion(b.label, 2);
    if (region.volume() >= 1.0) return;
    auto& bucket = const_cast<core::LeafBucket&>(b);
    std::vector<Record> records = bucket.records();
    records[0].key = Point{1.0 - (region.lo()[0] + region.hi()[0]) / 2,
                           1.0 - (region.lo()[1] + region.hi()[1]) / 2};
    bucket.assign(std::move(records));
    corrupted = true;
  });
  ASSERT_TRUE(corrupted);
  {
    const ScopedLevel level(AuditLevel::kBoundaries);
    EXPECT_NO_THROW(index.rangeQuery(Rect::unit(2)));
  }
  const ScopedLevel level(AuditLevel::kParanoid);
  EXPECT_THROW(index.rangeQuery(Rect::unit(2)), AuditFailure);
}

TEST_F(InvariantsTest, DroppedBucketTripsSpaceTilingAudit) {
  dht::Network net(16, 5);
  core::MLightIndex index(net, tinyConfig());
  fill(index, 64);
  ASSERT_GT(index.bucketCount(), 1u);

  // Erase one leaf bucket outright (by its DHT key): the remaining
  // leaves no longer tile the unit square.
  std::vector<BitString> keys;
  index.store().forEach([&](const BitString& key, const core::LeafBucket&,
                            mlight::dht::RingId) { keys.push_back(key); });
  auto& store =
      const_cast<mlight::store::DistributedStore<core::LeafBucket>&>(
          index.store());
  ASSERT_TRUE(store.erase(keys.front()));
  EXPECT_THROW(index.checkInvariants(), AuditFailure);
}

TEST_F(InvariantsTest, ParanoidLevelAuditsEveryInsert) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  resetAuditCounters();
  dht::Network net(16, 5);
  core::MLightIndex index(net, tinyConfig());
  fill(index, 32);
  // Every insert re-audits the whole structure: at least one bijection +
  // one tiling audit per insert on top of boundary audits.
  EXPECT_GE(auditCounters().run, 64u);
  EXPECT_EQ(auditCounters().failed, 0u);
}

TEST_F(InvariantsTest, OffLevelSkipsOptionalAuditsButKeepsTheoremChecks) {
  ScopedLevel off(AuditLevel::kOff);
  resetAuditCounters();
  dht::Network net(16, 5);
  core::MLightIndex index(net, tinyConfig());
  fill(index, 64);
  const AuditCounters c = auditCounters();
  // Splits still run the O(1) Theorem 5 audit unconditionally...
  EXPECT_GT(c.run, 0u);
  EXPECT_EQ(c.failed, 0u);
  // ...but the boundary/paranoid sites were skipped and counted as such.
  EXPECT_GT(c.skipped, 0u);
}

/// R=2 with crash repair deferred to reads (kOnRead), θ 40/20.
core::MLightConfig deferredRepairConfig() {
  core::MLightConfig cfg;
  cfg.replication = 2;
  cfg.repair = mlight::store::RepairPolicy::kOnRead;
  cfg.thetaSplit = 40;
  cfg.thetaMerge = 20;
  return cfg;
}

TEST_F(InvariantsTest, DeferredRepairBucketOnSurvivingReplicaPassesParanoid) {
  // A crash under kOnRead leaves each bucket the dead peer held as
  // primary on its surviving replica until a read repairs it.  The
  // bucket is intact and a read fails over to it, so every paranoid
  // audit after the crash must pass.
  dht::Network net(64, 17);
  core::MLightIndex index(net, deferredRepairConfig());
  const auto data = mlight::workload::northeastDataset(2300, 21);
  index.bulkLoad(std::vector<Record>(data.begin(), data.begin() + 2000));
  ASSERT_TRUE(net.crashPeer(net.peers()[5]));
  std::size_t degraded = 0;
  index.store().forEach([&](const BitString& key, const core::LeafBucket&,
                            dht::RingId holder) {
    degraded += holder != index.store().ownerOf(key);
  });
  ASSERT_GT(degraded, 0u);

  const ScopedLevel paranoid(AuditLevel::kParanoid);
  for (std::size_t i = 2000; i < data.size(); ++i) {
    ASSERT_NO_THROW(index.insert(data[i])) << "insert " << i;
  }
  EXPECT_NO_THROW(index.checkInvariants());
  EXPECT_EQ(auditCounters().failed, 0u);
}

TEST_F(InvariantsTest, MisplacedBucketFailsUnderDeferredRepair) {
  // The same index, but the store never hears of the crash (its
  // membership callback, the network's first registration, is
  // withdrawn): the buckets the dead peer held stay recorded on it.
  // That holder is in no copy set, so the placement audit must fire
  // even though the store defers repair.
  dht::Network net(64, 17);
  core::MLightIndex index(net, deferredRepairConfig());
  const auto data = mlight::workload::northeastDataset(2000, 21);
  index.bulkLoad(data);
  ASSERT_NO_THROW(index.checkInvariants());
  const dht::RingId victim = net.peers()[5];
  BitString key;
  bool found = false;
  index.store().forEach([&](const BitString& k, const core::LeafBucket&,
                            dht::RingId holder) {
    if (holder == victim && !found) {
      key = k;
      found = true;
    }
  });
  ASSERT_TRUE(found) << "peer 5 holds no primary copy";
  net.unregisterStore(0);
  ASSERT_TRUE(net.crashPeer(victim));
  ASSERT_EQ(index.store().holdersOf(key).front(), victim);
  EXPECT_FALSE(index.store().readableAt(key, victim));
  EXPECT_THROW(index.checkInvariants(), CheckFailure);
}

TEST_F(InvariantsTest, ReplicaHolderIsReadableOnlyUnderDeferredRepair) {
  // readableAt() accepts a copy-set member other than the primary only
  // while repair waits for a read; under eager repair a bucket belongs
  // at its primary.
  for (const auto repair : {mlight::store::RepairPolicy::kOnRead,
                            mlight::store::RepairPolicy::kEager}) {
    dht::Network net(64, 17);
    core::MLightConfig cfg = deferredRepairConfig();
    cfg.repair = repair;
    core::MLightIndex index(net, cfg);
    index.bulkLoad(mlight::workload::northeastDataset(2000, 21));
    const auto& store = index.store();
    BitString key;
    bool found = false;
    store.forEach([&](const BitString& k, const core::LeafBucket&,
                      dht::RingId) {
      if (!found) key = k;
      found = true;
    });
    const std::vector<dht::RingId> holders = store.holdersOf(key);
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_TRUE(store.readableAt(key, holders[0]));
    EXPECT_EQ(store.readableAt(key, holders[1]),
              repair == mlight::store::RepairPolicy::kOnRead);
    for (const dht::RingId p : net.peers()) {
      if (p == holders[0] || p == holders[1]) continue;
      EXPECT_FALSE(store.readableAt(key, p));
    }
  }
}

TEST_F(InvariantsTest, CorruptedPhtLeafCellTripsAudit) {
  dht::Network net(16, 6);
  pht::PhtConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  pht::PhtIndex index(net, cfg);
  Rng rng(9);
  for (std::size_t i = 0; i < 64; ++i) {
    Record r;
    r.key = Point{rng.uniform(), rng.uniform()};
    r.id = i;
    index.insert(r);
  }
  ASSERT_NO_THROW(index.checkInvariants());

  bool corrupted = false;
  index.store().forEach([&](const BitString&,
                            const mlight::index::CellNode& n,
                            mlight::dht::RingId) {
    if (corrupted || !n.complete || n.records.empty() || n.label.empty()) {
      return;
    }
    const Rect cell = cellOfPath(n.label, 2);
    // Find a dimension the cell does not fully span and move the record
    // just outside the cell along it — deterministic escape.
    for (std::size_t d = 0; d < 2; ++d) {
      if (cell.hi()[d] - cell.lo()[d] >= 1.0) continue;
      auto& node = const_cast<mlight::index::CellNode&>(n);
      Point p = node.records[0].key;
      p[d] = cell.lo()[d] > 0.0 ? cell.lo()[d] / 2.0
                                : (cell.hi()[d] + 1.0) / 2.0;
      node.records[0].key = p;
      corrupted = true;
      break;
    }
  });
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(index.checkInvariants(), AuditFailure);
}

}  // namespace
}  // namespace mlight::common
