// Leaf-bucket key arrays: every path that changes a bucket's records keeps
// the parallel coordinate array in lockstep — same length, record order,
// bit-identical coordinates — and the array never reaches the wire or
// the state digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitstring.h"
#include "common/invariants.h"
#include "common/serde.h"
#include "dht/network.h"
#include "mlight/bucket.h"
#include "mlight/index.h"
#include "workload/datasets.h"

namespace mlight::core {
namespace {

using mlight::common::AuditLevel;
using mlight::common::BitString;
using mlight::common::Point;
using mlight::dht::Network;
using mlight::dht::RingId;
using mlight::index::Record;

const Point& keyOf(const Record& r) { return r.key; }

/// Pins the audit level for one scope.  Lossy runs lose buckets for
/// real, so the whole-index audits that paranoid runs after every write
/// would fire on the damage itself; they stay at boundaries.
class ScopedLevel {
 public:
  explicit ScopedLevel(mlight::common::AuditLevel level)
      : previous_(mlight::common::auditLevel()) {
    mlight::common::setAuditLevel(level);
  }
  ~ScopedLevel() { mlight::common::setAuditLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  mlight::common::AuditLevel previous_;
};

void expectLockstep(const LeafBucket& b) {
  EXPECT_NO_THROW(mlight::common::auditBucketKeys(b.records(), b.keys(),
                                                  b.keyDims(), keyOf))
      << b.label.toString();
}

/// Audits every stored bucket directly, then through the index's own
/// paranoid invariant pass.
void expectIndexLockstep(const MLightIndex& index) {
  std::size_t buckets = 0;
  index.store().forEach(
      [&](const BitString&, const LeafBucket& b, RingId) {
        ++buckets;
        expectLockstep(b);
      });
  EXPECT_GT(buckets, 0u);
  const auto before = mlight::common::auditCounters().run;
  {
    const ScopedLevel paranoid(AuditLevel::kParanoid);
    EXPECT_NO_THROW(index.checkInvariants());
  }
  EXPECT_GE(mlight::common::auditCounters().run - before, buckets);
}

Record rec(double x, double y, std::uint64_t id) {
  Record r;
  r.key = Point{x, y};
  r.id = id;
  r.payload = "p" + std::to_string(id);
  return r;
}

std::vector<std::uint8_t> wire(const LeafBucket& b) {
  mlight::common::Writer w;
  b.serialize(w);
  return w.bytes();
}

TEST(BucketKeys, MutatorsKeepTheKeyArrayInRecordOrder) {
  LeafBucket b(BitString::fromString("0001"));
  EXPECT_EQ(b.keyDims(), 0u);
  EXPECT_TRUE(b.keys().empty());
  for (std::uint64_t i = 0; i < 6; ++i) {
    b.append(rec(0.1 * static_cast<double>(i), 0.05, i));
  }
  expectLockstep(b);
  EXPECT_EQ(b.keyDims(), 2u);
  ASSERT_EQ(b.keys().size(), 12u);
  EXPECT_EQ(b.keys()[6], b.records()[3].key[0]);

  // eraseIf keeps the survivors' order in both arrays.
  EXPECT_EQ(b.eraseIf([](const Record& r) { return r.id % 2 == 0; }), 3u);
  expectLockstep(b);
  ASSERT_EQ(b.recordCount(), 3u);
  EXPECT_EQ(b.records()[1].id, 3u);
  EXPECT_EQ(b.keys()[2], b.records()[1].key[0]);

  // The wire image is the label plus the records, exactly as before the
  // key array existed, and decoding rebuilds the array.
  mlight::common::Writer manual;
  manual.writeBitString(b.label);
  manual.writeU32(static_cast<std::uint32_t>(b.recordCount()));
  for (const Record& r : b.records()) r.serialize(manual);
  const std::vector<std::uint8_t> bytes = wire(b);
  EXPECT_EQ(bytes, manual.bytes());
  EXPECT_EQ(bytes.size(), b.byteSize());
  mlight::common::Reader r(bytes);
  const LeafBucket decoded = LeafBucket::deserialize(r);
  expectLockstep(decoded);
  EXPECT_EQ(wire(decoded), bytes);

  // assign replaces both arrays; erasing everything empties both.
  b.assign({rec(0.9, 0.9, 40), rec(0.8, 0.7, 41)});
  expectLockstep(b);
  EXPECT_EQ(b.keys()[3], 0.7);
  EXPECT_EQ(b.eraseIf([](const Record&) { return true; }), 2u);
  expectLockstep(b);
  EXPECT_TRUE(b.keys().empty());
  const LeafBucket copy = decoded;
  expectLockstep(copy);
}

TEST(BucketKeys, MixedDimensionalityIsRejected) {
  LeafBucket b(BitString::fromString("0001"));
  b.append(rec(0.1, 0.2, 1));
  Record wide;
  wide.key = Point{0.1, 0.2, 0.3};
  EXPECT_THROW(b.append(wide), mlight::common::CheckFailure);
  expectLockstep(b);

  mlight::common::Writer w;
  w.writeBitString(b.label);
  w.writeU32(2);
  b.records()[0].serialize(w);
  wide.serialize(w);
  mlight::common::Reader r(w.bytes());
  EXPECT_THROW((void)LeafBucket::deserialize(r), mlight::common::SerdeError);
}

TEST(BucketKeys, EveryIndexMutationPathStaysInLockstep) {
  for (const SplitStrategy strategy :
       {SplitStrategy::kThreshold, SplitStrategy::kDataAware}) {
    const bool threshold = strategy == SplitStrategy::kThreshold;
    SCOPED_TRACE(threshold ? "threshold" : "data-aware");
    MLightConfig cfg;
    cfg.strategy = strategy;
    cfg.thetaSplit = 12;
    cfg.thetaMerge = 6;
    cfg.epsilon = 8.0;
    cfg.lookahead = 2;

    // bulkLoad: one put per planned leaf, each decoded at its owner.
    {
      Network net(32, 3);
      MLightIndex index(net, cfg);
      index.bulkLoad(mlight::workload::northeastDataset(600, 4));
      expectIndexLockstep(index);
    }

    Network net(32, 5);
    MLightIndex index(net, cfg);
    const auto data = mlight::workload::clusteredDataset(900, 2, 4, 0.02, 8);
    // Single inserts: appends plus threshold or data-aware splits (the
    // moving child crosses the wire and is decoded at its new owner).
    for (std::size_t i = 0; i < 300; ++i) index.insert(data[i]);
    expectIndexLockstep(index);
    // Batched inserts: group appends and one split pass per group.
    const std::vector<Record> batch(data.begin() + 300, data.end());
    const auto res = index.insertBatched(batch, 64);
    EXPECT_EQ(res.acked, batch.size());
    expectIndexLockstep(index);
    // Erases: eraseIf, then (threshold) sibling merges.
    const std::size_t bucketsBefore = index.bucketCount();
    for (std::size_t i = 0; i < 700; ++i) {
      EXPECT_EQ(index.erase(data[i].key, data[i].id), 1u);
    }
    if (threshold) {
      EXPECT_LT(index.bucketCount(), bucketsBefore);
    }
    expectIndexLockstep(index);
    EXPECT_EQ(index.size(), 200u);
  }
}

TEST(BucketKeys, LossyBatchesAndWalRecoveryStayInLockstep) {
  // Lossy transport at R=1: kBatchPut envelopes dead-letter, so groups
  // located through the call's memo are re-queued and re-located, and
  // others fail unacknowledged.
  {
    const ScopedLevel level(AuditLevel::kBoundaries);
    Network net(32, 9);
    mlight::dht::FaultModel faults;
    faults.enabled = true;
    faults.lossProbability = 0.3;
    faults.maxAttempts = 2;
    faults.seed = mlight::dht::faultSeedFromEnv(1);
    net.setFaultModel(faults);
    MLightConfig cfg;
    cfg.thetaSplit = 12;
    cfg.thetaMerge = 6;
    MLightIndex index(net, cfg);
    const auto data = mlight::workload::clusteredDataset(800, 2, 3, 0.02, 12);
    const auto res = index.insertBatched(data, 64);
    EXPECT_EQ(res.acked + res.failed, data.size());
    EXPECT_GT(net.deadLetters().total(), 0u);
    std::size_t buckets = 0;
    index.store().forEach(
        [&](const BitString&, const LeafBucket& b, RingId) {
          ++buckets;
          expectLockstep(b);
        });
    EXPECT_GT(buckets, 1u);
  }

  // WAL recovery rebuilds buckets from logged images and batch frames
  // (deserialize + append) and re-places the lost ones.
  Network net(32, 7);
  MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.wal = true;
  MLightIndex index(net, cfg);
  const auto data = mlight::workload::uniformDataset(400, 2, 11);
  index.insertBatched(data, 64);
  const auto load = index.store().perPeerRecords();
  RingId victim = load.begin()->first;
  std::size_t most = 0;
  for (const auto& [owner, records] : load) {
    if (records > most) {
      most = records;
      victim = owner;
    }
  }
  const std::string name = net.physicalNameOf(victim);
  ASSERT_TRUE(net.crashPeer(victim));
  const RingId rejoined = net.addPeer(name);
  const auto stats = index.recoverFromWal(name, rejoined);
  EXPECT_GT(stats.bucketsRestored, 0u);
  EXPECT_EQ(index.size(), data.size());
  expectIndexLockstep(index);
}

}  // namespace
}  // namespace mlight::core
