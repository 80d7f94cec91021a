// Integration coverage of the batched durable write path: acknowledged
// batched inserts survive an owner crash via WAL replay (the THEORY.md
// "acked write survives owner crash" invariant), replay is idempotent
// and bit-identical across schedule-shuffle seeds, unacknowledged
// frames are never replayed, and an oversized batch interacts correctly
// with both split strategies.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bitstring.h"
#include "common/serde.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "wal/wal.h"
#include "workload/datasets.h"

namespace mlight {
namespace {

using common::BitString;
using dht::Network;
using dht::RingId;

/// The physical peer primarily holding the most records — the crash
/// victim that hurts the most.  Deterministic: sorted bucket walk,
/// ties broken by ring position.
RingId mostLoadedOwner(const core::MLightIndex& index) {
  const auto load = index.store().perPeerRecords();
  RingId victim = load.begin()->first;
  std::size_t best = 0;
  for (const auto& [owner, records] : load) {
    if (records > best) {
      best = records;
      victim = owner;
    }
  }
  return victim;
}

/// Every record's id must be answerable at its key — the definition of
/// "the acked write survived".
void expectAllPresent(core::MLightIndex& index,
                      const std::vector<index::Record>& data) {
  for (const auto& r : data) {
    const auto res = index.pointQuery(r.key);
    bool found = false;
    for (const auto& got : res.records) found = found || got.id == r.id;
    EXPECT_TRUE(found) << "record " << r.id << " lost";
  }
}

core::MLightConfig walConfig() {
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.replication = 1;  // crashes genuinely destroy buckets
  cfg.wal = true;
  return cfg;
}

TEST(WalReplay, AckedBatchedWritesSurviveOwnerCrashAtReplicationOne) {
  Network net(32, 7);
  core::MLightIndex index(net, walConfig());
  const auto data = workload::uniformDataset(400, 2, 11);

  std::vector<std::uint64_t> acked;
  const auto res = index.insertBatched(data, 64, &acked);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_EQ(res.acked, data.size());
  EXPECT_EQ(acked.size(), data.size());
  ASSERT_NE(index.walSet(), nullptr);
  EXPECT_GT(index.walSet()->totalFrames(), 0u);

  const RingId victim = mostLoadedOwner(index);
  const std::string name = net.physicalNameOf(victim);
  ASSERT_TRUE(net.crashPeer(victim));
  EXPECT_GT(index.store().lostBuckets(), 0u);

  // Same name => same ring positions: the rejoined peer owns its old
  // keys again, which is what lets replay re-place them locally.
  const RingId rejoined = net.addPeer(name);
  EXPECT_EQ(rejoined, victim);

  const auto stats = index.recoverFromWal(name, rejoined);
  EXPECT_GT(stats.framesScanned, 0u);
  EXPECT_GT(stats.bucketsRestored, 0u);
  EXPECT_GT(stats.recordsRestored, 0u);

  // Everything acknowledged is queryable again, the tree is coherent,
  // and nothing is left under-replicated.
  index.checkInvariants();
  expectAllPresent(index, data);
  EXPECT_EQ(index.size(), data.size());
  EXPECT_EQ(index.store().underReplicatedBuckets(), 0u);
}

TEST(WalReplay, SecondReplayIsAByteExactNoOp) {
  Network net(32, 7);
  core::MLightIndex index(net, walConfig());
  const auto data = workload::uniformDataset(300, 2, 13);
  index.insertBatched(data, 64);

  const RingId victim = mostLoadedOwner(index);
  const std::string name = net.physicalNameOf(victim);
  ASSERT_TRUE(net.crashPeer(victim));
  const RingId rejoined = net.addPeer(name);

  const auto first = index.recoverFromWal(name, rejoined);
  EXPECT_GT(first.bucketsRestored, 0u);
  index.checkInvariants();
  const std::uint64_t settled = index.stateDigest();

  // Nothing is mourned any more: a double replay (an operator running
  // recovery twice, or a retried recovery RPC) must change nothing.
  const auto second = index.recoverFromWal(name, rejoined);
  EXPECT_GT(second.framesScanned, 0u);
  EXPECT_EQ(second.bucketsRestored, 0u);
  EXPECT_EQ(second.recordsRestored, 0u);
  EXPECT_EQ(index.stateDigest(), settled);
  expectAllPresent(index, data);
}

TEST(WalReplay, UnackedFrameFromACrashMidBatchIsNeverReplayed) {
  Network net(32, 7);
  core::MLightIndex index(net, walConfig());
  const auto data = workload::uniformDataset(300, 2, 17);
  index.insertBatched(data, 64);

  const RingId victim = mostLoadedOwner(index);
  const std::string name = net.physicalNameOf(victim);

  // A batch the victim applied but never acknowledged: hand-append the
  // open frame a crash between apply and ack leaves behind, against a
  // bucket the victim actually owns.
  BitString victimKey;
  index.store().forEach([&](const BitString& label, const core::LeafBucket&,
                            RingId owner) {
    if (victimKey.empty() && owner == victim) victimKey = label;
  });
  ASSERT_FALSE(victimKey.empty());
  index::Record bogus;
  bogus.key = common::Point{0.5, 0.5};
  bogus.id = 999999;
  common::Writer frame;
  frame.writeU32(1);
  bogus.serialize(frame);
  index.walSet()->forPeer(name).append(wal::FrameKind::kBatch, victimKey,
                                       frame.bytes());  // no commit

  ASSERT_TRUE(net.crashPeer(victim));
  const RingId rejoined = net.addPeer(name);
  const auto stats = index.recoverFromWal(name, rejoined);
  EXPECT_GT(stats.bucketsRestored, 0u);

  // The unacked record must not resurface anywhere; everything acked
  // must.
  index.checkInvariants();
  expectAllPresent(index, data);
  index.store().forEach([&](const BitString&, const core::LeafBucket& bucket,
                            RingId) {
    for (const auto& r : bucket.records()) EXPECT_NE(r.id, bogus.id);
  });
}

// --- Replay determinism across schedule-shuffle seeds -------------------
//
// WAL appends happen only in facade order or inside handlers whose
// effects commute across same-time ties, so the log image — and
// everything replay rebuilds from it — must be bit-identical across
// schedule-shuffle seeds (the determinism contract extended to the
// durability layer).

struct ReplayOutcome {
  std::uint64_t indexDigest = 0;
  std::uint64_t walDigest = 0;
  std::size_t bucketsRestored = 0;
};

ReplayOutcome runReplayScenario(std::uint64_t shuffleSeed) {
  Network net(32, 7);
  net.setScheduleShuffleSeed(shuffleSeed);
  core::MLightIndex index(net, walConfig());
  const auto data = workload::uniformDataset(360, 2, 19);
  const std::vector<index::Record> before(data.begin(), data.end() - 60);
  const std::vector<index::Record> after(data.end() - 60, data.end());

  index.insertBatched(before, 64);
  const RingId victim = mostLoadedOwner(index);
  const std::string name = net.physicalNameOf(victim);
  net.crashPeer(victim);
  const RingId rejoined = net.addPeer(name);
  const auto stats = index.recoverFromWal(name, rejoined);
  index.insertBatched(after, 64);  // life goes on after recovery
  index.checkInvariants();

  ReplayOutcome out;
  out.indexDigest = index.stateDigest();
  common::Digest wd;
  index.walSet()->digestState(wd);
  out.walDigest = wd.value();
  out.bucketsRestored = stats.bucketsRestored;
  return out;
}

TEST(WalReplay, BitIdenticalAcrossShuffleSeeds) {
  const ReplayOutcome reference = runReplayScenario(0);
  EXPECT_GT(reference.bucketsRestored, 0u);
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{17},
                                   std::uint64_t{23}, std::uint64_t{71}}) {
    const ReplayOutcome run = runReplayScenario(seed);
    const std::string label = "shuffle seed " + std::to_string(seed);
    EXPECT_EQ(run.indexDigest, reference.indexDigest) << label;
    EXPECT_EQ(run.walDigest, reference.walDigest) << label;
    EXPECT_EQ(run.bucketsRestored, reference.bucketsRestored) << label;
  }
}

// --- Batch boundary vs split planning -----------------------------------

TEST(WalReplay, OversizedBatchSplitsOnceAndStaysCoherentUnderBothStrategies) {
  for (const auto strategy :
       {core::SplitStrategy::kThreshold, core::SplitStrategy::kDataAware}) {
    Network net(16, 5);
    core::MLightConfig cfg = walConfig();
    cfg.thetaSplit = 8;  // one 64-record batch massively oversubscribes
    cfg.thetaMerge = 4;
    cfg.epsilon = 8.0;  // same pressure for the data-aware planner
    cfg.strategy = strategy;
    core::MLightIndex index(net, cfg);
    const auto data = workload::uniformDataset(84, 2, 31);
    const std::vector<index::Record> seedRecs(data.begin(),
                                              data.begin() + 20);
    const std::vector<index::Record> batch(data.begin() + 20, data.end());

    // Grow a real tree first (single-record path), so the batch spans
    // several leaves and must form several groups.
    for (const auto& r : seedRecs) index.insert(r);
    ASSERT_GT(index.bucketCount(), 1u);

    const auto res = index.insertBatched(batch, 64);
    EXPECT_EQ(res.failed, 0u);
    EXPECT_EQ(res.acked, batch.size());
    EXPECT_GE(res.groups, 2u) << "batch should span multiple leaves";

    // The single group-level split pass still leaves a coherent,
    // θ-respecting tree, and every record is answerable.
    index.checkInvariants();
    expectAllPresent(index, data);
  }
}

}  // namespace
}  // namespace mlight
