// Schedule-perturbation certification of the event core (ISSUE 6).
//
// The determinism contract (docs/THEORY.md, "Determinism contract")
// claims that no simulation-visible state depends on the relative
// execution order of same-time events — ties stand for messages that
// are concurrent on a real overlay, whose arrival order no peer
// controls.  That claim needs teeth.
//
// These tests ARE the teeth.  Each workload runs once with the legacy
// FIFO tie order (shuffle seed 0) and once per nonzero shuffle seed
// (MLIGHT_SCHED_SHUFFLE_SEED semantics, set programmatically); the
// shuffled runs must
//
//  * actually perturb something (`schedulerTieDeliveries() > 0` and a
//    different order-sensitive delivery fingerprint — otherwise the
//    whole exercise is vacuous), and
//  * leave every state digest bit-identical: index trees, stored
//    buckets, replica placements, hint-cache contents, cost meters,
//    dead letters, and the set-valued query answers.
//
// The workloads deliberately use a *constant-latency* LAN model
// (minMs == maxMs, with sendOverheadMs dividing the link latency): with
// continuous per-pair latencies same-time ties are measure-zero, but on
// a constant-latency fabric chains of different depth collide all the
// time — the adversarial schedule for tie-order bugs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/digest.h"
#include "dht/network.h"
#include "dst/dst_index.h"
#include "mlight/index.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight {
namespace {

using dht::FaultModel;
using dht::LatencyModel;
using dht::Network;
using dht::RpcDelivery;

/// Constant-latency LAN: every link 2 ms, send overhead 1 ms.  The 2:1
/// ratio makes a depth-k chain with j send-queue slots collide with a
/// depth-(k+1) chain with j-2 slots — ties by construction.
LatencyModel lanModel() { return LatencyModel{2.0, 2.0, 1.0}; }

/// Everything a run exposes, split into what must be invariant under
/// tie perturbation (state) and what is allowed to move (timeline).
struct RunOutcome {
  // Must match the seed-0 run bit-for-bit:
  std::vector<std::uint64_t> indexDigests;
  std::uint64_t netDigest = 0;
  std::vector<std::vector<std::uint64_t>> queryAnswers;  ///< sorted ids
  std::vector<std::size_t> failedProbes;
  // Perturbation witnesses (allowed — expected — to differ):
  std::uint64_t tieDeliveries = 0;
  std::uint64_t timelineFingerprint = 0;
};

/// Order-SENSITIVE fingerprint of the delivery sequence.  Two runs with
/// the same fingerprint executed the same deliveries in the same order
/// at the same times; a shuffled run whose fingerprint differs from the
/// FIFO run proves the perturbation really reordered execution.
void traceIntoDigest(Network& net, common::Digest* fp) {
  net.setRpcTrace([fp](const RpcDelivery& d) {
    fp->feed(d.env.id);
    fp->feed(static_cast<std::uint64_t>(d.env.kind));
    fp->feed(d.env.from.value);
    fp->feed(d.env.to.value);
    fp->feed(d.env.round);
    fp->feed(d.env.payload.size());
    fp->feed(d.sentAt);
    fp->feed(d.deliveredAt);
  });
}

std::vector<std::uint64_t> sortedIds(const index::RangeResult& res) {
  std::vector<std::uint64_t> ids;
  ids.reserve(res.records.size());
  for (const auto& r : res.records) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Asserts the state half of `run` matches `base` and the perturbation
/// actually happened.  `label` names the failing seed in diagnostics.
void expectStateEqual(const RunOutcome& base, const RunOutcome& run,
                      const std::string& label) {
  EXPECT_EQ(base.indexDigests, run.indexDigests) << label;
  EXPECT_EQ(base.netDigest, run.netDigest) << label;
  EXPECT_EQ(base.queryAnswers, run.queryAnswers) << label;
  EXPECT_EQ(base.failedProbes, run.failedProbes) << label;
  // The witness: ties were delivered and execution order moved.  A
  // shuffled run that never hit a tie (or hit ties whose permutation
  // happened to be the identity) would certify nothing.
  EXPECT_GT(run.tieDeliveries, 0u) << label;
  EXPECT_NE(base.timelineFingerprint, run.timelineFingerprint) << label;
}

constexpr std::uint64_t kShuffleSeeds[] = {17, 23, 71};

// --- Workload 1: fig5-style maintenance (m-LIGHT vs PHT) ----------------
//
// Incremental inserts with splits, a few erases with merges, on both the
// m-LIGHT index and the PHT baseline sharing one network.  This is the
// maintenance-traffic shape of Figure 5.
RunOutcome runMaintenance(std::uint64_t shuffleSeed) {
  Network net(32, /*seed=*/7, /*vnodesPerPeer=*/1, lanModel());
  net.setScheduleShuffleSeed(shuffleSeed);
  common::Digest fp;
  traceIntoDigest(net, &fp);

  core::MLightConfig mcfg;
  mcfg.thetaSplit = 16;
  mcfg.thetaMerge = 8;
  // Replication gives the workload real concurrency: fire-and-forget
  // replica pushes from *different* owners drain in one burst and land
  // on the constant-latency grid at the same instant — reorderable ties.
  mcfg.replication = 2;
  core::MLightIndex mlight(net, mcfg);

  pht::PhtConfig pcfg;
  pcfg.thetaSplit = 16;
  pcfg.thetaMerge = 8;
  pht::PhtIndex pht(net, pcfg);

  const auto data = workload::northeastDataset(400, 11);
  for (const auto& r : data) {
    mlight.insert(r);
    pht.insert(r);
  }
  for (std::size_t i = 0; i < 60; ++i) {
    mlight.erase(data[i].key, data[i].id);
    pht.erase(data[i].key, data[i].id);
  }
  mlight.checkInvariants();
  pht.checkInvariants();

  RunOutcome out;
  out.indexDigests = {mlight.stateDigest(), pht.stateDigest()};
  common::Digest nd;
  net.digestState(nd);
  out.netDigest = nd.value();
  out.tieDeliveries = net.schedulerTieDeliveries();
  out.timelineFingerprint = fp.value();
  return out;
}

TEST(SchedulePerturbation, MaintenanceWorkloadStateIsTieOrderInvariant) {
  const RunOutcome base = runMaintenance(0);
  for (const std::uint64_t seed : kShuffleSeeds) {
    expectStateEqual(base, runMaintenance(seed),
                     "shuffle seed " + std::to_string(seed));
  }
}

// --- Workload 2: fig7-style range queries (m-LIGHT + DST) ---------------
//
// Bulk load, then range queries of several selectivities — the
// query-bandwidth shape of Figure 7.  The m-LIGHT side runs with the
// hint cache ON so the LRU state (and its digest) rides through the
// perturbation too; DST exercises the wide parallel fan-out where
// same-round replies race.
RunOutcome runRangeQueries(std::uint64_t shuffleSeed) {
  Network net(32, /*seed=*/9, /*vnodesPerPeer=*/1, lanModel());
  net.setScheduleShuffleSeed(shuffleSeed);
  common::Digest fp;
  traceIntoDigest(net, &fp);

  core::MLightConfig mcfg;
  mcfg.thetaSplit = 16;
  mcfg.thetaMerge = 8;
  mcfg.cache.enabled = true;  // explicit: immune to MLIGHT_CACHE
  core::MLightIndex mlight(net, mcfg);

  dst::DstConfig dcfg;
  dcfg.gamma = 16;
  dcfg.maxDepth = 16;  // 8 quad levels: plenty of fan-out, 4x fewer puts
  dst::DstIndex dstIndex(net, dcfg);

  const auto data = workload::uniformDataset(600, 2, 12);
  mlight.bulkLoad(data);
  for (std::size_t i = 0; i < 300; ++i) dstIndex.insert(data[i]);

  RunOutcome out;
  for (const double span : {0.05, 0.15, 0.30, 0.50}) {
    for (const auto& q : workload::uniformRangeQueries(2, 2, span, 31)) {
      const auto mres = mlight.rangeQuery(q);
      out.queryAnswers.push_back(sortedIds(mres));
      out.failedProbes.push_back(mres.stats.failedProbes);
      const auto dres = dstIndex.rangeQuery(q);
      out.queryAnswers.push_back(sortedIds(dres));
      out.failedProbes.push_back(dres.stats.failedProbes);
    }
  }
  mlight.checkInvariants();
  dstIndex.checkInvariants();

  out.indexDigests = {mlight.stateDigest(), dstIndex.stateDigest()};
  common::Digest nd;
  net.digestState(nd);
  out.netDigest = nd.value();
  out.tieDeliveries = net.schedulerTieDeliveries();
  out.timelineFingerprint = fp.value();
  return out;
}

TEST(SchedulePerturbation, RangeQueryWorkloadStateIsTieOrderInvariant) {
  const RunOutcome base = runRangeQueries(0);
  for (const std::uint64_t seed : kShuffleSeeds) {
    expectStateEqual(base, runRangeQueries(seed),
                     "shuffle seed " + std::to_string(seed));
  }
}

// --- Workload 3: churn + fault injection (extra_churn shape) ------------
//
// Replicated m-LIGHT under joins, graceful leaves, hard crashes, and a
// lossy network.  This leans on the content-derived fault draws (see
// attemptRng in network.cpp): with a shared sequential fault RNG, two
// tied transmissions would swap loss outcomes and the digests would
// diverge.  Jitter is 0 so delivery times stay on the constant-latency
// grid and ties keep happening even through retransmissions.
RunOutcome runChurnWithFaults(std::uint64_t shuffleSeed) {
  Network net(48, /*seed=*/5, /*vnodesPerPeer=*/1, lanModel());
  net.setScheduleShuffleSeed(shuffleSeed);
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 0.01;
  faults.jitterMs = 0.0;
  faults.maxAttempts = 8;
  faults.seed = 20260805;
  net.setFaultModel(faults);
  common::Digest fp;
  traceIntoDigest(net, &fp);

  core::MLightConfig mcfg;
  mcfg.thetaSplit = 16;
  mcfg.thetaMerge = 8;
  mcfg.replication = 2;
  core::MLightIndex mlight(net, mcfg);

  const auto data = workload::uniformDataset(500, 2, 21);
  const auto queries = workload::uniformRangeQueries(6, 2, 0.25, 22);

  RunOutcome out;
  auto query = [&](const common::Rect& q) {
    const auto res = mlight.rangeQuery(q);
    out.queryAnswers.push_back(sortedIds(res));
    out.failedProbes.push_back(res.stats.failedProbes);
  };

  for (std::size_t i = 0; i < 200; ++i) mlight.insert(data[i]);
  query(queries[0]);
  net.addPeer("perturb-joiner-a");
  for (std::size_t i = 200; i < 300; ++i) mlight.insert(data[i]);
  net.crashPeer(net.peers()[11]);  // replication absorbs the crash
  query(queries[1]);
  query(queries[2]);
  net.removePeer(net.peers()[3]);
  for (std::size_t i = 300; i < data.size(); ++i) mlight.insert(data[i]);
  net.addPeer("perturb-joiner-b");
  net.crashPeer(net.peers()[29]);
  query(queries[3]);
  for (std::size_t i = 0; i < 50; ++i) mlight.erase(data[i].key, data[i].id);
  query(queries[4]);
  query(queries[5]);
  mlight.checkInvariants();

  out.indexDigests = {mlight.stateDigest()};
  common::Digest nd;
  net.digestState(nd);
  out.netDigest = nd.value();
  out.tieDeliveries = net.schedulerTieDeliveries();
  out.timelineFingerprint = fp.value();
  return out;
}

TEST(SchedulePerturbation, ChurnWithFaultsStateIsTieOrderInvariant) {
  const RunOutcome base = runChurnWithFaults(0);
  for (const std::uint64_t seed : kShuffleSeeds) {
    expectStateEqual(base, runChurnWithFaults(seed),
                     "shuffle seed " + std::to_string(seed));
  }
}

// --- Control: seed 0 is bit-identical legacy order ----------------------
//
// With shuffle seed 0 the tie key equals the sequence number, so the
// comparator degenerates to the historical (time, seq) order: replaying
// the same workload twice must reproduce even the order-sensitive
// timeline fingerprint.  This pins that merely *having* the perturbation
// machinery changes nothing.
TEST(SchedulePerturbation, SeedZeroReplaysByteIdentical) {
  const RunOutcome a = runMaintenance(0);
  const RunOutcome b = runMaintenance(0);
  EXPECT_EQ(a.indexDigests, b.indexDigests);
  EXPECT_EQ(a.netDigest, b.netDigest);
  EXPECT_EQ(a.timelineFingerprint, b.timelineFingerprint);
  EXPECT_EQ(a.tieDeliveries, b.tieDeliveries);
}

// Same-nonzero-seed replays must also be deterministic: the shuffled
// order is itself a pure function of (workload, shuffle seed).
TEST(SchedulePerturbation, ShuffledRunsReplayDeterministically) {
  const RunOutcome a = runChurnWithFaults(17);
  const RunOutcome b = runChurnWithFaults(17);
  EXPECT_EQ(a.netDigest, b.netDigest);
  EXPECT_EQ(a.timelineFingerprint, b.timelineFingerprint);
  EXPECT_EQ(a.tieDeliveries, b.tieDeliveries);
}

// The environment knob drives the same machinery: a scheduler built
// under MLIGHT_SCHED_SHUFFLE_SEED picks up the seed without any code
// involvement (this is how CI perturbs whole existing suites).
TEST(SchedulePerturbation, EnvironmentSeedReachesScheduler) {
  ASSERT_EQ(setenv("MLIGHT_SCHED_SHUFFLE_SEED", "4242", 1), 0);
  Network net(4, 1, 1, lanModel());
  EXPECT_EQ(net.scheduleShuffleSeed(), 4242u);
  ASSERT_EQ(unsetenv("MLIGHT_SCHED_SHUFFLE_SEED"), 0);
  Network fresh(4, 1, 1, lanModel());
  EXPECT_EQ(fresh.scheduleShuffleSeed(), 0u);
}

}  // namespace
}  // namespace mlight
