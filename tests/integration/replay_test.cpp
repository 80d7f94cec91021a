// Whole-workload replay determinism (ISSUE 2, satellite 3).
//
// The event core's contract is that a workload is a pure function of its
// seeds: two networks built with the same seed, driven through the same
// mixed insert/query/churn sequence, must produce byte-identical RPC
// delivery timelines — same envelopes, same routes, same simulated
// timestamps — along with identical cost meters and query statistics.
// This is what makes every figure in the paper reproduction re-runnable.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/digest.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight {
namespace {

using dht::CostMeter;
using dht::Network;
using dht::RpcDelivery;

/// One delivered RPC, flattened to comparable scalars.
struct TraceEntry {
  std::uint64_t id = 0;
  std::uint8_t kind = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint32_t round = 0;
  std::size_t payloadBytes = 0;
  double sentAt = 0.0;
  double deliveredAt = 0.0;

  bool operator==(const TraceEntry&) const = default;
};

struct RunResult {
  std::vector<TraceEntry> trace;
  std::vector<std::size_t> queryRounds;
  std::vector<double> queryLatency;
  std::vector<std::size_t> queryAnswers;
  CostMeter total;
  double finalNow = 0.0;
  std::size_t pooledBuffers = 0;  ///< parked buffers after the run
  std::uint64_t deadLetters = 0;
  std::uint64_t ghostDrops = 0;
  /// Every delivered envelope in full (payload bytes included) with its
  /// timestamps, in delivery order, then every dead letter.
  std::uint64_t streamDigest = 0;
};

/// How runWorkload drives its network.  A lossy run also crashes a
/// peer in the middle of a range query (replication 2 absorbs it).
struct RunOptions {
  bool withFaults = false;
  std::uint64_t faultSeed = 1;
  bool installDisabledModel = false;
  bool bufferPooling = true;
  bool cacheEnabled = false;
  /// Pins the same-time order to issue order (immune to
  /// MLIGHT_SCHED_SHUFFLE_SEED), for values pinned across builds.
  bool unshuffled = false;
};

RunResult runWorkload(std::uint64_t seed, const RunOptions& opt = {}) {
  const bool withFaults = opt.withFaults;
  Network net(48, seed);
  net.setBufferPooling(opt.bufferPooling);
  if (opt.unshuffled) net.setScheduleShuffleSeed(0);
  if (withFaults) {
    dht::FaultModel faults;
    faults.enabled = true;
    faults.lossProbability = 0.01;
    faults.jitterMs = 5.0;
    faults.maxAttempts = 8;
    faults.seed = opt.faultSeed;
    net.setFaultModel(faults);
  } else if (opt.installDisabledModel) {
    net.setFaultModel(dht::FaultModel{});  // enabled == false
  }
  RunResult out;
  common::Digest stream;
  // Deliveries left until a lossy run crashes a peer mid-operation
  // (0 = no crash pending).
  int crashAfter = 0;
  net.setRpcTrace([&](const RpcDelivery& d) {
    if (crashAfter > 0 && --crashAfter == 0) {
      // Crash a bystander while a range query's fan-out is in flight:
      // the attempt addressed to it ghost-drops and is re-routed.
      std::size_t v = 20;
      while (net.physicalOf(net.peers()[v]) == net.physicalOf(d.env.to) ||
             net.physicalOf(net.peers()[v]) == net.physicalOf(d.env.from)) {
        ++v;
      }
      net.crashPeer(net.peers()[v]);
    }
    out.trace.push_back({d.env.id, static_cast<std::uint8_t>(d.env.kind),
                         d.env.from.value, d.env.to.value, d.env.round,
                         d.env.payload.size(), d.sentAt, d.deliveredAt});
    stream.feed(d.env.id);
    stream.feed(static_cast<std::uint64_t>(d.env.kind));
    stream.feed(d.env.from.value);
    stream.feed(d.env.to.value);
    stream.feed(d.env.round);
    stream.feedBytes(d.env.payload);
    stream.feed(d.sentAt);
    stream.feed(d.deliveredAt);
  });

  core::MLightConfig config;
  config.thetaSplit = 16;
  config.thetaMerge = 8;
  config.cache.enabled = opt.cacheEnabled;  // explicit: immune to MLIGHT_CACHE
  if (withFaults) config.replication = 2;  // retries may still dead-letter
  core::MLightIndex index(net, config);

  const auto data = workload::uniformDataset(600, 2, seed + 1);
  const auto queries = workload::uniformRangeQueries(6, 2, 0.25, seed + 2);
  auto query = [&](const common::Rect& q) {
    const auto res = index.rangeQuery(q);
    out.queryRounds.push_back(res.stats.rounds);
    out.queryLatency.push_back(res.stats.latencyMs);
    out.queryAnswers.push_back(res.records.size());
  };

  // Mixed workload: bulk insert, churn (join + graceful leave) in the
  // middle, queries interleaved, a few deletes at the end.
  for (std::size_t i = 0; i < 300; ++i) index.insert(data[i]);
  query(queries[0]);
  query(queries[1]);
  net.addPeer("replay-joiner-a");
  for (std::size_t i = 300; i < 450; ++i) index.insert(data[i]);
  query(queries[2]);
  net.removePeer(net.peers()[7]);
  for (std::size_t i = 450; i < data.size(); ++i) index.insert(data[i]);
  net.addPeer("replay-joiner-b");
  if (withFaults) crashAfter = 5;
  query(queries[3]);
  query(queries[4]);
  for (std::size_t i = 0; i < 40; ++i) {
    index.erase(data[i].key, data[i].id);
  }
  query(queries[5]);

  out.total = net.totalCost();
  out.finalNow = net.now();
  out.pooledBuffers = net.pooledBufferCount();
  const dht::DeadLetterRing& dead = net.deadLetters();
  out.deadLetters = dead.total();
  out.ghostDrops = net.ghostDrops();
  for (const dht::DeadLetter& dl : dead.snapshot()) {
    stream.feed(dl.rpcId);
    stream.feed(static_cast<std::uint64_t>(dl.kind));
    stream.feed(dl.from.value);
    stream.feed(dl.lastTarget.value);
    stream.feed(static_cast<std::uint64_t>(dl.attempts));
    stream.feed(dl.at);
  }
  out.streamDigest = stream.value();
  net.setRpcTrace({});
  return out;
}

/// Message-buffer pooling must be invisible to the simulation: the
/// pooled and pool-disabled runs of the same workload produce
/// byte-identical delivery timelines (every envelope field, route,
/// payload size, and timestamp) and identical meters — the pool only
/// changes where the host gets its transient vectors from.
void expectIdenticalRuns(const RunResult& a, const RunResult& b) {
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.queryRounds, b.queryRounds);
  EXPECT_EQ(a.queryLatency, b.queryLatency);
  EXPECT_EQ(a.queryAnswers, b.queryAnswers);
  EXPECT_EQ(a.total.lookups, b.total.lookups);
  EXPECT_EQ(a.total.hops, b.total.hops);
  EXPECT_EQ(a.total.bytesMoved, b.total.bytesMoved);
  EXPECT_EQ(a.total.recordsMoved, b.total.recordsMoved);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_EQ(a.total.retries, b.total.retries);
  EXPECT_DOUBLE_EQ(a.finalNow, b.finalNow);
}

TEST(Replay, BufferPoolingIsTimelineInvisible) {
  const RunResult pooled = runWorkload(2009);
  const RunResult unpooled = runWorkload(2009, {.bufferPooling = false});
  // The pooled run must actually have recycled buffers (otherwise this
  // test compares pooling with itself), the unpooled run must not.
  EXPECT_GT(pooled.pooledBuffers, 0u);
  EXPECT_EQ(unpooled.pooledBuffers, 0u);
  expectIdenticalRuns(pooled, unpooled);
}

TEST(Replay, BufferPoolingIsTimelineInvisibleUnderFaults) {
  // The fault path shares deliver() with the fault-free path; loss,
  // jitter, retries, and failover must be untouched by pooling too.
  const RunResult pooled =
      runWorkload(2009, {.withFaults = true, .faultSeed = 7});
  const RunResult unpooled = runWorkload(
      2009, {.withFaults = true, .faultSeed = 7, .bufferPooling = false});
  expectIdenticalRuns(pooled, unpooled);
}

TEST(Replay, SameSeedReproducesTheTimelineExactly) {
  const RunResult a = runWorkload(2009);
  const RunResult b = runWorkload(2009);

  ASSERT_FALSE(a.trace.empty());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);

  EXPECT_EQ(a.queryRounds, b.queryRounds);
  EXPECT_EQ(a.queryLatency, b.queryLatency);
  EXPECT_EQ(a.queryAnswers, b.queryAnswers);

  EXPECT_EQ(a.total.lookups, b.total.lookups);
  EXPECT_EQ(a.total.hops, b.total.hops);
  EXPECT_EQ(a.total.bytesMoved, b.total.bytesMoved);
  EXPECT_EQ(a.total.recordsMoved, b.total.recordsMoved);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_DOUBLE_EQ(a.finalNow, b.finalNow);
}

TEST(Replay, DifferentSeedsDiverge) {
  // Sanity check on the check itself: the trace is not trivially equal.
  const RunResult a = runWorkload(2009);
  const RunResult c = runWorkload(1972);
  EXPECT_NE(a.trace, c.trace);
}

TEST(Replay, FaultInjectedRunIsByteExactUnderTheSameSeeds) {
  // The fault layer draws loss and jitter from its own seeded RNG in a
  // fixed order, so a faulty workload is still a pure function of
  // (network seed, fault seed): retransmissions, failovers, and jittered
  // delivery times replay byte-exactly.  The fault seed comes from
  // MLIGHT_FAULT_SEED when set (the CI fault matrix pins it).
  const std::uint64_t faultSeed = dht::faultSeedFromEnv(1234);
  const RunResult a =
      runWorkload(2009, {.withFaults = true, .faultSeed = faultSeed});
  const RunResult b =
      runWorkload(2009, {.withFaults = true, .faultSeed = faultSeed});

  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.queryRounds, b.queryRounds);
  EXPECT_EQ(a.queryLatency, b.queryLatency);
  EXPECT_EQ(a.queryAnswers, b.queryAnswers);
  EXPECT_EQ(a.total.lookups, b.total.lookups);
  EXPECT_EQ(a.total.hops, b.total.hops);
  EXPECT_EQ(a.total.retries, b.total.retries);
  EXPECT_EQ(a.total.bytesMoved, b.total.bytesMoved);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_DOUBLE_EQ(a.finalNow, b.finalNow);

  // A different fault seed reshuffles losses: the timeline must move
  // (otherwise the fault RNG is not actually feeding the schedule).
  const RunResult c =
      runWorkload(2009, {.withFaults = true, .faultSeed = faultSeed + 1});
  EXPECT_NE(a.trace, c.trace);
}

TEST(Replay, CacheEnabledRunIsByteExactUnderTheSameFaultSeed) {
  // The hint cache adds a new RPC verb and new meter fields but no new
  // nondeterminism: a cache-enabled workload under fault injection is
  // still a pure function of (network seed, fault seed).
  const std::uint64_t faultSeed = dht::faultSeedFromEnv(1234);
  const RunOptions cached{
      .withFaults = true, .faultSeed = faultSeed, .cacheEnabled = true};
  const RunResult a = runWorkload(2009, cached);
  const RunResult b = runWorkload(2009, cached);
  ASSERT_FALSE(a.trace.empty());
  // The workload's cached locates must actually consult hints —
  // otherwise this replays the uncached path against itself.
  EXPECT_GT(a.total.cacheHits + a.total.staleHints, 0u);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.queryAnswers, b.queryAnswers);
  EXPECT_EQ(a.total.lookups, b.total.lookups);
  EXPECT_EQ(a.total.cacheHits, b.total.cacheHits);
  EXPECT_EQ(a.total.staleHints, b.total.staleHints);
  EXPECT_EQ(a.total.retries, b.total.retries);
  EXPECT_DOUBLE_EQ(a.finalNow, b.finalNow);
}

TEST(Replay, CacheChangesTrafficButNeverAnswers) {
  // Cache on vs off over the identical workload: fewer/different probes
  // on the wire, byte-identical query results.
  const RunResult off = runWorkload(2009);
  const RunResult on = runWorkload(2009, {.cacheEnabled = true});
  EXPECT_EQ(off.total.cacheHits, 0u);
  EXPECT_EQ(off.total.staleHints, 0u);
  EXPECT_GT(on.total.cacheHits + on.total.staleHints, 0u);
  EXPECT_NE(off.trace, on.trace);
  EXPECT_EQ(off.queryAnswers, on.queryAnswers);
}

TEST(Replay, FaultFreeModelMatchesNoModelBitExactly) {
  // FaultModel{enabled: false} must be indistinguishable from never
  // installing a model at all — the bit-identical count/timeline
  // contract with the pre-fault event core.
  const RunResult a = runWorkload(2009);
  const RunResult b = runWorkload(2009, {.installDisabledModel = true});
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_DOUBLE_EQ(a.finalNow, b.finalNow);
  EXPECT_EQ(a.total.retries, 0u);
  EXPECT_EQ(b.total.retries, 0u);
}

// The delivered stream itself, pinned across builds: every envelope's
// id, kind, endpoints, round, full payload bytes and timestamps, in
// delivery order, then every dead letter.  The other replay tests
// compare two runs of one build (and payload sizes only); this one fails
// if a change to the message path alters a single byte a handler reads.
TEST(Replay, DeliveredStreamIsPinned) {
  const RunResult clean = runWorkload(2009, {.unshuffled = true});
  EXPECT_EQ(clean.deadLetters, 0u);
  EXPECT_EQ(clean.streamDigest, 0x35a97d63b85b925bull);

  const RunResult lossy = runWorkload(
      2009, {.withFaults = true, .faultSeed = 7, .unshuffled = true});
  EXPECT_GT(lossy.total.retries, 0u);
  EXPECT_GT(lossy.ghostDrops, 0u);
  ASSERT_LE(lossy.deadLetters, dht::DeadLetterRing::kDefaultCapacity);
  EXPECT_EQ(lossy.streamDigest, 0xbf80f0d337767b8aull);
}

}  // namespace
}  // namespace mlight
