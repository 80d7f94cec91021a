// Integration tests for cache-aware lookups (m-LIGHT and the PHT
// baseline): live hints resolve in one metered probe, stale and poisoned
// hints are repaired in place and metered as staleHints, and a cached
// lookup never returns a different answer than the uncached search (the
// paranoid auditCacheCoherence cross-check runs on every cached hit).
//
// Single-peer networks make every initiator — and therefore every
// per-peer cache decision — deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/hint_cache.h"
#include "common/invariants.h"
#include "common/rng.h"
#include "common/zorder.h"
#include "dht/network.h"
#include "dht/rpc.h"
#include "mlight/index.h"
#include "mlight/kdspace.h"
#include "pht/pht_index.h"

namespace mlight {
namespace {

using common::AuditLevel;
using common::BitString;
using common::Point;
using index::Record;

/// Pins the audit level for one test (same idiom as invariants_test).
class ScopedLevel {
 public:
  explicit ScopedLevel(AuditLevel level) : previous_(common::auditLevel()) {
    common::setAuditLevel(level);
  }
  ~ScopedLevel() { common::setAuditLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  AuditLevel previous_;
};

core::MLightConfig cachedConfig() {
  core::MLightConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.maxEdgeDepth = 20;
  cfg.cache.enabled = true;
  return cfg;
}

std::vector<Record> uniformRecords(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.key = Point{rng.uniform(), rng.uniform()};
    r.id = i;
    out.push_back(std::move(r));
  }
  return out;
}

/// Records jittered tightly around `center` — inserted they split the
/// center's leaf, erased again they merge it back.
std::vector<Record> jitteredAround(const Point& center, std::size_t n,
                                   std::uint64_t idBase) {
  common::Rng rng(23);
  std::vector<Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.key = center;
    for (std::size_t d = 0; d < r.key.dims(); ++d) {
      double v = r.key[d] +
                 (static_cast<double>(rng.below(2001)) - 1000.0) * 1e-7;
      if (v < 0.0) v = 0.0;
      if (v >= 1.0) v = 1.0 - 1e-9;
      r.key[d] = v;
    }
    r.id = idBase + i;
    out.push_back(std::move(r));
  }
  return out;
}

// --- m-LIGHT -------------------------------------------------------------

TEST(CachedLookup, RepeatLookupResolvesInOneProbe) {
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(64, 7);
  for (const auto& r : data) index.insert(r);

  const auto first = index.lookup(data[0].key);
  const auto second = index.lookup(data[0].key);
  EXPECT_EQ(second.stats.cost.lookups, 1u);
  EXPECT_EQ(second.stats.cost.cacheHits, 1u);
  EXPECT_EQ(second.stats.cost.staleHints, 0u);
  EXPECT_EQ(second.leaf, first.leaf);
}

TEST(CachedLookup, HintProbeUsesItsOwnRpcVerb) {
  // Hint traffic must be distinguishable in traces/dead letters: a
  // cached probe travels as kHintProbe, never as a plain kGet.
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(64, 7);
  for (const auto& r : data) index.insert(r);
  index.lookup(data[0].key);  // pin a live hint for the traced lookup

  std::size_t hintProbes = 0;
  net.setRpcTrace([&](const dht::RpcDelivery& d) {
    hintProbes += d.env.kind == dht::RpcKind::kHintProbe;
  });
  const auto res = index.lookup(data[0].key);
  net.setRpcTrace({});
  EXPECT_EQ(res.stats.cost.cacheHits, 1u);
  EXPECT_EQ(hintProbes, 1u);
}

TEST(CachedLookup, DisabledCacheNeverMetersCacheTraffic) {
  dht::Network net(1, 5);
  core::MLightConfig cfg = cachedConfig();
  cfg.cache.enabled = false;  // explicit: immune to MLIGHT_CACHE
  core::MLightIndex index(net, cfg);
  const auto data = uniformRecords(64, 7);
  for (const auto& r : data) index.insert(r);

  const auto first = index.lookup(data[0].key);
  const auto second = index.lookup(data[0].key);
  EXPECT_EQ(first.stats.cost.cacheHits, 0u);
  EXPECT_EQ(first.stats.cost.staleHints, 0u);
  EXPECT_EQ(second.stats.cost.lookups, first.stats.cost.lookups);
  EXPECT_EQ(index.hintCaches().totalHints(), 0u);
}

TEST(CachedLookup, SteadyStateAveragesOneLookupPerQuery) {
  // The acceptance shape of the subsystem: once every key has been seen
  // once, uniform repeat lookups cost exactly one DHT-lookup each —
  // against the uncached ~log2(D) binary search.
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(256, 9);
  index.bulkLoad(data);
  ASSERT_GE(index.bucketCount(), 32u);

  for (const auto& r : data) index.lookup(r.key);  // warm
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  for (const auto& r : data) {
    const auto res = index.lookup(r.key);
    lookups += res.stats.cost.lookups;
    hits += res.stats.cost.cacheHits;
  }
  EXPECT_EQ(lookups, data.size());  // 1.0 per query
  EXPECT_EQ(hits, data.size());
}

TEST(CachedLookup, RangeQueriesSeedHintsForEveryLeafTouched) {
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(256, 9);
  index.bulkLoad(data);  // bulk placement learns nothing
  ASSERT_EQ(index.hintCaches().totalHints(), 0u);

  index.rangeQuery(common::Rect::unit(2));
  EXPECT_EQ(index.hintCaches().totalHints(), index.bucketCount());

  const auto res = index.lookup(data[0].key);
  EXPECT_EQ(res.stats.cost.lookups, 1u);
  EXPECT_EQ(res.stats.cost.cacheHits, 1u);
}

TEST(CachedLookup, SplitChurnRepairsStaleHintsWithoutWrongAnswers) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(64, 7);
  for (const auto& r : data) index.insert(r);

  const Point hot = data[0].key;
  index.lookup(hot);  // pin a hint for the hot cell

  // Split the hot leaf several times; the interleaved cached locates of
  // the inserts themselves run into the stale hints.
  dht::CostMeter churn;
  {
    dht::MeterScope scope(net, churn);
    for (const auto& r : jitteredAround(hot, 40, 5000)) index.insert(r);
  }
  EXPECT_GE(churn.staleHints, 1u);
  // Exact repair-path counts: a change to the §5 search or the hint
  // repair that alters probe order or count moves these.
  EXPECT_EQ(churn.lookups, 63u);
  EXPECT_EQ(churn.staleHints, 3u);
  EXPECT_EQ(churn.cacheHits, 37u);
  EXPECT_EQ(index.stateDigest(), 0x55160161f7d986b4ull);

  const auto repaired = index.lookup(hot);
  EXPECT_EQ(repaired.stats.cost.cacheHits + repaired.stats.cost.staleHints,
            1u);
  const auto query = index.pointQuery(hot);
  ASSERT_EQ(query.records.size(), 1u);
  EXPECT_EQ(query.records[0].id, data[0].id);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

TEST(CachedLookup, MergeChurnRepairsStaleHintsWithoutWrongAnswers) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 5);
  core::MLightIndex index(net, cachedConfig());
  const auto data = uniformRecords(64, 7);
  for (const auto& r : data) index.insert(r);

  const Point hot = data[0].key;
  const auto jittered = jitteredAround(hot, 40, 5000);
  for (const auto& r : jittered) index.insert(r);
  index.lookup(hot);  // hint now points at a deep post-split leaf

  dht::CostMeter churn;
  {
    dht::MeterScope scope(net, churn);
    for (const auto& r : jittered) index.erase(r.key, r.id);
  }
  EXPECT_GE(churn.staleHints, 1u);
  // Exact repair-path counts: a change to the §5 search or the hint
  // repair that alters probe order or count moves these.
  EXPECT_EQ(churn.lookups, 99u);
  EXPECT_EQ(churn.staleHints, 2u);
  EXPECT_EQ(churn.cacheHits, 38u);
  EXPECT_EQ(index.stateDigest(), 0x9bb098f4d842703aull);

  const auto repaired = index.lookup(hot);
  EXPECT_EQ(repaired.stats.cost.cacheHits + repaired.stats.cost.staleHints,
            1u);
  const auto query = index.pointQuery(hot);
  ASSERT_EQ(query.records.size(), 1u);
  EXPECT_EQ(query.records[0].id, data[0].id);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

TEST(CachedLookup, PoisonedHintIsRepairedMeteredAndHarmless) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 5);
  core::MLightConfig cfg = cachedConfig();
  core::MLightIndex index(net, cfg);
  const auto data = uniformRecords(64, 9);
  index.bulkLoad(data);

  const Point p = data[0].key;
  const BitString full = core::pointPathLabel(p, 2, cfg.maxEdgeDepth);
  auto& cache = index.hintCaches().forPeer(net.peers()[0].value);

  // Poison far below the real leaf (the tree is nowhere near the depth
  // cap): the direct probe cannot come back a covering leaf.
  cache.poison(full.prefix(3 + 18), 18);
  const auto res = index.lookup(p);
  EXPECT_EQ(res.stats.cost.staleHints, 1u);
  EXPECT_EQ(res.stats.cost.cacheHits, 0u);

  // The repair landed on the true leaf and re-learned it: next lookup is
  // a clean one-probe hit on the same leaf.
  const auto again = index.lookup(p);
  EXPECT_EQ(again.stats.cost.cacheHits, 1u);
  EXPECT_EQ(again.leaf, res.leaf);

  // Results never change: the poisoned query still finds its record.
  const auto query = index.pointQuery(p);
  ASSERT_EQ(query.records.size(), 1u);
  EXPECT_EQ(query.records[0].id, data[0].id);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

// --- PHT baseline --------------------------------------------------------

pht::PhtConfig cachedPhtConfig() {
  pht::PhtConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.cache.enabled = true;
  return cfg;
}

TEST(CachedLookup, PhtRepeatQueryResolvesInOneProbe) {
  dht::Network net(1, 6);
  pht::PhtIndex index(net, cachedPhtConfig());
  const auto data = uniformRecords(64, 11);
  for (const auto& r : data) index.insert(r);

  index.pointQuery(data[0].key);  // warms (insert already did, too)
  const auto res = index.pointQuery(data[0].key);
  EXPECT_EQ(res.stats.cost.lookups, 1u);
  EXPECT_EQ(res.stats.cost.cacheHits, 1u);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].id, data[0].id);
}

TEST(CachedLookup, PhtPoisonedDeepHintIsStaleAndRepaired) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 6);
  pht::PhtConfig cfg = cachedPhtConfig();
  pht::PhtIndex index(net, cfg);
  const auto data = uniformRecords(64, 11);
  for (const auto& r : data) index.insert(r);

  const Point p = data[0].key;
  // A prefix of p's own path deeper than its leaf cannot exist in the
  // trie (leaves have no descendants): the probe is a guaranteed NULL.
  const BitString full = common::interleave(p, cfg.maxDepth);
  index.hintCaches().forPeer(net.peers()[0].value).poison(full.prefix(20),
                                                          20);
  const auto res = index.pointQuery(p);
  EXPECT_EQ(res.stats.cost.staleHints, 1u);
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].id, data[0].id);

  const auto again = index.pointQuery(p);
  EXPECT_EQ(again.stats.cost.cacheHits, 1u);
  EXPECT_EQ(again.stats.cost.lookups, 1u);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

TEST(CachedLookup, PhtSplitChurnRepairsStaleHints) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 6);
  pht::PhtIndex index(net, cachedPhtConfig());
  const auto data = uniformRecords(64, 11);
  for (const auto& r : data) index.insert(r);

  const Point hot = data[0].key;
  index.pointQuery(hot);
  dht::CostMeter churn;
  {
    dht::MeterScope scope(net, churn);
    for (const auto& r : jitteredAround(hot, 40, 5000)) index.insert(r);
  }
  EXPECT_GE(churn.staleHints, 1u);
  // Exact repair-path counts: a change to the §5 search or the hint
  // repair that alters probe order or count moves these.
  EXPECT_EQ(churn.lookups, 124u);
  EXPECT_EQ(churn.staleHints, 9u);
  EXPECT_EQ(churn.cacheHits, 26u);
  EXPECT_EQ(index.stateDigest(), 0xf3645772ef25dff1ull);

  const auto query = index.pointQuery(hot);
  ASSERT_EQ(query.records.size(), 1u);
  EXPECT_EQ(query.records[0].id, data[0].id);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

TEST(CachedLookup, PhtMergeChurnRepairsStaleHints) {
  ScopedLevel paranoid(AuditLevel::kParanoid);
  common::resetAuditCounters();
  dht::Network net(1, 6);
  pht::PhtIndex index(net, cachedPhtConfig());
  const auto data = uniformRecords(64, 11);
  for (const auto& r : data) index.insert(r);

  const Point hot = data[0].key;
  const auto jittered = jitteredAround(hot, 40, 5000);
  for (const auto& r : jittered) index.insert(r);
  index.pointQuery(hot);  // hint now names a deep post-split leaf

  // Erasing the jitter merges the hot leaf back up: the cached prefixes
  // vanish, so the hint probes come back NULL and the search repairs
  // below the hint's length.
  dht::CostMeter churn;
  {
    dht::MeterScope scope(net, churn);
    for (const auto& r : jittered) index.erase(r.key, r.id);
  }
  EXPECT_GE(churn.staleHints, 1u);
  // Exact repair-path counts: a change to the prefix search or the hint
  // repair that alters probe order or count moves these.
  EXPECT_EQ(churn.lookups, 156u);
  EXPECT_EQ(churn.staleHints, 10u);
  EXPECT_EQ(churn.cacheHits, 28u);
  EXPECT_EQ(index.stateDigest(), 0x507312c749f6372aull);

  const auto query = index.pointQuery(hot);
  ASSERT_EQ(query.records.size(), 1u);
  EXPECT_EQ(query.records[0].id, data[0].id);
  EXPECT_EQ(common::auditCounters().failed, 0u);
}

TEST(CachedLookup, PhtHintEvictionsAreMetered) {
  // A cache of two hints (one per dimension) cannot hold the leaves of a
  // split trie: every point query and range traversal that learns a new
  // leaf evicts one, and the eviction shows up in the cost meter, as it
  // does for m-LIGHT.
  dht::Network net(1, 6);
  pht::PhtConfig cfg = cachedPhtConfig();
  cfg.cache.perDimCapacity = 1;
  pht::PhtIndex index(net, cfg);
  const auto data = uniformRecords(200, 13);
  for (const auto& r : data) index.insert(r);
  ASSERT_GT(index.leafCount(), 2u);

  std::uint64_t evictions = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const auto& r = data[(i * 7) % data.size()];
    const auto res = index.pointQuery(r.key);
    ASSERT_EQ(res.records.size(), 1u);
    EXPECT_EQ(res.records[0].id, r.id);
    evictions += res.stats.cost.hintEvictions;
  }
  EXPECT_GT(evictions, 0u);

  const auto range = index.rangeQuery(common::Rect::unit(2));
  EXPECT_EQ(range.records.size(), data.size());
  EXPECT_GT(range.stats.cost.hintEvictions, 0u);
}

}  // namespace
}  // namespace mlight
