#include "mlight/index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/zorder.h"
#include "index/oracle.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::core {
namespace {

using mlight::common::Point;
using mlight::common::Rect;
using mlight::common::Rng;
using mlight::dht::CostMeter;
using mlight::dht::MeterScope;
using mlight::dht::Network;
using mlight::index::Oracle;
using mlight::index::Record;

Record rec(double x, double y, std::uint64_t id) {
  Record r;
  r.key = Point{x, y};
  r.id = id;
  r.payload = "p" + std::to_string(id);
  return r;
}

MLightConfig smallConfig() {
  MLightConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.maxEdgeDepth = 20;
  return cfg;
}

TEST(MLightIndex, EmptyIndexAnswersEmptyQueries) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.bucketCount(), 1u);  // the root bucket
  const auto range =
      index.rangeQuery(Rect(Point{0.1, 0.1}, Point{0.9, 0.9}));
  EXPECT_TRUE(range.records.empty());
  const auto point = index.pointQuery(Point{0.5, 0.5});
  EXPECT_TRUE(point.records.empty());
}

TEST(MLightIndex, InsertThenPointQueryFindsRecord) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  index.insert(rec(0.3, 0.7, 42));
  EXPECT_EQ(index.size(), 1u);
  const auto res = index.pointQuery(Point{0.3, 0.7});
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].id, 42u);
  EXPECT_GE(res.stats.cost.lookups, 1u);
}

TEST(MLightIndex, DuplicateKeysAllReturned) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  for (std::uint64_t i = 0; i < 5; ++i) index.insert(rec(0.25, 0.25, i));
  const auto res = index.pointQuery(Point{0.25, 0.25});
  EXPECT_EQ(res.records.size(), 5u);
}

TEST(MLightIndex, LookupReturnsCoveringLeaf) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  Rng rng(3);
  for (std::uint64_t i = 0; i < 200; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  index.checkInvariants();
  for (int i = 0; i < 50; ++i) {
    const Point p{rng.uniform(), rng.uniform()};
    const auto res = index.lookup(p);
    EXPECT_TRUE(labelRegion(res.leaf, 2).contains(p));
    // Binary search: at most ceil(log2(D+1)) + 1 probes.
    EXPECT_LE(res.stats.cost.lookups, 6u);
    EXPECT_EQ(res.stats.rounds, res.stats.cost.lookups);
  }
}

TEST(MLightIndex, SplitsKeepThresholdInvariant) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  Rng rng(5);
  for (std::uint64_t i = 0; i < 300; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  EXPECT_GT(index.bucketCount(), 1u);
  index.checkInvariants();
  std::size_t maxLoad = 0;
  index.store().forEach([&](const auto&, const LeafBucket& b, auto) {
    maxLoad = std::max(maxLoad, b.recordCount());
  });
  EXPECT_LE(maxLoad, index.config().thetaSplit);
}

TEST(MLightIndex, IncrementalSplitMovesAboutHalfTheData) {
  // Theorem 5's payoff: at every split only one child's bucket crosses
  // the network.  Fill one bucket to force a single split and check the
  // shipped records are (about) half.
  Network net(64);
  MLightConfig cfg = smallConfig();
  cfg.thetaSplit = 10;
  cfg.thetaMerge = 2;
  MLightIndex index(net, cfg);
  Rng rng(7);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    for (std::uint64_t i = 0; i < 11; ++i) {
      index.insert(rec(rng.uniform(), rng.uniform(), i));
    }
  }
  EXPECT_EQ(index.bucketCount(), 2u);
  // 11 records inserted (each ships once) + one split moving <= 11
  // records; strictly less than 2x insert traffic.
  EXPECT_GE(meter.recordsMoved, 11u);
  EXPECT_LE(meter.recordsMoved, 11u + 11u);
  index.checkInvariants();
}

TEST(MLightIndex, RangeQueryMatchesOracleUniform) {
  Network net(64);
  MLightIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(11);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  index.checkInvariants();
  for (double span : {0.0, 0.01, 0.1, 0.3, 1.0}) {
    const auto queries =
        mlight::workload::uniformRangeQueries(10, 2, span, 17);
    for (const Rect& q : queries) {
      auto got = index.rangeQuery(q).records;
      Oracle::sortById(got);
      EXPECT_EQ(got, oracle.rangeQuery(q)) << q.toString();
    }
  }
}

TEST(MLightIndex, RangeQueryMatchesOracleClustered) {
  Network net(64);
  MLightIndex index(net, smallConfig());
  Oracle oracle;
  for (const Record& r :
       mlight::workload::clusteredDataset(500, 2, 3, 0.05, 23)) {
    index.insert(r);
    oracle.insert(r);
  }
  index.checkInvariants();
  const auto queries = mlight::workload::uniformRangeQueries(30, 2, 0.05, 29);
  for (const Rect& q : queries) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q)) << q.toString();
  }
}

TEST(MLightIndex, FullSpaceRangeReturnsEverything) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  Rng rng(31);
  for (std::uint64_t i = 0; i < 150; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  const auto res = index.rangeQuery(Rect::unit(2));
  EXPECT_EQ(res.records.size(), 150u);
}

TEST(MLightIndex, RangeOutsideUnitCubeIsClipped) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  index.insert(rec(0.99, 0.99, 1));
  const auto res =
      index.rangeQuery(Rect(Point{0.9, 0.9}, Point{5.0, 5.0}));
  EXPECT_EQ(res.records.size(), 1u);
  const auto empty =
      index.rangeQuery(Rect(Point{2.0, 2.0}, Point{3.0, 3.0}));
  EXPECT_TRUE(empty.records.empty());
}

TEST(MLightIndex, RejectsKeysOutsideUnitCube) {
  // Keys live in [0,1)^m: a coordinate of 1.0 would sit outside every
  // half-open leaf cell, where no clipped range query could return it.
  Network net(16);
  MLightIndex index(net, smallConfig());
  for (std::uint64_t i = 0; i < 20; ++i) {
    index.insert(rec(0.05 * static_cast<double>(i), 0.5, i));
  }
  const std::size_t sizeBefore = index.size();
  const CostMeter before = net.totalCost();
  const double bad[] = {1.0, 1.5, -1e-300,
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double v : bad) {
    for (const Record& r : {rec(v, 0.5, 100), rec(0.5, v, 100)}) {
      EXPECT_THROW(index.insert(r), std::invalid_argument);
      // The good record ahead of the bad one must not slip in either:
      // the whole batch is checked before anything is routed.
      const std::vector<Record> batch = {rec(0.2, 0.2, 101), r};
      EXPECT_THROW(index.insertBatched(batch), std::invalid_argument);
      Network freshNet(16);
      MLightIndex fresh(freshNet, smallConfig());
      EXPECT_THROW(fresh.bulkLoad(batch), std::invalid_argument);
      EXPECT_EQ(fresh.size(), 0u);
      EXPECT_EQ(freshNet.totalCost().lookups, 0u);
      EXPECT_EQ(freshNet.totalCost().bytesMoved, 0u);
    }
  }
  EXPECT_EQ(index.size(), sizeBefore);
  const CostMeter after = net.totalCost();
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.hops, before.hops);
  EXPECT_EQ(after.messages, before.messages);
  EXPECT_EQ(after.bytesMoved, before.bytesMoved);
  EXPECT_EQ(after.recordsMoved, before.recordsMoved);
  // The largest coordinate below 1.0 and 0.0 itself are valid keys.
  EXPECT_NO_THROW(index.insert(rec(std::nextafter(1.0, 0.0), 0.0, 200)));
  EXPECT_EQ(index.rangeQuery(Rect::unit(2)).records.size(), sizeBefore + 1);
}

TEST(MLightIndex, InsertBatchedSkipsRecordsItAlreadyHolds) {
  // The owner-side apply dedups by (id, key): a replayed batch is
  // idempotent, and of a mixed batch only the records a bucket does not
  // hold yet are appended (a held id under a new key is a new record).
  Network net(32);
  MLightConfig cfg = smallConfig();
  cfg.cache.enabled = false;
  cfg.replication = 1;
  MLightIndex index(net, cfg);
  Rng rng(61);
  std::vector<Record> data;
  for (std::uint64_t i = 0; i < 300; ++i) {
    data.push_back(rec(rng.uniform(), rng.uniform(), i));
  }
  ASSERT_EQ(index.insertBatched(data).acked, data.size());
  const std::size_t size = index.size();
  const std::uint64_t digest = index.stateDigest();

  const auto again = index.insertBatched(data);
  EXPECT_EQ(again.acked, data.size());
  EXPECT_EQ(again.failed, 0u);
  EXPECT_EQ(index.size(), size);
  EXPECT_EQ(index.stateDigest(), digest);

  std::vector<Record> mixed(data.begin(), data.begin() + 100);
  for (std::uint64_t i = 0; i < 100; ++i) {
    mixed.push_back(rec(rng.uniform(), rng.uniform(), 1000 + i));
  }
  mixed.push_back(rec(rng.uniform(), rng.uniform(), data[7].id));
  const auto third = index.insertBatched(mixed);
  EXPECT_EQ(third.acked, mixed.size());
  EXPECT_EQ(third.failed, 0u);
  EXPECT_EQ(index.size(), size + 101);
  index.checkInvariants();
  std::size_t held = 0;
  index.store().forEach([&](const auto&, const LeafBucket& bucket, auto) {
    const auto& recs = bucket.records();
    held += recs.size();
    for (std::size_t a = 0; a < recs.size(); ++a) {
      for (std::size_t b = a + 1; b < recs.size(); ++b) {
        EXPECT_FALSE(recs[a].id == recs[b].id && recs[a].key == recs[b].key)
            << "duplicate record " << recs[a].id;
      }
    }
  });
  EXPECT_EQ(held, size + 101);
}

TEST(MLightIndex, EraseRemovesAndMerges) {
  Network net(32);
  MLightConfig cfg = smallConfig();
  MLightIndex index(net, cfg);
  Rng rng(37);
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 200; ++i) {
    records.push_back(rec(rng.uniform(), rng.uniform(), i));
    index.insert(records.back());
  }
  const std::size_t bucketsBefore = index.bucketCount();
  EXPECT_GT(bucketsBefore, 4u);
  for (const Record& r : records) {
    EXPECT_EQ(index.erase(r.key, r.id), 1u);
  }
  EXPECT_EQ(index.size(), 0u);
  index.checkInvariants();
  // Merges collapsed the tree substantially.
  EXPECT_LT(index.bucketCount(), bucketsBefore);
  // Erasing a missing record is a no-op.
  EXPECT_EQ(index.erase(Point{0.5, 0.5}, 999999), 0u);
}

TEST(MLightIndex, EraseKeepsQueriesConsistentWithOracle) {
  Network net(32);
  MLightIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(41);
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 300; ++i) {
    records.push_back(rec(rng.uniform(), rng.uniform(), i));
    index.insert(records.back());
    oracle.insert(records.back());
  }
  // Delete a random half.
  for (std::uint64_t i = 0; i < 300; i += 2) {
    index.erase(records[i].key, records[i].id);
    oracle.erase(records[i].key, records[i].id);
  }
  index.checkInvariants();
  const auto queries = mlight::workload::uniformRangeQueries(20, 2, 0.2, 43);
  for (const Rect& q : queries) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(MLightIndex, DataAwareStrategyMatchesOracleToo) {
  Network net(64);
  MLightConfig cfg = smallConfig();
  cfg.strategy = SplitStrategy::kDataAware;
  cfg.epsilon = 6.0;
  MLightIndex index(net, cfg);
  Oracle oracle;
  for (const Record& r :
       mlight::workload::clusteredDataset(400, 2, 2, 0.04, 47)) {
    index.insert(r);
    oracle.insert(r);
  }
  index.checkInvariants();
  EXPECT_GT(index.bucketCount(), 1u);
  const auto queries = mlight::workload::uniformRangeQueries(20, 2, 0.1, 53);
  for (const Rect& q : queries) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(MLightIndex, DataAwareProducesFewerEmptyBuckets) {
  // Theorem 6's practical effect (Fig 6b): on skewed data the data-aware
  // strategy leaves fewer empty buckets than threshold splitting of
  // comparable tree size.
  Network netA(64);
  Network netB(64);
  MLightConfig threshold = smallConfig();
  threshold.thetaSplit = 10;
  threshold.thetaMerge = 5;
  MLightConfig aware = smallConfig();
  aware.strategy = SplitStrategy::kDataAware;
  aware.epsilon = 7.0;
  MLightIndex a(netA, threshold);
  MLightIndex b(netB, aware);
  // Tight clusters force threshold splitting through many levels that
  // each strand an empty sibling; the data-aware planner pays ε² for
  // every empty cell and so avoids the avoidable ones.
  for (const Record& r :
       mlight::workload::clusteredDataset(4000, 2, 3, 0.004, 59)) {
    a.insert(r);
    b.insert(r);
  }
  a.checkInvariants();
  b.checkInvariants();
  const double emptyA = static_cast<double>(a.emptyBucketCount()) /
                        static_cast<double>(a.bucketCount());
  const double emptyB = static_cast<double>(b.emptyBucketCount()) /
                        static_cast<double>(b.bucketCount());
  EXPECT_LT(emptyB, emptyA);
}

TEST(MLightIndex, ParallelLookaheadReturnsSameResults) {
  Network net(64);
  MLightConfig basic = smallConfig();
  MLightIndex index(net, basic);
  Oracle oracle;
  Rng rng(61);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  for (std::size_t h : {2u, 4u, 8u}) {
    MLightConfig cfg = basic;
    cfg.lookahead = h;
    cfg.dhtNamespace = "mlight-h" + std::to_string(h) + "/";
    MLightIndex parallel(net, cfg);
    for (const Record& r : oracle.rangeQuery(Rect::unit(2))) {
      parallel.insert(r);
    }
    const auto queries =
        mlight::workload::uniformRangeQueries(15, 2, 0.15, 67);
    for (const Rect& q : queries) {
      auto got = parallel.rangeQuery(q).records;
      Oracle::sortById(got);
      EXPECT_EQ(got, oracle.rangeQuery(q)) << "h=" << h;
    }
  }
}

TEST(MLightIndex, ParallelLookaheadTradesBandwidthForLatency) {
  Network net(64);
  MLightConfig basic = smallConfig();
  basic.thetaSplit = 6;
  basic.thetaMerge = 3;
  MLightIndex a(net, basic);
  MLightConfig par = basic;
  par.lookahead = 4;
  par.dhtNamespace = "mlight-p4/";
  MLightIndex b(net, par);
  Rng rng(71);
  for (std::uint64_t i = 0; i < 800; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    a.insert(r);
    b.insert(r);
  }
  const auto queries = mlight::workload::uniformRangeQueries(25, 2, 0.2, 73);
  std::uint64_t lookupsBasic = 0;
  std::uint64_t lookupsPar = 0;
  std::uint64_t roundsBasic = 0;
  std::uint64_t roundsPar = 0;
  for (const Rect& q : queries) {
    const auto ra = a.rangeQuery(q);
    const auto rb = b.rangeQuery(q);
    EXPECT_EQ(ra.records.size(), rb.records.size());
    lookupsBasic += ra.stats.cost.lookups;
    lookupsPar += rb.stats.cost.lookups;
    roundsBasic += ra.stats.rounds;
    roundsPar += rb.stats.rounds;
  }
  EXPECT_GE(lookupsPar, lookupsBasic);  // more bandwidth...
  EXPECT_LT(roundsPar, roundsBasic);    // ...less latency
}

TEST(MLightIndex, HigherDimensionalIndexWorks) {
  for (std::size_t dims : {1u, 3u}) {
    Network net(32);
    MLightConfig cfg = smallConfig();
    cfg.dims = dims;
    cfg.maxEdgeDepth = 18;
    MLightIndex index(net, cfg);
    Oracle oracle;
    Rng rng(79 + dims);
    for (std::uint64_t i = 0; i < 250; ++i) {
      Record r;
      r.key = Point(dims);
      for (std::size_t d = 0; d < dims; ++d) r.key[d] = rng.uniform();
      r.id = i;
      index.insert(r);
      oracle.insert(r);
    }
    index.checkInvariants();
    const auto queries =
        mlight::workload::uniformRangeQueries(15, dims, 0.1, 83);
    for (const Rect& q : queries) {
      auto got = index.rangeQuery(q).records;
      Oracle::sortById(got);
      EXPECT_EQ(got, oracle.rangeQuery(q)) << "dims=" << dims;
    }
  }
}

TEST(MLightIndex, RejectsBadConfigAndInputs) {
  Network net(8);
  MLightConfig cfg;
  cfg.dims = 0;
  EXPECT_THROW(MLightIndex(net, cfg), std::invalid_argument);
  cfg = MLightConfig{};
  cfg.thetaMerge = cfg.thetaSplit;
  EXPECT_THROW(MLightIndex(net, cfg), std::invalid_argument);
  MLightIndex ok(net, MLightConfig{});
  Record threeD;
  threeD.key = Point{0.1, 0.2, 0.3};
  EXPECT_THROW(ok.insert(threeD), std::invalid_argument);
  EXPECT_THROW(ok.rangeQuery(Rect::unit(3)), std::invalid_argument);
}

TEST(MLightIndex, RejectsLabelsBeyondTheLimit) {
  // A label is dims + 1 root bits plus maxEdgeDepth edge bits; the
  // constructor refuses a bound whose deepest label would not fit, or
  // whose key path is deeper than a double's 52 bits per dimension.
  Network net(16);
  MLightConfig cfg;
  cfg.maxEdgeDepth = 2 * mlight::common::kMaxInterleaveBitsPerDim + 1;
  EXPECT_THROW(MLightIndex(net, cfg), std::invalid_argument);
  --cfg.maxEdgeDepth;
  EXPECT_NO_THROW(MLightIndex(net, cfg));
  cfg.dims = 5;
  cfg.maxEdgeDepth = mlight::common::BitString::kMaxBits - cfg.dims;
  EXPECT_THROW(MLightIndex(net, cfg), std::invalid_argument);
  // At the limit the index works end to end: identical keys split all
  // the way down to a 256-bit leaf label.
  cfg.maxEdgeDepth = mlight::common::BitString::kMaxBits - cfg.dims - 1;
  cfg.thetaSplit = 2;
  cfg.thetaMerge = 1;
  MLightIndex index(net, cfg);
  const Point key{0.3, 0.7, 0.1, 0.9, 0.5};
  for (std::uint64_t i = 0; i < 3; ++i) index.insert(Record{key, "", i});
  index.checkInvariants();
  EXPECT_EQ(index.pointQuery(key).records.size(), 3u);
  EXPECT_EQ(index.treeDepth(), cfg.maxEdgeDepth);
}

TEST(MLightIndex, DegenerateAllSamePointRespectsDepthCap) {
  Network net(16);
  MLightConfig cfg = smallConfig();
  cfg.maxEdgeDepth = 10;
  MLightIndex index(net, cfg);
  // 50 identical keys can never be separated: the depth cap must stop
  // splitting and the bucket simply overflows.
  for (std::uint64_t i = 0; i < 50; ++i) index.insert(rec(0.3, 0.3, i));
  index.checkInvariants();
  EXPECT_EQ(index.pointQuery(Point{0.3, 0.3}).records.size(), 50u);
  EXPECT_LE(index.treeDepth(), 10u);
}

TEST(MLightIndex, SurvivesChurn) {
  Network net(48);
  MLightIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(89);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  // Churn: a quarter of the peers leave, some new ones join.
  for (int i = 0; i < 12; ++i) {
    net.removePeer(net.peers()[rng.below(net.peerCount())]);
  }
  for (int i = 0; i < 6; ++i) net.addPeer("late-joiner:" + std::to_string(i));
  index.checkInvariants();
  const auto queries = mlight::workload::uniformRangeQueries(15, 2, 0.2, 97);
  for (const Rect& q : queries) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
  // And the index still accepts writes.
  index.insert(rec(0.5, 0.5, 100000));
  EXPECT_EQ(index.pointQuery(Point{0.5, 0.5}).records.size(), 1u);
}

TEST(MLightIndex, RangeWhoseLcaNamesToVirtualRoot) {
  // Regression: an LCA of the form #0101... (bit-aligned zig-zag) is
  // named to the *virtual root*; branch enumeration from the found leaf
  // must not try to take the sibling of the root #.
  Network net(48);
  MLightIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(113);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  // LCA of this rectangle is #0101 (x in [0.75,1), y in [0,0.25)),
  // whose name is the virtual root.
  const Rect q(Point{0.766, 0.067}, Point{0.866, 0.167});
  EXPECT_EQ(lowestCommonAncestor(q, 2, 28).toString().substr(0, 7),
            "0010101");
  auto got = index.rangeQuery(q).records;
  Oracle::sortById(got);
  EXPECT_EQ(got, oracle.rangeQuery(q));
}

TEST(MLightIndex, DepthEstimationByProbing) {
  // §5: D can be estimated by probing values before query processing.
  Network net(64);
  MLightIndex index(net, smallConfig());
  Rng rng(211);
  for (std::uint64_t i = 0; i < 800; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  CostMeter meter;
  std::size_t estimate = 0;
  {
    MeterScope scope(net, meter);
    estimate = index.estimateDepthByProbing(30, 2);
  }
  // The estimate brackets the real depth: at least as deep as the
  // deepest probed leaf, never beyond the configured cap, and for a
  // roughly uniform tree within headroom+2 of the true depth.
  EXPECT_GE(estimate + 2, index.treeDepth());
  EXPECT_LE(estimate, index.config().maxEdgeDepth);
  // Probing is real DHT traffic: ~log2(D) lookups per sample.
  EXPECT_GE(meter.lookups, 30u);
  EXPECT_LE(meter.lookups, 30u * 7u);
}

TEST(MLightIndex, QueryStatsAreMeaningful) {
  Network net(64);
  MLightIndex index(net, smallConfig());
  Rng rng(101);
  for (std::uint64_t i = 0; i < 600; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  const auto small = index.rangeQuery(
      Rect(Point{0.40, 0.40}, Point{0.45, 0.45}));
  const auto large = index.rangeQuery(
      Rect(Point{0.05, 0.05}, Point{0.95, 0.95}));
  EXPECT_GE(small.stats.cost.lookups, 1u);
  EXPECT_GT(large.stats.cost.lookups, small.stats.cost.lookups);
  EXPECT_GE(large.stats.rounds, 1u);
  // Rounds never exceed lookups.
  EXPECT_LE(large.stats.rounds, large.stats.cost.lookups);
}

}  // namespace
}  // namespace mlight::core
