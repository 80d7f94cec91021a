// Tests for bulk loading and for m-LIGHT at m = 1 (LHT).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "mlight/kdspace.h"
#include "mlight/index.h"
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

MLightConfig smallConfig() {
  MLightConfig cfg;
  cfg.thetaSplit = 15;
  cfg.thetaMerge = 7;
  cfg.maxEdgeDepth = 20;
  return cfg;
}

TEST(BulkLoad, MatchesIncrementalContents) {
  const auto data = mlight::workload::clusteredDataset(1000, 2, 3, 0.05, 3);
  Network netA(64);
  Network netB(64);
  MLightIndex incremental(netA, smallConfig());
  MLightIndex bulk(netB, smallConfig());
  for (const auto& r : data) incremental.insert(r);
  bulk.bulkLoad(data);
  bulk.checkInvariants();
  EXPECT_EQ(bulk.size(), incremental.size());
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(20, 2, 0.1, 5)) {
    auto a = incremental.rangeQuery(q).records;
    auto b = bulk.rangeQuery(q).records;
    Oracle::sortById(a);
    Oracle::sortById(b);
    EXPECT_EQ(a, b);
  }
}

TEST(BulkLoad, ThresholdInvariantHolds) {
  const auto data = mlight::workload::uniformDataset(2000, 2, 7);
  Network net(64);
  MLightIndex index(net, smallConfig());
  index.bulkLoad(data);
  std::size_t maxLoad = 0;
  index.store().forEach([&](const auto&, const LeafBucket& b, auto) {
    maxLoad = std::max(maxLoad, b.recordCount());
  });
  EXPECT_LE(maxLoad, index.config().thetaSplit);
}

TEST(BulkLoad, MuchCheaperThanIncremental) {
  const auto data = mlight::workload::uniformDataset(3000, 2, 9);
  Network netA(64, 1);
  Network netB(64, 1);
  MLightIndex incremental(netA, smallConfig());
  MLightIndex bulk(netB, smallConfig());
  CostMeter inc;
  CostMeter blk;
  {
    MeterScope scope(netA, inc);
    for (const auto& r : data) incremental.insert(r);
  }
  {
    MeterScope scope(netB, blk);
    bulk.bulkLoad(data);
  }
  // One put per bucket vs ~3 probes per record.
  EXPECT_LT(blk.lookups * 10, inc.lookups);
  // Each record crosses the wire once vs once + split re-shipping.
  EXPECT_LT(blk.bytesMoved, inc.bytesMoved);
}

TEST(BulkLoad, DataAwareStrategyWorksToo) {
  const auto data = mlight::workload::clusteredDataset(800, 2, 2, 0.03, 11);
  Network net(64);
  MLightConfig cfg = smallConfig();
  cfg.strategy = SplitStrategy::kDataAware;
  cfg.epsilon = 10.0;
  MLightIndex index(net, cfg);
  index.bulkLoad(data);
  index.checkInvariants();
  EXPECT_EQ(index.size(), data.size());
  // Further incremental inserts keep working.
  Record extra;
  extra.key = Point{0.5, 0.5};
  extra.id = 999999;
  index.insert(extra);
  EXPECT_EQ(index.pointQuery(extra.key).records.size(), 1u);
}

TEST(BulkLoad, RejectsNonEmptyIndexAndBadDims) {
  Network net(16);
  MLightIndex index(net, smallConfig());
  Record r;
  r.key = Point{0.5, 0.5};
  index.insert(r);
  EXPECT_THROW(index.bulkLoad(std::vector<Record>{r}), std::logic_error);

  MLightConfig cfg = smallConfig();
  cfg.dhtNamespace = "bulk2/";
  MLightIndex fresh(net, cfg);
  Record bad;
  bad.key = Point{0.5, 0.5, 0.5};
  EXPECT_THROW(fresh.bulkLoad(std::vector<Record>{bad}),
               std::invalid_argument);
}

TEST(BulkLoad, EmptyBatchLeavesSingleRootBucket) {
  Network net(16);
  MLightIndex index(net, smallConfig());
  index.bulkLoad(std::vector<Record>{});
  index.checkInvariants();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.bucketCount(), 1u);
}

// --- LHT: m-LIGHT at m = 1 ---
//
// The authors' one-dimensional predecessor (Tang & Zhou, ICDCS'08, paper
// [12]) is m-LIGHT with m = 1: the kd-tree becomes a binary interval
// tree and f_md reduces to LHT's naming function (§2.1).

MLightConfig oneDimConfig(std::size_t thetaSplit, std::size_t thetaMerge) {
  MLightConfig cfg;
  cfg.dims = 1;
  cfg.thetaSplit = thetaSplit;
  cfg.thetaMerge = thetaMerge;
  cfg.dhtNamespace = "lht/";
  return cfg;
}

TEST(Lht, OneDimensionalRangeQueries) {
  Network net(32);
  MLightIndex index(net, oneDimConfig(10, 5));
  Rng rng(13);
  std::vector<double> keys;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const double k = rng.uniform();
    keys.push_back(k);
    index.insert({Point{k}, "v" + std::to_string(i), i});
  }
  index.checkInvariants();
  for (int trial = 0; trial < 25; ++trial) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    const auto res = index.rangeQuery(Rect(Point{lo}, Point{hi}));
    std::size_t want = 0;
    for (double k : keys) want += (k >= lo && k < hi);
    EXPECT_EQ(res.records.size(), want);
    for (const auto& r : res.records) {
      EXPECT_GE(r.key[0], lo);
      EXPECT_LT(r.key[0], hi);
    }
  }
}

TEST(Lht, PointQueryAndErase) {
  Network net(32);
  MLightIndex index(net, oneDimConfig(100, 50));
  index.insert({Point{0.42}, "answer", 1});
  index.insert({Point{0.42}, "other", 2});
  EXPECT_EQ(index.pointQuery(Point{0.42}).records.size(), 2u);
  EXPECT_EQ(index.erase(Point{0.42}, 1), 1u);
  EXPECT_EQ(index.pointQuery(Point{0.42}).records.size(), 1u);
  EXPECT_EQ(index.size(), 1u);
}

TEST(Lht, DegeneratesToBinaryIntervalTree) {
  // m = 1: every label region is a dyadic interval, and the naming
  // function still gives the bijection (LHT's defining property).
  Network net(32);
  MLightIndex index(net, oneDimConfig(5, 2));
  Rng rng(17);
  for (std::uint64_t i = 0; i < 100; ++i) {
    index.insert({Point{rng.uniform()}, "", i});
  }
  EXPECT_GT(index.bucketCount(), 4u);
  index.store().forEach(
      [&](const auto& key, const LeafBucket& bucket, auto) {
        EXPECT_EQ(naming(bucket.label, 1), key);
        const Rect region = labelRegion(bucket.label, 1);
        EXPECT_EQ(region.dims(), 1u);
      });
}

}  // namespace
}  // namespace mlight::core
