// Tests for bulk loading and for m-LIGHT at m = 1 (LHT).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "mlight/kdspace.h"
#include "mlight/index.h"
#include "mlight/naming.h"
#include "mlight/split.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::core {
namespace {

using mlight::common::BitString;
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

// --- Equivalence with the by-value recursive partition ---
//
// The threshold bulk load partitions one index permutation of the input
// and copies each record once, into its leaf.  The reference below is
// the recursion it replaced, which copied every record at every kd level
// through a by-value halving of its own, sharing no code with the
// planner.  Both must give the same leaves in the same DFS order, with
// the same records in the same order; the bulk-loaded index
// must hold exactly those buckets, and its stateDigest() is pinned to the
// value captured from the by-value bulk load.

void referencePartition(const BitString& label, const Rect& region,
                        std::vector<Record> records, std::size_t theta,
                        std::size_t dims, std::size_t maxEdgeDepth,
                        std::vector<PlanLeaf>& out) {
  if (records.size() <= theta || edgeDepth(label, dims) >= maxEdgeDepth) {
    out.push_back(PlanLeaf{label, std::move(records)});
    return;
  }
  const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
  std::vector<Record> lo;
  std::vector<Record> hi;
  for (const Record& r : records) {
    (r.key[dim] >= region.mid(dim) ? hi : lo).push_back(r);
  }
  referencePartition(label.withBack(false), region.halved(dim, false),
                     std::move(lo), theta, dims, maxEdgeDepth, out);
  referencePartition(label.withBack(true), region.halved(dim, true),
                     std::move(hi), theta, dims, maxEdgeDepth, out);
}

struct PartitionCase {
  std::string name;
  std::vector<Record> data;
  std::size_t dims;
  std::size_t theta;
  std::size_t maxEdgeDepth;
  std::uint64_t want;
};

std::vector<PartitionCase> partitionCases() {
  // In case order: per theta NE then uniform d1..d4; empty, single, crowded.
  constexpr std::uint64_t kPinned[] = {
      0x4c1e4e825427d031, 0xe689eae6bd3bcccc, 0x1ef0b363ecb56853,
      0xe3cf8fe7d3606632, 0xa69f310d7d5935b8, 0x9350e1f829854bbc,
      0xef46433cb4d73c0c, 0x5de7a0425212c9cb, 0xd79fd3ec9954aef3,
      0xb509d79217f02965, 0xc29afffbbc805c68, 0x6756c5ea68c52dc8,
      0x3fae3aa1ac5b8b42, 0x10f53291d963b01b, 0xac2e6608a3bb1d0b,
      0x0e41a47bda224160, 0xb904f78058aaaa13, 0x49612fd018ed7195,
  };
  std::vector<PartitionCase> cases;
  for (const std::size_t theta : {1, 16, 100}) {
    cases.push_back({"ne/theta" + std::to_string(theta),
                     mlight::workload::northeastDataset(3000, 21), 2, theta,
                     28, 0});
    for (std::size_t dims = 1; dims <= 4; ++dims) {
      cases.push_back({"uniform/d" + std::to_string(dims) + "/theta" +
                           std::to_string(theta),
                       mlight::workload::uniformDataset(1500, dims, 30 + dims),
                       dims, theta, 28, 0});
    }
  }
  cases.push_back({"empty", {}, 2, 16, 28, 0});
  cases.push_back(
      {"single", mlight::workload::uniformDataset(1, 3, 40), 3, 16, 28, 0});
  // More than theta records on one key: the cell holding them splits down
  // to the depth cap and stays over-full there, beside a uniform spread.
  auto crowded = mlight::workload::uniformDataset(200, 2, 41);
  for (std::size_t i = 0; i < 40; ++i) {
    Record r;
    r.key = Point{0.3, 0.7};
    r.id = 100000 + i;
    r.payload = "dup";
    crowded.push_back(r);
  }
  cases.push_back({"identical-keys-at-cap", std::move(crowded), 2, 8, 12, 0});
  EXPECT_EQ(cases.size(), std::size(kPinned));
  for (std::size_t i = 0; i < cases.size() && i < std::size(kPinned); ++i) {
    cases[i].want = kPinned[i];
  }
  return cases;
}

TEST(BulkLoad, MatchesRecursivePartition) {
  for (const PartitionCase& c : partitionCases()) {
    SCOPED_TRACE(c.name);
    const BitString root = rootLabel(c.dims);
    std::vector<PlanLeaf> want;
    referencePartition(root, Rect::unit(c.dims), c.data, c.theta, c.dims,
                       c.maxEdgeDepth, want);
    const LeafBucket input(root, c.data);
    const SplitPlan plan = planSplit(
        SplitStrategy::kThreshold, static_cast<double>(c.theta), root,
        Rect::unit(c.dims), input.records(), input.keys(), c.dims,
        c.maxEdgeDepth);
    if (c.name == "identical-keys-at-cap") {
      EXPECT_TRUE(std::ranges::any_of(want, [&](const PlanLeaf& leaf) {
        return leaf.records.size() > c.theta;
      }));
    }
    ASSERT_EQ(plan.leaves.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(plan.leaves[k].label, want[k].label) << "leaf " << k;
      EXPECT_EQ(plan.leaves[k].records, want[k].records) << "leaf " << k;
    }

    Network net(64, 5);
    MLightConfig cfg;
    cfg.dims = c.dims;
    cfg.thetaSplit = c.theta;
    cfg.thetaMerge = c.theta / 2;
    cfg.maxEdgeDepth = c.maxEdgeDepth;
    MLightIndex index(net, cfg);
    index.bulkLoad(c.data);
    EXPECT_EQ(index.size(), c.data.size());
    EXPECT_EQ(index.bucketCount(), want.size());
    for (const PlanLeaf& leaf : want) {
      const LeafBucket* bucket =
          index.store().peek(naming(leaf.label, c.dims));
      ASSERT_NE(bucket, nullptr);
      EXPECT_EQ(bucket->label, leaf.label);
      EXPECT_EQ(bucket->records(), leaf.records);
      std::vector<double> keys;
      for (const Record& r : leaf.records) {
        for (std::size_t d = 0; d < c.dims; ++d) keys.push_back(r.key[d]);
      }
      EXPECT_TRUE(std::ranges::equal(bucket->keys(), keys));
    }
    const std::uint64_t got = index.stateDigest();
    EXPECT_EQ(got, c.want) << "digest 0x" << std::hex << got;
  }
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
