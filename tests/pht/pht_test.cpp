#include "pht/pht_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/zorder.h"
#include "index/oracle.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::pht {
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

PhtConfig smallConfig() {
  PhtConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.maxDepth = 20;
  return cfg;
}

TEST(PhtIndex, EmptyIndexAnswersEmptyQueries) {
  Network net(32);
  PhtIndex index(net, smallConfig());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.nodeCount(), 1u);
  EXPECT_TRUE(
      index.rangeQuery(Rect(Point{0.1, 0.1}, Point{0.9, 0.9})).records.empty());
}

TEST(PhtIndex, InsertAndPointQuery) {
  Network net(32);
  PhtIndex index(net, smallConfig());
  index.insert(rec(0.6, 0.4, 7));
  const auto res = index.pointQuery(Point{0.6, 0.4});
  ASSERT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.records[0].id, 7u);
}

TEST(PhtIndex, InternalNodesHoldNoData) {
  Network net(32);
  PhtIndex index(net, smallConfig());
  Rng rng(3);
  for (std::uint64_t i = 0; i < 300; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  index.checkInvariants();  // includes the internal-nodes-empty check
  EXPECT_GT(index.nodeCount(), index.leafCount());
}

TEST(PhtIndex, SplitReassignsBothChildren) {
  // The maintenance contrast with m-LIGHT: a PHT split ships BOTH halves
  // to fresh DHT keys — the whole bucket's worth of payload.
  Network net(64);
  PhtConfig cfg = smallConfig();
  cfg.thetaSplit = 10;
  PhtIndex index(net, cfg);
  Rng rng(5);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    for (std::uint64_t i = 0; i < 11; ++i) {
      index.insert(rec(rng.uniform(), rng.uniform(), i));
    }
  }
  EXPECT_EQ(index.leafCount(), 2u);
  // 11 inserts ship one record each; the split ships all 11 again
  // (modulo same-peer luck).
  EXPECT_GE(meter.recordsMoved, 11u + 8u);
}

TEST(PhtIndex, RangeQueryMatchesOracle) {
  Network net(64);
  PhtIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(11);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  index.checkInvariants();
  for (double span : {0.0, 0.05, 0.2, 1.0}) {
    for (const Rect& q :
         mlight::workload::uniformRangeQueries(10, 2, span, 13)) {
      auto got = index.rangeQuery(q).records;
      Oracle::sortById(got);
      EXPECT_EQ(got, oracle.rangeQuery(q)) << q.toString();
    }
  }
}

TEST(PhtIndex, RangeQueryMatchesOracleClustered) {
  Network net(64);
  PhtIndex index(net, smallConfig());
  Oracle oracle;
  for (const Record& r :
       mlight::workload::clusteredDataset(500, 2, 3, 0.05, 17)) {
    index.insert(r);
    oracle.insert(r);
  }
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(25, 2, 0.05, 19)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(PhtIndex, EraseAndMerge) {
  Network net(32);
  PhtIndex index(net, smallConfig());
  Rng rng(23);
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 200; ++i) {
    records.push_back(rec(rng.uniform(), rng.uniform(), i));
    index.insert(records.back());
  }
  const std::size_t before = index.nodeCount();
  for (const Record& r : records) EXPECT_EQ(index.erase(r.key, r.id), 1u);
  EXPECT_EQ(index.size(), 0u);
  index.checkInvariants();
  EXPECT_LT(index.nodeCount(), before);
  EXPECT_EQ(index.erase(Point{0.1, 0.1}, 555), 0u);
}

TEST(PhtIndex, LookupCostIsLogOfDepth) {
  Network net(64);
  PhtIndex index(net, smallConfig());
  Rng rng(29);
  for (std::uint64_t i = 0; i < 500; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  for (int i = 0; i < 30; ++i) {
    const auto res = index.pointQuery(Point{rng.uniform(), rng.uniform()});
    // Binary search over prefix lengths 0..20: at most 6 probes.
    EXPECT_LE(res.stats.cost.lookups, 6u);
  }
}

TEST(PhtIndex, SurvivesChurn) {
  Network net(48);
  PhtIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(31);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  for (int i = 0; i < 10; ++i) {
    net.removePeer(net.peers()[rng.below(net.peerCount())]);
  }
  net.addPeer("pht-joiner");
  index.checkInvariants();
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(10, 2, 0.2, 37)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(PhtIndex, DepthCapStopsSplitting) {
  Network net(16);
  PhtConfig cfg = smallConfig();
  cfg.maxDepth = 8;
  PhtIndex index(net, cfg);
  for (std::uint64_t i = 0; i < 50; ++i) index.insert(rec(0.41, 0.41, i));
  index.checkInvariants();
  EXPECT_EQ(index.pointQuery(Point{0.41, 0.41}).records.size(), 50u);
}

TEST(PhtIndex, RejectsLabelsBeyondTheLimit) {
  Network net(8);
  PhtConfig cfg;  // dims = 2: 52 bits per dimension bind first
  cfg.maxDepth = 2 * mlight::common::kMaxInterleaveBitsPerDim + 1;
  EXPECT_THROW(PhtIndex(net, cfg), std::invalid_argument);
  --cfg.maxDepth;
  EXPECT_NO_THROW(PhtIndex(net, cfg));
  cfg.dims = 8;  // from m = 5 on, the label limit binds
  cfg.maxDepth = mlight::common::BitString::kMaxBits + 1;
  EXPECT_THROW(PhtIndex(net, cfg), std::invalid_argument);
  cfg.maxDepth = mlight::common::BitString::kMaxBits;
  EXPECT_NO_THROW(PhtIndex(net, cfg));
}

TEST(PhtIndex, RejectsBadInputs) {
  Network net(8);
  PhtConfig cfg;
  cfg.dims = 0;
  EXPECT_THROW(PhtIndex(net, cfg), std::invalid_argument);
  PhtIndex ok(net, PhtConfig{});
  Record bad;
  bad.key = Point{0.5};
  EXPECT_THROW(ok.insert(bad), std::invalid_argument);
}

TEST(PhtIndex, RejectsKeysOutsideUnitCube) {
  // Keys live in [0,1)^m: a coordinate of 1.0 would sit outside every
  // half-open leaf cell, where no clipped range query could return it.
  Network net(16);
  PhtIndex index(net, smallConfig());
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
    }
  }
  EXPECT_EQ(index.size(), sizeBefore);
  const CostMeter after = net.totalCost();
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.messages, before.messages);
  EXPECT_EQ(after.bytesMoved, before.bytesMoved);
  // The largest coordinate below 1.0 and 0.0 itself are valid keys.
  EXPECT_NO_THROW(index.insert(rec(std::nextafter(1.0, 0.0), 0.0, 200)));
  EXPECT_EQ(index.rangeQuery(Rect::unit(2)).records.size(), sizeBefore + 1);
  EXPECT_NO_THROW(index.checkInvariants());
}

}  // namespace
}  // namespace mlight::pht
