// RST: the static segment tree in its binary shape, one interleaved bit
// per level, with a registration band (dst::DstIndex, LevelWidth::kOneBit).
#include "dst/dst_index.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zorder.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::dst {
namespace {

using mlight::common::Point;
using mlight::common::Rect;
using mlight::common::Rng;
using mlight::dht::CostMeter;
using mlight::dht::MeterScope;
using mlight::dht::Network;
using mlight::index::CellNode;
using mlight::index::Oracle;
using mlight::index::Record;

Record rec(double x, double y, std::uint64_t id) {
  Record r;
  r.key = Point{x, y};
  r.id = id;
  r.payload = "p" + std::to_string(id);
  return r;
}

/// The RST baseline's configuration: binary levels below a three-bit
/// registration band.
DstConfig rstConfig() {
  DstConfig cfg;
  cfg.levelWidth = LevelWidth::kOneBit;
  cfg.bandCeiling = 3;
  cfg.seed = 45;
  cfg.dhtNamespace = "rst/";
  return cfg;
}

DstConfig smallConfig() {
  DstConfig cfg = rstConfig();
  cfg.maxDepth = 16;
  cfg.gamma = 8;
  return cfg;
}

TEST(RstIndex, EmptyIndexAnswersEmptyQueries) {
  Network net(32);
  DstIndex index(net, smallConfig());
  EXPECT_TRUE(index.rangeQuery(Rect(Point{0.1, 0.1}, Point{0.9, 0.9}))
                  .records.empty());
  EXPECT_TRUE(index.pointQuery(Point{0.5, 0.5}).records.empty());
}

TEST(RstIndex, InsertRegistersOnlyInsideTheBand) {
  Network net(32);
  DstIndex index(net, smallConfig());
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    index.insert(rec(0.3, 0.7, 1));
  }
  // One DHT-lookup per band level: maxDepth - bandCeiling + 1.
  EXPECT_EQ(meter.lookups, 16u - 3u + 1u);
  index.checkInvariants();
  // Nothing stored above the ceiling: the root and levels 1-2 are empty.
  index.store().forEach([&](const auto& key, const CellNode&, auto) {
    EXPECT_GE(key.size(), 3u);
  });
}

TEST(RstIndex, RangeQueryMatchesOracle) {
  Network net(64);
  DstIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(11);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  index.checkInvariants();
  for (double span : {0.0, 0.05, 0.2, 1.0}) {
    for (const Rect& q :
         mlight::workload::uniformRangeQueries(8, 2, span, 13)) {
      auto got = index.rangeQuery(q).records;
      Oracle::sortById(got);
      EXPECT_EQ(got, oracle.rangeQuery(q)) << q.toString();
    }
  }
}

TEST(RstIndex, RangeQueryMatchesOracleClustered) {
  Network net(64);
  DstIndex index(net, smallConfig());
  Oracle oracle;
  for (const Record& r :
       mlight::workload::clusteredDataset(400, 2, 3, 0.05, 17)) {
    index.insert(r);
    oracle.insert(r);
  }
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(20, 2, 0.05, 19)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(RstIndex, DecompositionRespectsBandCeiling) {
  Network net(8);
  DstIndex index(net, smallConfig());
  // Even the full space decomposes into segments at the ceiling, never
  // the root.
  const auto cells = index.decompose(Rect::unit(2));
  EXPECT_EQ(cells.size(), 8u);  // 2^bandCeiling
  for (const auto& cell : cells) EXPECT_EQ(cell.size(), 3u);
}

TEST(RstIndex, BandCeilingAvoidsRootHotspot) {
  // Compare against a ceiling-0 configuration: with the band, no node
  // absorbs every insert (the root would otherwise take the first gamma
  // records and then saturate).
  Network net(32);
  DstConfig banded = smallConfig();
  DstIndex a(net, banded);
  DstConfig unbanded = smallConfig();
  unbanded.bandCeiling = 0;
  unbanded.dhtNamespace = "rst-unbanded/";
  DstIndex b(net, unbanded);
  Rng rng(23);
  CostMeter mA;
  CostMeter mB;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    {
      MeterScope scope(net, mA);
      a.insert(r);
    }
    {
      MeterScope scope(net, mB);
      b.insert(r);
    }
  }
  // The banded variant spends fewer lookups (skips the top levels).
  EXPECT_LT(mA.lookups, mB.lookups);
  a.checkInvariants();
  b.checkInvariants();
}

TEST(RstIndex, EraseRemovesEverywhere) {
  Network net(32);
  DstIndex index(net, smallConfig());
  Rng rng(29);
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 100; ++i) {
    records.push_back(rec(rng.uniform(), rng.uniform(), i));
    index.insert(records.back());
  }
  for (const Record& r : records) EXPECT_EQ(index.erase(r.key, r.id), 1u);
  EXPECT_EQ(index.size(), 0u);
  index.checkInvariants();
  EXPECT_TRUE(index.rangeQuery(Rect::unit(2)).records.empty());
}

TEST(RstIndex, PointQueryIsSingleLookup) {
  Network net(32);
  DstIndex index(net, smallConfig());
  index.insert(rec(0.25, 0.75, 5));
  const auto res = index.pointQuery(Point{0.25, 0.75});
  EXPECT_EQ(res.records.size(), 1u);
  EXPECT_EQ(res.stats.cost.lookups, 1u);
}

TEST(RstIndex, SurvivesChurn) {
  Network net(48);
  DstIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(31);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  for (int i = 0; i < 8; ++i) {
    net.removePeer(net.peers()[rng.below(net.peerCount())]);
  }
  net.addPeer("rst-joiner");
  index.checkInvariants();
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(10, 2, 0.15, 37)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

TEST(RstIndex, RejectsBadConfig) {
  Network net(8);
  DstConfig cfg = rstConfig();
  cfg.gamma = 0;
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
  cfg = rstConfig();
  cfg.bandCeiling = cfg.maxDepth;
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace mlight::dst
