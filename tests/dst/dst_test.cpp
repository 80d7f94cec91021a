#include "dst/dst_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/zorder.h"
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
using mlight::index::Oracle;
using mlight::index::Record;

Record rec(double x, double y, std::uint64_t id) {
  Record r;
  r.key = Point{x, y};
  r.id = id;
  r.payload = "p" + std::to_string(id);
  return r;
}

DstConfig smallConfig() {
  DstConfig cfg;
  cfg.maxDepth = 16;  // 8 quad levels: keeps tests fast
  cfg.gamma = 8;
  return cfg;
}

TEST(DstIndex, EmptyIndexAnswersEmptyQueries) {
  Network net(32);
  DstIndex index(net, smallConfig());
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(
      index.rangeQuery(Rect(Point{0.1, 0.1}, Point{0.9, 0.9})).records.empty());
  EXPECT_TRUE(index.pointQuery(Point{0.3, 0.3}).records.empty());
}

TEST(DstIndex, InsertReplicatesAtEveryLevel) {
  Network net(32);
  DstIndex index(net, smallConfig());
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    index.insert(rec(0.3, 0.7, 1));
  }
  // One DHT-lookup per level (root..leaf inclusive).
  EXPECT_EQ(meter.lookups, index.levels() + 1);
  // The record is stored at every level (none saturated yet): the
  // replication that makes DST maintenance an order of magnitude dearer.
  EXPECT_EQ(index.nodeCount(), index.levels() + 1);
  index.checkInvariants();
}

TEST(DstIndex, PointQueryIsSingleLookup) {
  Network net(32);
  DstIndex index(net, smallConfig());
  Rng rng(3);
  for (std::uint64_t i = 0; i < 100; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  const auto res = index.pointQuery(Point{0.25, 0.25});
  EXPECT_EQ(res.stats.cost.lookups, 1u);
  EXPECT_EQ(res.stats.rounds, 1u);
}

TEST(DstIndex, SaturationMarksNodesIncomplete) {
  Network net(32);
  DstConfig cfg = smallConfig();
  cfg.gamma = 4;
  DstIndex index(net, cfg);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 50; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  index.checkInvariants();
  // The root must have saturated with 50 spread records and gamma=4.
  const mlight::index::CellNode* root = index.store().peek(mlight::common::BitString{});
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(root->complete);
  EXPECT_LE(root->records.size(), 4u);
}

TEST(DstIndex, RangeQueryMatchesOracle) {
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

TEST(DstIndex, RangeQueryMatchesOracleClustered) {
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

TEST(DstIndex, SmallCoveredRangeIsOneRound) {
  // DST's strength: a range that matches one unsaturated canonical node
  // resolves in a single round.
  Network net(32);
  DstConfig cfg = smallConfig();
  cfg.gamma = 100;
  DstIndex index(net, cfg);
  Rng rng(23);
  for (std::uint64_t i = 0; i < 50; ++i) {
    index.insert(rec(rng.uniform(), rng.uniform(), i));
  }
  // Exactly the top-left quad cell at level 1.
  const auto res = index.rangeQuery(Rect(Point{0.0, 0.5}, Point{0.5, 1.0}));
  EXPECT_EQ(res.stats.rounds, 1u);
  EXPECT_EQ(res.stats.cost.lookups, 1u);
}

TEST(DstIndex, DecompositionCoversRangeDisjointly) {
  Network net(8);
  DstIndex index(net, smallConfig());
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    const double side = rng.uniform(0.05, 0.7);
    const double x = rng.uniform() * (1 - side);
    const double y = rng.uniform() * (1 - side);
    const Rect r(Point{x, y}, Point{x + side, y + side});
    const auto cells = index.decompose(r);
    EXPECT_FALSE(cells.empty());
    for (std::size_t a = 0; a < cells.size(); ++a) {
      const Rect ca = mlight::common::cellOfPath(cells[a], 2);
      EXPECT_TRUE(ca.intersects(r));
      for (std::size_t b = a + 1; b < cells.size(); ++b) {
        EXPECT_FALSE(
            ca.intersects(mlight::common::cellOfPath(cells[b], 2)));
      }
    }
    // Coverage: every grid point of r lies in some cell.
    for (int gx = 0; gx < 5; ++gx) {
      for (int gy = 0; gy < 5; ++gy) {
        const Point p{x + side * (0.1 + 0.19 * gx),
                      y + side * (0.1 + 0.19 * gy)};
        bool covered = false;
        for (const auto& cell : cells) {
          covered |= mlight::common::cellOfPath(cell, 2).contains(p);
        }
        EXPECT_TRUE(covered);
      }
    }
  }
}

TEST(DstIndex, LargeRangeDecomposesIntoManySubranges) {
  // The D=28 effect the paper calls out: when the static depth exceeds
  // the "real" tree depth, ranges shatter into very many canonical
  // pieces — the count scales with perimeter / 2^-levels.
  Network net(8);
  DstConfig fine = smallConfig();
  fine.maxDepth = 20;
  DstIndex deep(net, fine);
  DstConfig coarse = smallConfig();
  coarse.maxDepth = 12;
  DstIndex shallow(net, coarse);
  const Rect big(Point{0.101, 0.103}, Point{0.877, 0.879});
  const Rect small(Point{0.101, 0.103}, Point{0.151, 0.153});
  // Large ranges cost far more pieces than small ones (perimeter)...
  EXPECT_GT(deep.decompose(big).size(), 10u * deep.decompose(small).size());
  // ...and a deeper static tree multiplies the piece count for the same
  // query (each extra quad level doubles the boundary resolution).
  EXPECT_GT(deep.decompose(big).size(),
            8u * shallow.decompose(big).size());
}

TEST(DstIndex, EraseRemovesEverywhere) {
  Network net(32);
  DstIndex index(net, smallConfig());
  Rng rng(31);
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

TEST(DstIndex, SurvivesChurn) {
  Network net(48);
  DstIndex index(net, smallConfig());
  Oracle oracle;
  Rng rng(37);
  for (std::uint64_t i = 0; i < 200; ++i) {
    const Record r = rec(rng.uniform(), rng.uniform(), i);
    index.insert(r);
    oracle.insert(r);
  }
  for (int i = 0; i < 8; ++i) {
    net.removePeer(net.peers()[rng.below(net.peerCount())]);
  }
  net.addPeer("dst-joiner");
  index.checkInvariants();
  for (const Rect& q :
       mlight::workload::uniformRangeQueries(10, 2, 0.15, 41)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    EXPECT_EQ(got, oracle.rangeQuery(q));
  }
}

/// Totals of one fixed insert/erase/query sequence.
struct PinnedRun {
  std::uint64_t digest = 0;
  CostMeter cost;     ///< inserts and erases
  CostMeter queries;  ///< summed stats.cost of the queries
  CostMeter total;    ///< a scope around the whole sequence
  std::size_t answers = 0;
  std::size_t rounds = 0;
};

PinnedRun pinnedRun(const DstConfig& cfg) {
  Network net(32);
  DstIndex index(net, cfg);
  PinnedRun out;
  {
    MeterScope whole(net, out.total);
    Rng rng(101);
    std::vector<Record> records;
    {
      MeterScope writes(net, out.cost);
      for (std::uint64_t i = 0; i < 240; ++i) {
        Record r;
        r.key = Point(cfg.dims);
        for (std::size_t d = 0; d < cfg.dims; ++d) r.key[d] = rng.uniform();
        r.id = i;
        r.payload = "p" + std::to_string(i);
        records.push_back(r);
        index.insert(r);
      }
      for (std::size_t i = 0; i < records.size(); i += 3) {
        index.erase(records[i].key, records[i].id);
      }
    }
    for (double span : {0.05, 0.3}) {
      for (const Rect& q :
           mlight::workload::uniformRangeQueries(6, cfg.dims, span, 103)) {
        const auto res = index.rangeQuery(q);
        out.answers += res.records.size();
        out.rounds += res.stats.rounds;
        out.queries += res.stats.cost;
      }
    }
    for (std::size_t i = 1; i < records.size(); i += 40) {
      const auto res = index.pointQuery(records[i].key);
      out.answers += res.records.size();
      out.queries += res.stats.cost;
    }
  }
  index.checkInvariants();
  out.digest = index.stateDigest();
  return out;
}

// Exact state and traffic of both static segment-tree shapes — the
// 2^m-ary DST at m = 2, 3 and the binary RST under two registration
// bands: a change to the level walk, the saturation rule, the descent
// order or the node wire format moves these.
TEST(DstIndex, StateDigestAndCostsPinned) {
  DstConfig dst2;
  dst2.maxDepth = 12;
  dst2.gamma = 8;
  DstConfig dst3 = dst2;
  dst3.dims = 3;
  DstConfig rst3 = dst2;
  rst3.levelWidth = LevelWidth::kOneBit;
  rst3.bandCeiling = 3;
  rst3.seed = 45;
  rst3.dhtNamespace = "rst/";
  DstConfig rst4 = rst3;
  rst4.bandCeiling = 4;
  struct Expected {
    std::uint64_t digest;
    std::uint64_t lookups, hops, bytesMoved, recordsMoved, messages;
    std::size_t answers, rounds;
  };
  const PinnedRun runs[] = {pinnedRun(dst2), pinnedRun(dst3),
                            pinnedRun(rst3), pinnedRun(rst4)};
  const Expected expected[] = {
      {0x3c3e8f39cef1743full, 2240, 5480, 38721, 1092, 2240, 319, 18},
      {0x6adcf04073173458ull, 1600, 3674, 32606, 750, 1600, 289, 12},
      {0x671977ca58ba951aull, 3200, 7551, 71234, 2007, 3200, 319, 18},
      {0x1b842a3cf6a77e71ull, 2880, 6832, 69179, 1948, 2880, 319, 18}};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    const PinnedRun& got = runs[i];
    const Expected& want = expected[i];
    EXPECT_EQ(got.digest, want.digest);
    EXPECT_EQ(got.cost.lookups, want.lookups);
    EXPECT_EQ(got.cost.hops, want.hops);
    EXPECT_EQ(got.cost.bytesMoved, want.bytesMoved);
    EXPECT_EQ(got.cost.recordsMoved, want.recordsMoved);
    EXPECT_EQ(got.cost.messages, want.messages);
    EXPECT_EQ(got.answers, want.answers);
    EXPECT_EQ(got.rounds, want.rounds);
    // The outer scope sees the writes and every query's reported cost.
    CostMeter writesAndQueries = got.cost;
    writesAndQueries += got.queries;
    EXPECT_GT(got.queries.lookups, 0u);
    EXPECT_EQ(got.total, writesAndQueries);
  }
}

TEST(DstIndex, RejectsBadConfig) {
  Network net(8);
  DstConfig cfg;
  cfg.maxDepth = 15;  // not a multiple of dims=2
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
  cfg = DstConfig{};
  cfg.gamma = 0;
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
}

TEST(DstIndex, RejectsLabelsBeyondTheLimit) {
  Network net(8);
  DstConfig cfg;  // dims = 2: 52 bits per dimension bind first
  cfg.maxDepth = 2 * mlight::common::kMaxInterleaveBitsPerDim + 2;
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
  cfg.maxDepth -= 2;
  EXPECT_NO_THROW(DstIndex(net, cfg));
  cfg.dims = 8;  // from m = 5 on, the label limit binds
  cfg.maxDepth = mlight::common::BitString::kMaxBits + 8;
  EXPECT_THROW(DstIndex(net, cfg), std::invalid_argument);
  cfg.maxDepth = mlight::common::BitString::kMaxBits;
  EXPECT_NO_THROW(DstIndex(net, cfg));
}

TEST(DstIndex, RejectsKeysOutsideUnitCube) {
  // Keys live in [0,1)^m: a coordinate of 1.0 would sit outside every
  // half-open leaf cell, where no clipped range query could return it.
  Network net(16);
  DstIndex index(net, smallConfig());
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
}  // namespace mlight::dst
