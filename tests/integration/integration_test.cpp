// Cross-scheme integration tests: the three over-DHT indexes must agree
// with each other (and the oracle) on every query, and the paper's
// headline cost orderings must hold on a shared workload.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "dst/dst_index.h"
#include "index/index_base.h"
#include "index/oracle.h"
#include "mlight/index.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight {
namespace {

using common::Point;
using common::Rect;
using common::Rng;
using dht::CostMeter;
using dht::MeterScope;
using dht::Network;
using index::Oracle;
using index::Record;

struct Fleet {
  Network net{128, 99};
  std::unique_ptr<core::MLightIndex> mlight;
  std::unique_ptr<pht::PhtIndex> pht;
  std::unique_ptr<dst::DstIndex> dst;
  Oracle oracle;

  Fleet() {
    core::MLightConfig mc;
    mc.thetaSplit = 20;
    mc.thetaMerge = 10;
    mc.maxEdgeDepth = 20;
    mlight = std::make_unique<core::MLightIndex>(net, mc);
    pht::PhtConfig pc;
    pc.thetaSplit = 20;
    pc.thetaMerge = 10;
    pc.maxDepth = 20;
    pht = std::make_unique<pht::PhtIndex>(net, pc);
    dst::DstConfig dc;
    dc.maxDepth = 20;
    dc.gamma = 20;
    dst = std::make_unique<dst::DstIndex>(net, dc);
  }

  void insertAll(const std::vector<Record>& records) {
    for (const Record& r : records) {
      mlight->insert(r);
      pht->insert(r);
      dst->insert(r);
      oracle.insert(r);
    }
  }
};

TEST(Integration, AllSchemesAgreeOnQueries) {
  Fleet fleet;
  fleet.insertAll(workload::clusteredDataset(1200, 2, 3, 0.04, 7));
  for (double span : {0.01, 0.1, 0.4}) {
    for (const Rect& q : workload::uniformRangeQueries(8, 2, span, 11)) {
      auto want = fleet.oracle.rangeQuery(q);
      auto a = fleet.mlight->rangeQuery(q).records;
      auto b = fleet.pht->rangeQuery(q).records;
      auto c = fleet.dst->rangeQuery(q).records;
      Oracle::sortById(a);
      Oracle::sortById(b);
      Oracle::sortById(c);
      EXPECT_EQ(a, want);
      EXPECT_EQ(b, want);
      EXPECT_EQ(c, want);
    }
  }
}

TEST(Integration, AllSchemesAgreeOnPointQueries) {
  Fleet fleet;
  const auto data = workload::uniformDataset(600, 2, 13);
  fleet.insertAll(data);
  Rng rng(17);
  for (int i = 0; i < 40; ++i) {
    const Point probe = data[rng.below(data.size())].key;
    const auto want = fleet.oracle.pointQuery(probe);
    auto a = fleet.mlight->pointQuery(probe).records;
    auto b = fleet.pht->pointQuery(probe).records;
    auto c = fleet.dst->pointQuery(probe).records;
    Oracle::sortById(a);
    Oracle::sortById(b);
    Oracle::sortById(c);
    EXPECT_EQ(a, want);
    EXPECT_EQ(b, want);
    EXPECT_EQ(c, want);
  }
}

// A meter scoped around whole operations reads exactly what the
// operations report, however many scopes the indexes open inside.
TEST(Integration, MeterScopeAroundQueriesReadsTheirSummedCost) {
  Fleet fleet;
  const auto data = workload::uniformDataset(600, 2, 13);
  fleet.insertAll(data);
  CostMeter outer;
  CostMeter reported;
  {
    MeterScope scope(fleet.net, outer);
    Rng rng(19);
    for (int i = 0; i < 10; ++i) {
      const Point probe = data[rng.below(data.size())].key;
      reported += fleet.mlight->lookup(probe).stats.cost;
      reported += fleet.mlight->pointQuery(probe).stats.cost;
      reported += fleet.pht->pointQuery(probe).stats.cost;
      reported += fleet.dst->pointQuery(probe).stats.cost;
    }
    for (const Rect& q : workload::uniformRangeQueries(6, 2, 0.1, 23)) {
      reported += fleet.mlight->rangeQuery(q).stats.cost;
      reported += fleet.mlight->rangeCount(q).stats.cost;
      reported += fleet.pht->rangeQuery(q).stats.cost;
      reported += fleet.dst->rangeQuery(q).stats.cost;
    }
  }
  EXPECT_GT(reported.lookups, 0u);
  EXPECT_EQ(outer, reported);
}

TEST(Integration, MaintenanceCostOrderingMatchesPaper) {
  // Fig 5's shape: DST is an order of magnitude above the others in both
  // DHT-lookups and data movement; m-LIGHT beats PHT.
  // Parameters scaled toward the paper's regime (θ = γ = 100, deep static
  // DST tree): at toy thresholds PHT's split re-shipping can mask DST's
  // replication overhead.
  Network net(128, 3);
  core::MLightConfig mc;
  mc.thetaSplit = 100;
  mc.thetaMerge = 50;
  mc.maxEdgeDepth = 24;
  core::MLightIndex ml(net, mc);
  pht::PhtConfig pc;
  pc.thetaSplit = 100;
  pc.thetaMerge = 50;
  pc.maxDepth = 24;
  pht::PhtIndex ph(net, pc);
  dst::DstConfig dc;
  dc.maxDepth = 24;
  dc.gamma = 100;
  dst::DstIndex ds(net, dc);

  const auto data = workload::clusteredDataset(8000, 2, 3, 0.05, 23);
  CostMeter mMl;
  CostMeter mPh;
  CostMeter mDs;
  {
    MeterScope s(net, mMl);
    for (const auto& r : data) ml.insert(r);
  }
  {
    MeterScope s(net, mPh);
    for (const auto& r : data) ph.insert(r);
  }
  {
    MeterScope s(net, mDs);
    for (const auto& r : data) ds.insert(r);
  }
  // DST replicates at every level: several times dearer in both metrics.
  EXPECT_GT(mDs.lookups, 2 * mPh.lookups);
  EXPECT_GT(mDs.bytesMoved, 2 * mPh.bytesMoved);
  // m-LIGHT saves DHT-lookups (smarter binary search) and data movement
  // (Theorem 5: half-bucket splits) over PHT.
  EXPECT_LT(mMl.lookups, mPh.lookups);
  EXPECT_LT(mMl.bytesMoved, mPh.bytesMoved);
}

TEST(Integration, RangeQueryBandwidthOrderingMatchesPaper) {
  // Fig 7a's shape at moderate spans: m-LIGHT basic cheapest, PHT above
  // it (internal-node traversal), DST far above (decomposition blow-up).
  Fleet fleet;
  fleet.insertAll(workload::northeastDataset(3000, 31));
  std::uint64_t ml = 0;
  std::uint64_t ph = 0;
  std::uint64_t ds = 0;
  for (const Rect& q : workload::uniformRangeQueries(15, 2, 0.3, 37)) {
    ml += fleet.mlight->rangeQuery(q).stats.cost.lookups;
    ph += fleet.pht->rangeQuery(q).stats.cost.lookups;
    ds += fleet.dst->rangeQuery(q).stats.cost.lookups;
  }
  EXPECT_LT(ml, ph);
  EXPECT_GT(ds, 2 * ph);
}

TEST(Integration, MixedInsertEraseKeepsAllSchemesConsistent) {
  Fleet fleet;
  auto data = workload::clusteredDataset(800, 2, 2, 0.06, 41);
  fleet.insertAll(data);
  Rng rng(43);
  for (int i = 0; i < 400; ++i) {
    const auto& victim = data[rng.below(data.size())];
    const auto removed = fleet.oracle.erase(victim.key, victim.id);
    EXPECT_EQ(fleet.mlight->erase(victim.key, victim.id), removed);
    EXPECT_EQ(fleet.pht->erase(victim.key, victim.id), removed);
    EXPECT_EQ(fleet.dst->erase(victim.key, victim.id), removed);
  }
  fleet.mlight->checkInvariants();
  fleet.pht->checkInvariants();
  fleet.dst->checkInvariants();
  for (const Rect& q : workload::uniformRangeQueries(10, 2, 0.2, 47)) {
    const auto want = fleet.oracle.rangeQuery(q);
    auto a = fleet.mlight->rangeQuery(q).records;
    auto b = fleet.pht->rangeQuery(q).records;
    auto c = fleet.dst->rangeQuery(q).records;
    Oracle::sortById(a);
    Oracle::sortById(b);
    Oracle::sortById(c);
    EXPECT_EQ(a, want);
    EXPECT_EQ(b, want);
    EXPECT_EQ(c, want);
  }
}

TEST(Integration, ChurnDuringMixedWorkload) {
  Fleet fleet;
  auto data = workload::uniformDataset(600, 2, 53);
  Rng rng(59);
  for (std::size_t i = 0; i < data.size(); ++i) {
    fleet.mlight->insert(data[i]);
    fleet.pht->insert(data[i]);
    fleet.dst->insert(data[i]);
    fleet.oracle.insert(data[i]);
    if (i % 150 == 149) {
      fleet.net.removePeer(
          fleet.net.peers()[rng.below(fleet.net.peerCount())]);
      fleet.net.addPeer("churner:" + std::to_string(i));
    }
  }
  fleet.mlight->checkInvariants();
  fleet.pht->checkInvariants();
  fleet.dst->checkInvariants();
  for (const Rect& q : workload::uniformRangeQueries(10, 2, 0.15, 61)) {
    const auto want = fleet.oracle.rangeQuery(q);
    auto a = fleet.mlight->rangeQuery(q).records;
    Oracle::sortById(a);
    EXPECT_EQ(a, want);
  }
}

TEST(Integration, PolymorphicUseThroughIndexBase) {
  Network net(32);
  core::MLightConfig mc;
  mc.thetaSplit = 10;
  mc.thetaMerge = 5;
  std::vector<std::unique_ptr<index::IndexBase>> indexes;
  indexes.push_back(std::make_unique<core::MLightIndex>(net, mc));
  indexes.push_back(std::make_unique<pht::PhtIndex>(net, pht::PhtConfig{}));
  indexes.push_back(std::make_unique<dst::DstIndex>(net, dst::DstConfig{}));
  const auto data = workload::uniformDataset(100, 2, 67);
  for (auto& idx : indexes) {
    for (const auto& r : data) idx->insert(r);
    EXPECT_EQ(idx->size(), data.size());
    EXPECT_EQ(idx->rangeQuery(Rect::unit(2)).records.size(), data.size());
  }
}

}  // namespace
}  // namespace mlight
