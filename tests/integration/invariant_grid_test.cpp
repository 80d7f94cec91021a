// Parameterized invariant grid: one mixed insert/erase/churn workload
// checked across the cross-product of dimensionality, splitting strategy,
// threshold scale and replication — the regimes where bucket-placement
// bookkeeping could silently drift.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "mlight/index.h"
#include "workload/queries.h"

namespace mlight {
namespace {

using common::Point;
using common::Rect;
using common::Rng;
using index::Oracle;
using index::Record;

struct GridParams {
  std::size_t dims;
  core::SplitStrategy strategy;
  std::size_t theta;       // thetaSplit (epsilon = 0.7 * theta)
  std::size_t replication;
  std::uint64_t seed;
};

class InvariantGridTest : public ::testing::TestWithParam<GridParams> {};

TEST_P(InvariantGridTest, MixedWorkloadHoldsAllInvariants) {
  const GridParams p = GetParam();
  dht::Network net(48, p.seed);
  core::MLightConfig cfg;
  cfg.dims = p.dims;
  cfg.strategy = p.strategy;
  cfg.thetaSplit = p.theta;
  cfg.thetaMerge = p.theta / 2;
  cfg.epsilon = 0.7 * static_cast<double>(p.theta);
  cfg.maxEdgeDepth = 18;
  cfg.replication = p.replication;
  core::MLightIndex index(net, cfg);
  Oracle oracle;
  Rng rng(p.seed * 31 + 7);
  std::vector<Record> alive;
  std::uint64_t nextId = 0;

  for (int op = 0; op < 900; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.60 || alive.empty()) {
      Record r;
      r.key = Point(p.dims);
      for (std::size_t d = 0; d < p.dims; ++d) {
        r.key[d] = rng.chance(0.5)
                       ? rng.uniform()
                       : std::clamp(rng.gaussian(0.7, 0.03), 0.0, 0.999999);
      }
      r.id = nextId++;
      index.insert(r);
      oracle.insert(r);
      alive.push_back(r);
    } else if (dice < 0.80) {
      const std::size_t pick = rng.below(alive.size());
      const Record victim = alive[pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_EQ(index.erase(victim.key, victim.id),
                oracle.erase(victim.key, victim.id));
    } else if (dice < 0.97) {
      // continue inserting — bias toward growth so splits happen
      Record r;
      r.key = Point(p.dims);
      for (std::size_t d = 0; d < p.dims; ++d) r.key[d] = rng.uniform();
      r.id = nextId++;
      index.insert(r);
      oracle.insert(r);
      alive.push_back(r);
    } else if (net.livePhysicalCount() > 24) {
      net.removePeer(net.peers()[rng.below(net.peerCount())]);
    } else {
      net.addPeer("grid-joiner-" + std::to_string(op));
    }
  }

  // Structural invariants (bijection, tiling, counts, ownership).
  index.checkInvariants();
  ASSERT_EQ(index.size(), oracle.size());

  // Threshold discipline: no bucket over theta under the threshold
  // strategy (depth cap aside; maxEdgeDepth=18 is never hit here).
  if (p.strategy == core::SplitStrategy::kThreshold) {
    index.store().forEach([&](const auto&, const core::LeafBucket& b,
                              auto) {
      EXPECT_LE(b.recordCount(), p.theta);
    });
  }

  // Queries agree with the oracle.
  for (const Rect& q :
       workload::uniformRangeQueries(8, p.dims, 0.15, p.seed + 5)) {
    auto got = index.rangeQuery(q).records;
    Oracle::sortById(got);
    ASSERT_EQ(got, oracle.rangeQuery(q));
    // And the aggregate count matches the full query.
    EXPECT_EQ(index.rangeCount(q).count, got.size());
  }

  // No data was lost (replication only matters under *crashes*, which
  // this grid does not inject — see replication_test.cpp for those).
  EXPECT_EQ(index.store().lostBuckets(), 0u);
}

std::vector<GridParams> gridParams() {
  std::vector<GridParams> out;
  std::uint64_t seed = 500;
  for (std::size_t dims : {1u, 2u, 3u}) {
    for (const auto strategy :
         {core::SplitStrategy::kThreshold, core::SplitStrategy::kDataAware}) {
      for (std::size_t theta : {8u, 40u}) {
        out.push_back(GridParams{dims, strategy, theta, 1, seed++});
      }
    }
  }
  // Replication corners at 2-D.
  out.push_back(
      GridParams{2, core::SplitStrategy::kThreshold, 12, 2, seed++});
  out.push_back(
      GridParams{2, core::SplitStrategy::kDataAware, 12, 3, seed++});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantGridTest, ::testing::ValuesIn(gridParams()),
    [](const ::testing::TestParamInfo<GridParams>& paramInfo) {
      const auto& p = paramInfo.param;
      return "dims" + std::to_string(p.dims) +
             (p.strategy == core::SplitStrategy::kDataAware ? "_aware"
                                                            : "_threshold") +
             "_theta" + std::to_string(p.theta) + "_r" +
             std::to_string(p.replication);
    });

}  // namespace
}  // namespace mlight
