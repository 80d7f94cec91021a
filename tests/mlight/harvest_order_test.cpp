// Owner-side harvest equivalence: range and region answers must come back
// with the same records, in the same order, for the same simulated cost,
// whatever shortcuts the owners take while scanning their buckets.
//
// Each configuration cell folds the *ordered* id sequence of every answer
// plus its bytesMoved and lookups into one digest, pinned to hex values
// captured from the reference harvest (per-record scope-and-region test,
// copied through a per-bucket temporary).  Answers are also checked as
// sets against the brute-force oracle, and rangeCount must agree with the
// size of rangeQuery's answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/rng.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "index/region.h"
#include "mlight/index.h"
#include "workload/datasets.h"

namespace mlight::core {
namespace {

using mlight::common::Digest;
using mlight::common::Point;
using mlight::common::Rect;
using mlight::common::Rng;
using mlight::dht::Network;
using mlight::index::BallRegion;
using mlight::index::Oracle;
using mlight::index::RangeResult;
using mlight::index::Record;

constexpr std::size_t kPeers = 128;
constexpr std::size_t kRecords = 20000;
constexpr std::size_t kSquares = 200;
constexpr std::size_t kBalls = 50;
constexpr std::uint64_t kDefaultFaultSeed = 1;

struct Cell {
  const char* name;
  std::size_t lookahead;
  std::size_t replication;
  bool cache;
  bool lossy;
  std::uint64_t want;
};

std::vector<std::uint64_t> ids(std::vector<Record> records) {
  Oracle::sortById(records);
  std::vector<std::uint64_t> out;
  out.reserve(records.size());
  for (const Record& r : records) out.push_back(r.id);
  return out;
}

bool isSubset(const std::vector<std::uint64_t>& sub,
              const std::vector<std::uint64_t>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

void feedAnswer(Digest& d, const RangeResult& res) {
  d.feed(static_cast<std::uint64_t>(res.records.size()));
  for (const Record& r : res.records) d.feed(r.id);
  d.feed(static_cast<std::uint64_t>(res.stats.cost.bytesMoved));
  d.feed(static_cast<std::uint64_t>(res.stats.cost.lookups));
}

/// Runs the fixed query mix against one configuration and returns its
/// digest; oracle and count checks run inline.
std::uint64_t runCell(const Cell& cell) {
  Network net(kPeers, 7);
  // Same-time deliveries run in one pinned order so the harvest order
  // (and with it the digest) is a property of the code, not of an
  // ambient tie-shuffle seed.
  net.setScheduleShuffleSeed(0);
  if (cell.lossy) {
    mlight::dht::FaultModel faults;
    faults.enabled = true;
    faults.lossProbability = 0.05;
    faults.seed = mlight::dht::faultSeedFromEnv(kDefaultFaultSeed);
    net.setFaultModel(faults);
  }
  MLightConfig cfg;
  cfg.lookahead = cell.lookahead;
  cfg.replication = cell.replication;
  cfg.cache.enabled = cell.cache;
  cfg.seed = 11;
  if (cell.lossy) cfg.repair = mlight::store::RepairPolicy::kOnRead;
  MLightIndex index(net, cfg);
  const auto data = mlight::workload::northeastDataset(kRecords, 5);
  index.bulkLoad(data);
  if (cell.lossy) {
    // Crash two peers without eager repair: reads of their buckets fail
    // over to the surviving copy and read-repair it mid-cascade, while
    // other owners' hits are already gathered.
    for (const std::size_t victim : {std::size_t{17}, std::size_t{90}}) {
      EXPECT_TRUE(net.crashPeer(net.peers()[victim]));
    }
  }
  Oracle oracle;
  for (const Record& r : data) oracle.insert(r);

  Digest digest;
  Rng rng(29);
  for (std::size_t q = 0; q < kSquares; ++q) {
    // Areas log-spaced from 1e-4 (a leaf or two) to 0.25 (mostly
    // covered leaves).
    const double area =
        1e-4 * std::pow(2500.0, static_cast<double>(q) / (kSquares - 1));
    const double side = std::sqrt(area);
    const double x = rng.uniform(0.0, 1.0 - side);
    const double y = rng.uniform(0.0, 1.0 - side);
    const Rect range(Point{x, y}, Point{x + side, y + side});
    const RangeResult res = index.rangeQuery(range);
    const auto count = index.rangeCount(range);
    feedAnswer(digest, res);
    digest.feed(static_cast<std::uint64_t>(count.count));
    digest.feed(static_cast<std::uint64_t>(count.stats.cost.bytesMoved));

    const auto got = ids(res.records);
    const auto want = ids(oracle.rangeQuery(range));
    if (res.stats.failedProbes == 0) {
      EXPECT_EQ(got, want) << cell.name << " square " << q;
    } else {
      EXPECT_TRUE(isSubset(got, want)) << cell.name << " square " << q;
    }
    if (res.stats.failedProbes == 0 && count.stats.failedProbes == 0) {
      EXPECT_EQ(count.count, res.records.size())
          << cell.name << " square " << q;
    }
  }
  for (std::size_t b = 0; b < kBalls; ++b) {
    const BallRegion ball(Point{rng.uniform(), rng.uniform()},
                          rng.uniform(0.01, 0.3));
    const RangeResult res = index.regionQuery(ball);
    feedAnswer(digest, res);

    std::vector<Record> brute;
    for (const Record& r : data) {
      if (ball.contains(r.key)) brute.push_back(r);
    }
    const auto got = ids(res.records);
    const auto want = ids(std::move(brute));
    if (res.stats.failedProbes == 0) {
      EXPECT_EQ(got, want) << cell.name << " ball " << b;
    } else {
      EXPECT_TRUE(isSubset(got, want)) << cell.name << " ball " << b;
    }
  }
  if (cell.lossy) {
    EXPECT_GT(index.store().failoverReads(), 0u) << cell.name;
  } else {
    index.checkInvariants();
  }
  return digest.value();
}

TEST(RegionQuery, HarvestOrderPinnedToParent) {
  const Cell cells[] = {
      {"h1/R1/nocache", 1, 1, false, false, 0x820055001b23d621},
      {"h1/R1/cache", 1, 1, true, false, 0xac13a770809ff68c},
      {"h1/R2/nocache", 1, 2, false, false, 0x820055001b23d621},
      {"h1/R2/cache", 1, 2, true, false, 0xac13a770809ff68c},
      {"h2/R1/nocache", 2, 1, false, false, 0xe9d852b0b15fc8dc},
      {"h2/R1/cache", 2, 1, true, false, 0x26e5f7c0f9fcfd19},
      {"h2/R2/nocache", 2, 2, false, false, 0xe9d852b0b15fc8dc},
      {"h2/R2/cache", 2, 2, true, false, 0x26e5f7c0f9fcfd19},
      // Lossy transport, R=2 and two crashed peers: reads fail over to
      // the surviving copy mid-cascade.  Pinned for the default fault
      // seed only; other seeds (MLIGHT_FAULT_SEED) keep the oracle
      // checks.
      {"h2/R2/lossy", 2, 2, false, true, 0xbdd594bbc95f26a1},
  };
  for (const Cell& cell : cells) {
    const std::uint64_t got = runCell(cell);
    if (cell.lossy &&
        mlight::dht::faultSeedFromEnv(kDefaultFaultSeed) !=
            kDefaultFaultSeed) {
      continue;
    }
    EXPECT_EQ(got, cell.want)
        << cell.name << " digest 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace mlight::core
