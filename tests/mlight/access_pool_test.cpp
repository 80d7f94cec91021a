// The store's access-state pool: every access takes a state from a free
// list and gives it back when it resolves, so the pool settles at the
// peak number of accesses in flight and a steady workload stops growing
// it — the range cascade's probes allocate no state of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/geometry.h"
#include "common/invariants.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace mlight::core {
namespace {

using mlight::common::Rect;
using mlight::dht::Network;

/// Pins the audit level for one scope.  Lossy runs lose buckets for
/// real, so the whole-index audits that paranoid runs after every write
/// would fire on the damage itself; they stay at boundaries.
class ScopedLevel {
 public:
  explicit ScopedLevel(mlight::common::AuditLevel level)
      : previous_(mlight::common::auditLevel()) {
    mlight::common::setAuditLevel(level);
  }
  ~ScopedLevel() { mlight::common::setAuditLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  mlight::common::AuditLevel previous_;
};

TEST(AccessStatePool, SizeEqualsPeakInFlightAfterRangeQueries) {
  Network net(128, 9);
  MLightConfig cfg;
  cfg.lookahead = 2;
  MLightIndex index(net, cfg);
  const auto& store = index.store();
  // The count rises only when accesses are issued and falls only inside
  // handlers, after the trace has seen the delivery; every issued access
  // is delivered later, so the largest count seen at a delivery is the
  // true peak.
  std::size_t peak = 0;
  net.setRpcTrace([&](const mlight::dht::RpcDelivery&) {
    peak = std::max(peak, store.accessesInFlight());
  });
  index.bulkLoad(mlight::workload::northeastDataset(20000, 10));
  std::vector<Rect> queries;
  for (const double area : {1e-4, 1e-3, 1e-2, 5e-2}) {
    const auto some = mlight::workload::uniformRangeQueries(250, 2, area, 11);
    queries.insert(queries.end(), some.begin(), some.end());
  }
  ASSERT_EQ(queries.size(), 1000u);
  std::size_t answered = 0;
  for (const Rect& q : queries) {
    answered += index.rangeQuery(q).records.size();
    ASSERT_EQ(store.accessesInFlight(), 0u);
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(peak, 1u);
  EXPECT_EQ(store.accessStatePoolSize(), peak);

  // Steady state: the same queries again take every state from the
  // free list.
  const std::size_t settled = store.accessStatePoolSize();
  for (const Rect& q : queries) {
    (void)index.rangeCount(q);
    (void)index.rangeQuery(q);
  }
  EXPECT_EQ(store.accessStatePoolSize(), settled);
  EXPECT_EQ(store.accessesInFlight(), 0u);
  net.setRpcTrace({});
}

TEST(AccessStatePool, LossyFailoverRunReturnsEveryState) {
  // Loss, two crashed holders without eager repair, and a tight retry
  // budget: accesses resolve by answering after failover, by a mourned
  // label, and by running out of candidates.  None may keep its state.
  const ScopedLevel level(mlight::common::AuditLevel::kBoundaries);
  Network net(64, 17);
  MLightConfig cfg;
  cfg.replication = 2;
  cfg.repair = mlight::store::RepairPolicy::kOnRead;
  cfg.lookahead = 2;
  cfg.thetaSplit = 40;
  cfg.thetaMerge = 20;
  MLightIndex index(net, cfg);
  const auto data = mlight::workload::northeastDataset(4000, 21);
  index.bulkLoad(std::vector<mlight::index::Record>(data.begin(),
                                                    data.begin() + 3000));
  mlight::dht::FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 0.2;
  faults.maxAttempts = 2;
  faults.seed = mlight::dht::faultSeedFromEnv(1);
  net.setFaultModel(faults);
  for (const std::size_t victim : {std::size_t{5}, std::size_t{40}}) {
    ASSERT_TRUE(net.crashPeer(net.peers()[victim]));
  }
  const auto& store = index.store();
  const auto queries = mlight::workload::uniformRangeQueries(300, 2, 0.01, 23);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    (void)index.rangeQuery(queries[i]);
    (void)index.pointQuery(data[i].key);
    index.insert(data[3000 + i]);
    ASSERT_EQ(store.accessesInFlight(), 0u) << "op " << i;
  }
  (void)index.insertBatched(
      std::vector<mlight::index::Record>(data.begin() + 3300, data.end()),
      64);
  EXPECT_EQ(store.accessesInFlight(), 0u);
  EXPECT_GT(store.failoverReads(), 0u);
  EXPECT_GT(store.failedReads(), 0u);
  EXPECT_GT(net.deadLetters().total(), 0u);
  EXPECT_GT(store.accessStatePoolSize(), 0u);
}

}  // namespace
}  // namespace mlight::core
