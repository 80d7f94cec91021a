// One per-operation statistics bracket for every index's reads.
#pragma once

#include <cstddef>

#include "dht/network.h"
#include "index/types.h"

namespace mlight::index {

/// Brackets one operation: opens the simulated timeline, freezes the
/// store's read routes (a no-op unless load balancing is on), snapshots
/// its failed reads and the network's running cost; finish() reports the
/// operation into a QueryStats (see QueryStats for what the fields mean).
template <typename Store>
class OpStats {
 public:
  OpStats(mlight::dht::Network& net, Store& store)
      : net_(net),
        store_(store),
        t0_(net.beginTimeline()),
        failedBefore_(openReads(store)),
        before_(net.totalCost()) {}

  /// Cost, deepest round, elapsed simulated time and failed reads since
  /// construction.
  void finish(QueryStats& stats) const {
    stats.cost = net_.totalCost() - before_;
    stats.rounds = net_.timelineMaxRound();
    stats.latencyMs = net_.now() - t0_;
    stats.failedProbes = store_.failedReads() - failedBefore_;
  }

 private:
  static std::size_t openReads(Store& store) {
    store.refreshReadRouting();
    return store.failedReads();
  }

  const mlight::dht::Network& net_;
  const Store& store_;
  double t0_;
  std::size_t failedBefore_;
  mlight::dht::CostMeter before_;
};

}  // namespace mlight::index
