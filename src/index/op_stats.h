// One per-operation statistics bracket for every index's reads.
#pragma once

#include <cstddef>

#include "dht/network.h"
#include "index/types.h"

namespace mlight::index {

/// Brackets one operation: opens the simulated timeline, snapshots the
/// store's failed reads and meters all traffic while in scope; finish()
/// reports the operation into a QueryStats (see QueryStats for what the
/// fields mean).
template <typename Store>
class OpStats {
 public:
  /// `freezeReadRoutes` runs store.refreshReadRouting() once the
  /// timeline is open, before the failed-read snapshot and the meter.
  OpStats(mlight::dht::Network& net, Store& store,
          bool freezeReadRoutes = false)
      : net_(net),
        store_(store),
        t0_(net.beginTimeline()),
        failedBefore_(openReads(store, freezeReadRoutes)),
        scope_(net, meter_) {}

  /// Cost, deepest round, elapsed simulated time and failed reads since
  /// construction.
  void finish(QueryStats& stats) const {
    stats.cost = meter_;
    stats.rounds = net_.timelineMaxRound();
    stats.latencyMs = net_.now() - t0_;
    stats.failedProbes = store_.failedReads() - failedBefore_;
  }

 private:
  static std::size_t openReads(Store& store, bool freezeReadRoutes) {
    if (freezeReadRoutes) store.refreshReadRouting();
    return store.failedReads();
  }

  mlight::dht::Network& net_;
  const Store& store_;
  double t0_;
  std::size_t failedBefore_;
  mlight::dht::CostMeter meter_;
  mlight::dht::MeterScope scope_;
};

}  // namespace mlight::index
