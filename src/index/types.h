// Shared result/statistics types for all over-DHT indexes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/cost.h"
#include "index/record.h"

namespace mlight::index {

/// Per-query cost report, in the paper's units:
///  * bandwidth  = number of DHT-lookups consumed (cost.lookups);
///  * latency    = rounds of DHT-lookups (§6's worked example).
///
/// Both latency figures are read off the discrete-event timeline
/// (dht::SimScheduler): every probe travels as an RPC envelope stamped
/// with its chain depth, so `rounds` is the deepest round delivered
/// during the operation — parallel fan-out at one depth shares a round,
/// sequential dependency chains (binary-search probes, saturation
/// descents, speculation fallbacks) deepen it.  `latencyMs` is the
/// elapsed simulated time: link latencies of concurrent probes overlap,
/// while each sender serializes its own burst at sendOverheadMs per
/// message — the emergent replacement for the old analytic per-wave
/// formula (see docs/COST_MODEL.md).
struct QueryStats {
  mlight::dht::CostMeter cost;
  std::size_t rounds = 0;
  /// Simulated wall-clock latency (Network::now() at quiescence minus
  /// the operation's beginTimeline() start).
  double latencyMs = 0.0;
  /// Store reads during this operation that produced no answer at all —
  /// every candidate holder timed out or had lost its copy (fault
  /// injection / crash loss).  0 means the result is complete; > 0 means
  /// parts of the key space could not be reached and the result may be
  /// short.  Always 0 with faults disabled and R large enough to cover
  /// the crash pattern.
  std::size_t failedProbes = 0;

  /// True iff no probe of this operation failed (the result is the full
  /// answer, not a partial one).
  bool complete() const noexcept { return failedProbes == 0; }

  /// Folds in a sub-operation run after this one (rounds and latency
  /// add up: the sub-operations are sequential).
  QueryStats& operator+=(const QueryStats& other) noexcept {
    cost += other.cost;
    rounds += other.rounds;
    latencyMs += other.latencyMs;
    failedProbes += other.failedProbes;
    return *this;
  }
};

/// Data moved by a prefix-tree index's maintenance, split by cause
/// (m-LIGHT and PHT; commutative sums, fed into their state digests).
struct MaintenanceBreakdown {
  std::uint64_t insertShipBytes = 0;   ///< records shipped into leaves
  std::uint64_t splitShipBytes = 0;    ///< bucket bytes re-assigned at splits
  std::uint64_t splitBucketMoves = 0;  ///< buckets re-keyed at splits
  std::uint64_t splitStayLocal = 0;    ///< children that kept the old key
  std::uint64_t mergeShipBytes = 0;    ///< bucket bytes moved at merges

  void digestTo(mlight::common::Digest& d) const noexcept {
    d.feed(insertShipBytes);
    d.feed(splitShipBytes);
    d.feed(splitBucketMoves);
    d.feed(splitStayLocal);
    d.feed(mergeShipBytes);
  }
};

/// Range query outcome: matching records plus the cost report.
struct RangeResult {
  std::vector<Record> records;
  QueryStats stats;
};

/// Point (exact-match) outcome.
struct PointResult {
  std::vector<Record> records;  ///< All records whose key equals the probe.
  QueryStats stats;
};

}  // namespace mlight::index
