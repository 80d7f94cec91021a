// Cost accounting for the simulated DHT.
//
// The paper's metrics are counts, not wall-clock times: number of
// DHT-lookups (bandwidth), rounds of DHT-lookups (latency), and amount of
// data moved (maintenance).  The network charges every cost once, into
// its running total (Network::totalCost()); a meter for an operation or
// a group of them is the difference of that total across it
// (MeterScope, index::OpStats), so meters nest and add up exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/digest.h"

namespace mlight::dht {

struct CostMeter {
  /// Routed key resolutions ("DHT-lookup" in the paper).
  std::uint64_t lookups = 0;
  /// Overlay hops taken by all lookups (finger routing).
  std::uint64_t hops = 0;
  /// Payload bytes shipped between *distinct* peers.
  std::uint64_t bytesMoved = 0;
  /// Data records shipped between distinct peers.
  std::uint64_t recordsMoved = 0;
  /// RPC envelopes sent through the event core.  Distinct from lookups:
  /// every envelope is routed (so messages <= lookups op-by-op only when
  /// legacy lookup() is never used), and payload piggybacks on the
  /// envelope rather than counting a message of its own.
  std::uint64_t messages = 0;
  /// Envelope retransmissions issued by the reliable-RPC layer after a
  /// timeout (fault injection only — always 0 with faults disabled).
  /// Retransmissions re-route on the current ring, so each retry also
  /// adds one lookup + hops; `messages` is *not* incremented again (it
  /// counts logical envelopes, see docs/COST_MODEL.md "Fault model").
  std::uint64_t retries = 0;
  /// Hint probes that landed on a live leaf covering the query point: the
  /// whole binary search collapsed to the one lookup already counted in
  /// `lookups` (cacheHits never adds lookups of its own — see
  /// docs/COST_MODEL.md "Lookup cache").
  std::uint64_t cacheHits = 0;
  /// Hint probes that found their leaf gone (split/merge moved it); each
  /// one pays the probe plus an O(log Δdepth) seeded repair search, all
  /// metered in `lookups` as usual.
  std::uint64_t staleHints = 0;
  /// LRU evictions in the label-hint caches: a learn() that had to drop
  /// the coldest hint to make room.  Cache pressure made visible — a
  /// steadily climbing eviction count at flat occupancy means the
  /// working set exceeds CachePolicy::perDimCapacity.  (Occupancy itself
  /// is a gauge, not a flow, so it is reported via
  /// HintCacheSet::totalHints() instead of this meter.)
  std::uint64_t hintEvictions = 0;

  /// Feeds every counter into a state digest (fixed field order).  All
  /// counters are commutative sums, so a meter is digest-stable under
  /// any reordering of the operations it metered.
  void digestTo(mlight::common::Digest& d) const noexcept {
    d.feed(lookups);
    d.feed(hops);
    d.feed(bytesMoved);
    d.feed(recordsMoved);
    d.feed(messages);
    d.feed(retries);
    d.feed(cacheHits);
    d.feed(staleHints);
    d.feed(hintEvictions);
  }

  friend bool operator==(const CostMeter&, const CostMeter&) = default;

  CostMeter& operator+=(const CostMeter& other) noexcept {
    lookups += other.lookups;
    hops += other.hops;
    bytesMoved += other.bytesMoved;
    recordsMoved += other.recordsMoved;
    messages += other.messages;
    retries += other.retries;
    cacheHits += other.cacheHits;
    staleHints += other.staleHints;
    hintEvictions += other.hintEvictions;
    return *this;
  }

  friend CostMeter operator-(CostMeter a, const CostMeter& b) noexcept {
    a.lookups -= b.lookups;
    a.hops -= b.hops;
    a.bytesMoved -= b.bytesMoved;
    a.recordsMoved -= b.recordsMoved;
    a.messages -= b.messages;
    a.retries -= b.retries;
    a.cacheHits -= b.cacheHits;
    a.staleHints -= b.staleHints;
    a.hintEvictions -= b.hintEvictions;
    return a;
  }
};

/// Per-physical-peer query-load accounting (the query-side sibling of
/// Fig 6's storage-load variance): one counter per peer, incremented for
/// every RPC envelope addressed to that peer — i.e. requests the peer
/// must serve, including retransmissions.  Counters are commutative sums
/// bumped at envelope issue time, so the meter is digest-stable under
/// tie-break shuffling like every CostMeter field.
class PeerLoadMeter {
 public:
  /// One more request addressed to physical peer `peer`.
  void note(std::size_t peer) {
    if (counts_.size() <= peer) counts_.resize(peer + 1, 0);
    ++counts_[peer];
  }

  /// Requests addressed to `peer` so far (0 for peers never targeted).
  std::uint64_t countOf(std::size_t peer) const noexcept {
    return peer < counts_.size() ? counts_[peer] : 0;
  }

  /// Raw per-peer counters, indexed by physical peer.  May be shorter
  /// than the overlay's peer count — missing tails are zero.
  const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

  /// Feeds the counters in peer-index order (fixed, so digest-stable).
  void digestTo(mlight::common::Digest& d) const noexcept {
    d.feed(counts_.size());
    for (const std::uint64_t v : counts_) d.feed(v);
  }

 private:
  std::vector<std::uint64_t> counts_;  ///< indexed by physical peer
};

}  // namespace mlight::dht
