// The §5 locate shared by m-LIGHT and its PHT comparator: a galloping
// binary search over the prefix lengths of a point's full path label,
// one DHT-lookup per probe, with the optional label-hint cache in front.
//
// Both indexes run the same algorithm; they differ only in how a depth
// becomes a DHT key, how far a NULL probe cuts the window, which bucket
// answers the search, and what depth a hint remembers.  Each index hands
// those four facts in as a compile-time Shape:
//
//   struct Shape {
//     using Bucket = ...;  // the DistributedStore bucket type
//     // DHT key probed for candidate depth t.
//     Label probeKey(const Label& full, std::size_t t) const;
//     // New upper bound after `key` (probed for depth t) came back
//     // NULL; audits that the cut is sound first.
//     std::size_t nullCut(const Label& key, std::size_t t) const;
//     // The leaf label when `bucket`, found under `key`, covers `full`;
//     // nullptr when it is an internal node or off-path.
//     const Label* covering(const Label& full, const Label& key,
//                           const Bucket& bucket) const;
//     // Depth a learned hint for `leaf` remembers (the t it re-probes).
//     std::uint32_t hintDepth(const Label& leaf) const;
//   };
//
// No virtual call and no type erasure sit in the probe loop, so each
// index's search inlines as if written out by hand.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cache/hint_cache.h"
#include "common/bitstring.h"
#include "common/invariants.h"
#include "common/replica_copy.h"
#include "dht/id.h"
#include "dht/network.h"
#include "dht/rpc.h"
#include "store/distributed_store.h"

namespace mlight::index {

using Label = mlight::common::BitString;

/// Outcome of one locate.
struct Located {
  /// True when a probe went unanswered (crash loss / exhausted retries):
  /// the search cannot tell NULL from unreachable, so it gives up and
  /// `key`/`leaf` stay empty.  The store already counted the failed read.
  bool failed = false;
  Label key;   ///< DHT key the covering leaf was found under.
  Label leaf;  ///< Label of the leaf covering the probed point.
  mlight::dht::RingId owner;
  std::size_t probes = 0;
  double ms = 0.0;  ///< accumulated routing latency (sequential probes)
};

/// One probe of a lookup or range query, in issue order.  Rounds start
/// at 1; sequential binary-search probes each get their own round.
struct TraceEvent {
  std::size_t round = 0;
  Label key;        ///< DHT key probed
  Label foundLeaf;  ///< label of the bucket found (empty on NULL)
  bool hit = false;
};

template <class Shape>
class PrefixLocate {
 public:
  using Bucket = typename Shape::Bucket;
  using Store = mlight::store::DistributedStore<Bucket>;

  /// `trace` (may be null) receives one TraceEvent per metered probe.
  PrefixLocate(Shape shape, Store& store, mlight::dht::Network& net,
               mlight::cache::HintCacheSet& hints,
               std::vector<TraceEvent>* trace = nullptr)
      : shape_(std::move(shape)),
        store_(store),
        net_(net),
        hints_(hints),
        trace_(trace) {}

  /// Point location: the search over depths [0, hi].  `roundBase` is the
  /// RPC round of the first probe — a caller continuing an existing
  /// chain (the range query's NULL-at-LCA fallback) passes the next
  /// depth so the timeline counts these probes as further rounds.
  ///
  /// With the hint cache enabled, the deepest cached leaf covering `full`
  /// is probed first (one kHintProbe DHT-lookup on a live hint, metered
  /// as CostMeter::cacheHits); a stale hint (metered as staleHints)
  /// continues the search inside the window its probe cut.  Every answer
  /// is learned, and at the paranoid level audited against peek().  With
  /// the cache disabled this is the plain search — same probes, same
  /// rounds, same trace.
  Located locate(mlight::dht::RingId initiator, const Label& full,
                 std::size_t hi, std::uint32_t roundBase) const {
    Window window;
    window.hi = hi;
    if (!hints_.enabled()) {
      return search(initiator, full, std::move(window), roundBase, {});
    }
    mlight::cache::LabelHintCache& cache = hints_.forPeer(initiator.value);
    const mlight::cache::LabelHint* cached = cache.findCovering(full);
    Located result;
    if (cached == nullptr) {
      // Cold cell: the plain search, plus learning its answer below.
      result = search(initiator, full, std::move(window), roundBase, {});
    } else {
      // A caller-capped window (the range query's NULL-at-LCA fallback)
      // already proves the leaf is shallow; clamp a deeper hint to it —
      // any on-path probe depth is sound, so the clamped probe still
      // verifies or refutes the hint.  The probe carries only its key;
      // the verdict is taken here, from the bucket it returns.
      const std::size_t t0 = std::min<std::size_t>(cached->depth, window.hi);
      const std::size_t salt =
          t0 == cached->depth ? leastLoadedSalt(cached->route) : 0;
      // Copied before any repair: learn/forget invalidate the pointer.
      const Label usedLeaf = cached->leaf;
      const Label probeKey = shape_.probeKey(full, t0);
      const auto probed =
          store_.accessAndFind(mlight::dht::RpcKind::kHintProbe, initiator,
                               probeKey, roundBase, {}, salt);
      if (probed.failed) {
        result.failed = true;
        return result;
      }
      ++result.probes;
      result.ms += probed.ms;
      traceProbe(result.probes, probeKey, probed.bucket);
      const Label* leaf =
          probed.bucket != nullptr
              ? shape_.covering(full, probeKey, *probed.bucket)
              : nullptr;
      if (leaf != nullptr) {
        // Live hint: the whole binary search collapsed into this probe.
        // The leaf found may still differ from the remembered label —
        // after an m-LIGHT split one child keeps the parent's DHT key
        // (Theorem 5), so the stale *label* resolves in one probe
        // anyway; refresh it below.
        net_.noteCacheHit();
        result.key = probeKey;
        result.leaf = *leaf;
        result.owner = probed.owner;
        if (result.leaf != usedLeaf) cache.forget(usedLeaf);
      } else {
        // Stale hint: split/merge moved the leaf.  Forget it and repair
        // in place — the search continues inside the window the failed
        // probe already cut, so a hint that drifted by Δdepth levels
        // costs O(log Δdepth) extra probes, never a wrong answer.
        net_.noteStaleHint();
        cache.forget(usedLeaf);
        if (probed.bucket == nullptr) {
          // The tree got shallower here (merge): the standard NULL cut.
          window.hi = shape_.nullCut(probeKey, t0);
        } else {
          // The tree grew below the hint (split): the leaf is deeper
          // than t0.  Gallop upward from the hint instead of bisecting
          // the whole remaining window — splits move depth by a few
          // levels, so the target is almost always just past the hint.
          window.lo = t0 + 1;
          window.gallop = true;
        }
        mlight::common::auditLookupSearchBounds(window.lo, window.hi);
        window.probedKeys.push_back(probeKey);
        result = search(initiator, full, std::move(window), roundBase,
                        std::move(result));
      }
    }
    if (result.failed) return result;
    // Learn the answer, with the replica route the reply piggybacks
    // (read at this quiescent point — every probe's facade pumped the
    // loop dry), so the next read of this leaf self-balances toward the
    // then-coldest copy.
    if (cache.learn(result.leaf, shape_.hintDepth(result.leaf),
                    store_.replicaReadInfo(result.key))) {
      net_.noteHintEviction();
    }
    if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
      mlight::common::auditCacheCoherence(result.leaf, peek(full, hi));
    }
    return result;
  }

  /// Unmetered replica of the binary search over the store's peek() —
  /// the paranoid-audit oracle proving a cached locate resolved to the
  /// leaf the uncached search finds.  Deliberately a loop of its own,
  /// not search(): it is the reference search() is checked against.
  /// Empty label when the search dead-ends (possible only on a
  /// structurally broken tree).
  Label peek(const Label& full, std::size_t hi) const {
    std::size_t lo = 0;
    std::vector<Label> probedKeys;
    while (lo <= hi) {
      const std::size_t t = lo + (hi - lo) / 2;
      const Label key = shape_.probeKey(full, t);
      if (std::find(probedKeys.begin(), probedKeys.end(), key) !=
          probedKeys.end()) {
        lo = t + 1;
        continue;
      }
      probedKeys.push_back(key);
      const Bucket* bucket = std::as_const(store_).peek(key);
      if (bucket == nullptr) {
        hi = shape_.nullCut(key, t);
      } else if (const Label* leaf = shape_.covering(full, key, *bucket)) {
        return *leaf;
      } else {
        lo = t + 1;
      }
    }
    return Label{};
  }

 private:
  /// The search window: candidate depths [lo, hi], whether to gallop up
  /// from `lo` before bisecting, and the DHT keys already answered (a
  /// repeated key needs no second probe).
  struct Window {
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool gallop = false;
    std::vector<Label> probedKeys;
  };

  /// The binary search for the leaf on `full`'s path inside `window`,
  /// continuing `result` (probe count, latency).  Meters one DHT-lookup
  /// per probe; probes are sequential, the first at round `roundBase +
  /// result.probes`.  A NULL probe cuts the window at the shape's NULL
  /// cut; an unanswered probe gives up with `failed` set.
  Located search(mlight::dht::RingId initiator, const Label& full,
                 Window window, std::uint32_t roundBase,
                 Located result) const {
    std::size_t& lo = window.lo;
    std::size_t& hi = window.hi;
    std::size_t step = 1;
    for (;;) {
      std::size_t t;
      if (window.gallop) {
        t = std::min(lo + step - 1, hi);
        step *= 2;
        if (t == hi) window.gallop = false;  // window exhausted: bisect
      } else {
        t = lo + (hi - lo) / 2;
      }
      const Label key = shape_.probeKey(full, t);
      // Distinct depths can share a key (m-LIGHT names every candidate
      // in (|f_md(λ)|, |λ|] to f_md(λ)); a repeated key needs no second
      // DHT-lookup, the earlier answer is definitive.  (Only hit-but-
      // off-path keys can repeat: a NULL key caps `hi` below any depth
      // that could map to it again.)
      if (std::find(window.probedKeys.begin(), window.probedKeys.end(),
                    key) != window.probedKeys.end()) {
        lo = t + 1;
        mlight::common::auditLookupSearchBounds(lo, hi);
        continue;
      }
      const auto found = store_.routeAndFind(
          initiator, key,
          roundBase + static_cast<std::uint32_t>(result.probes));
      if (found.failed) {
        result.failed = true;
        return result;
      }
      window.probedKeys.push_back(key);
      ++result.probes;
      result.ms += found.ms;
      traceProbe(result.probes, key, found.bucket);
      if (found.bucket == nullptr) {
        // `key` is not in the tree, so the leaf on this path is no deeper
        // than the shape's cut (for m-LIGHT often far below t-1: this is
        // where it beats a plain prefix binary search).
        hi = shape_.nullCut(key, t);
        assert(hi < t || t == 0);
        window.gallop = false;  // the depth direction reversed: bisect
      } else if (const Label* leaf =
                     shape_.covering(full, key, *found.bucket)) {
        result.key = key;
        result.leaf = *leaf;
        result.owner = found.owner;
        return result;
      } else {
        // An internal node, or (m-LIGHT) a key whose named leaf is off
        // the path: the leaf is deeper than t.
        lo = t + 1;
      }
      mlight::common::auditLookupSearchBounds(lo, hi);
    }
  }

  /// Least-loaded replica routing (query-load balancing): a hint learned
  /// for a boosted leaf carries its replica route with the loads observed
  /// at learn time — probe the copy with the smallest load, ties broken
  /// toward the lowest replica index (strict < keeps the first minimum).
  /// Callers use it only when the probe key is the hint's own key: under
  /// a caller-capped window the probe targets an ancestor, whose copy set
  /// the hint knows nothing about.
  static std::size_t leastLoadedSalt(
      std::span<const mlight::common::ReplicaCopy> route) {
    std::size_t salt = 0;
    std::uint32_t bestLoad = ~std::uint32_t{0};
    for (const mlight::common::ReplicaCopy& copy : route) {
      if (copy.load < bestLoad) {
        bestLoad = copy.load;
        salt = copy.salt;
      }
    }
    return salt;
  }

  void traceProbe(std::size_t round, const Label& key,
                  const Bucket* bucket) const {
    if (trace_ == nullptr) return;
    trace_->push_back(TraceEvent{
        round, key, bucket != nullptr ? bucket->label : Label{},
        bucket != nullptr});
  }

  Shape shape_;
  Store& store_;
  mlight::dht::Network& net_;
  mlight::cache::HintCacheSet& hints_;
  std::vector<TraceEvent>* trace_;
};

}  // namespace mlight::index
