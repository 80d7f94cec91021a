// Lookup-hint caching for over-DHT indexes.
//
// m-LIGHT's point lookup pays ~ceil(log2 D) sequential DHT-lookups (the
// §5 binary search over label prefixes) on every operation, yet the tree
// depth along a client's hot region barely moves between queries.  A
// LabelHintCache remembers, per initiating peer, the last observed leaf
// label (and its local tree depth) for every cell the peer has touched,
// so the next lookup of a covered point issues a single direct probe and
// only falls back to a *seeded* binary search when the probe discovers
// the hint went stale (a split or merge moved the leaf).
//
// Design rules:
//  * hints are advisory, never authoritative — staleness is detected at
//    the probed owner (the bucket found there is off the point's path,
//    or no bucket is stored under the key any more) and repaired in
//    place by the regular search seeded from the hint's depth.  There is
//    no invalidation protocol to get wrong under churn; a stale hint
//    costs O(log Δdepth) extra probes, never a wrong answer;
//  * the cache is bounded (LRU, per-dimension capacity) so a client
//    scanning the whole space cannot grow memory without limit;
//  * hints serialize through the shared serde layer: the hint-probe RPC
//    carries the tested hint on the wire so the owner-side verdict works
//    from the wire copy like every other handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitstring.h"
#include "common/digest.h"
#include "common/label_table.h"
#include "common/serde.h"

namespace mlight::cache {

/// One cached resolution: the leaf label last seen covering a cell plus
/// the local tree depth observed with it.  `depth` is the index's own
/// depth notion (edge depth for m-LIGHT labels, prefix length for PHT
/// tries) — the cache never interprets it, it only stores and ships it.
struct LabelHint {
  mlight::common::BitString leaf;
  std::uint32_t depth = 0;
  /// Read-replica routing info for the leaf (query-load balancing,
  /// docs/COST_MODEL.md "Query-load balancing"): the DHT placement salts
  /// of every copy-holder, parallel to a coarse load signal per holder
  /// observed when the hint was learned.  Empty for unboosted leaves —
  /// and the wire image of an empty set is byte-identical to the
  /// pre-replica hint format, so balancing-off traffic is unchanged.
  std::vector<std::uint32_t> replicaSalts;
  std::vector<std::uint32_t> replicaLoads;

  std::size_t wireSize() const noexcept {
    return 4 + 8 * ((leaf.size() + 63) / 64) + 4 +
           (replicaSalts.empty() ? 0 : 4 + 8 * replicaSalts.size());
  }
  void serialize(mlight::common::Writer& w) const {
    w.writeBitString(leaf);
    w.writeU32(depth);
    if (!replicaSalts.empty()) {
      w.writeU32(static_cast<std::uint32_t>(replicaSalts.size()));
      for (std::size_t i = 0; i < replicaSalts.size(); ++i) {
        w.writeU32(replicaSalts[i]);
        w.writeU32(i < replicaLoads.size() ? replicaLoads[i] : 0);
      }
    }
  }
  /// The replica block is optional-by-presence: a hint is always the
  /// last field of its enclosing frame, so "more bytes remain" means the
  /// block was written.
  static LabelHint deserialize(mlight::common::Reader& r) {
    LabelHint h;
    h.leaf = r.readBitString();
    h.depth = r.readU32();
    if (!r.atEnd()) {
      const std::uint32_t n = r.readCount(8);
      h.replicaSalts.reserve(n);
      h.replicaLoads.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        h.replicaSalts.push_back(r.readU32());
        h.replicaLoads.push_back(r.readU32());
      }
    }
    return h;
  }
};

/// Reads the MLIGHT_CACHE environment variable: "0" / "off" / "false"
/// disable, "1" / "on" / "true" / "yes" enable, unset/empty falls back —
/// how CI runs whole suites cache-on without touching code.  Any other
/// value throws common::CheckFailure (same contract as
/// dht::faultSeedFromEnv) instead of silently enabling the cache.
bool cacheEnabledFromEnv(bool fallback = false);

/// Cache knobs shared by every index backend.  Off by default (the
/// cache-off path must stay bit-identical to a build without the cache
/// subsystem — goldens, replay suites) unless MLIGHT_CACHE turns whole
/// runs on from the environment.
struct CachePolicy {
  bool enabled = cacheEnabledFromEnv(false);
  /// LRU bound per data dimension: a cache holds at most
  /// perDimCapacity * dims hints (deeper trees in higher dimensions get
  /// proportionally more room).
  std::size_t perDimCapacity = 1024;
};

/// Bounded LRU of LabelHints keyed by the observed leaf label.
///
/// Lookup is by *coverage*: findCovering(fullPath) returns the deepest
/// cached hint whose leaf label is a prefix of the query point's full
/// path label.  Cells are fixed geometry, so a covering label observed
/// for any point of the cell stays on the path of every point of the
/// cell forever — only its leaf-ness can go stale.  The walk probes
/// candidate prefix lengths deepest-first, skipping lengths for which
/// the cache holds no hint at all (a per-length occupancy count), so a
/// miss costs O(distinct hint lengths), not O(path length) hash lookups.
///
/// Layout (docs/COST_MODEL.md "Lookup cache (hints)"): one flat arena
/// per peer, a few words per hint and no per-hint allocation.
///  * table_ (common::LabelTable, the same label directory the store
///    uses) maps each cached label to a dense slot and holds its words,
///    its length and a Slot payload: u32 LRU links (prev/next, with
///    head_ the most recently used), depth and a replica block
///    reference.  Nothing iterates the table: digestState walks the LRU
///    links, so hash order never reaches a digest;
///  * replica salts/loads live in a side vector of blocks (with a free
///    list) that only hints for boosted leaves reference.
class LabelHintCache {
 public:
  using Label = mlight::common::BitString;

  LabelHintCache(std::size_t dims, const CachePolicy& policy)
      : capacity_(policy.perDimCapacity * dims) {}

  std::size_t size() const noexcept { return table_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Deepest cached hint covering `fullPath` (nullptr on miss).  Touches
  /// the hint's LRU position.  The pointer refers to a per-cache copy
  /// that the next findCovering/learn/forget call may overwrite —
  /// callers copy the hint before repairing.
  const LabelHint* findCovering(const Label& fullPath);

  /// Records (or refreshes) the hint for `leaf`; evicts the
  /// least-recently-used hint when full.  `replicaSalts`/`replicaLoads`
  /// attach read-replica routing info (empty = none; a refresh
  /// overwrites the stored set, so demoted leaves shed their replica
  /// block on the next learn).  Returns true when an LRU victim was
  /// evicted to make room — callers meter that through
  /// dht::Network::noteHintEviction so cache pressure shows up in
  /// CostMeter::hintEvictions.
  bool learn(const Label& leaf, std::uint32_t depth,
             std::vector<std::uint32_t> replicaSalts = {},
             std::vector<std::uint32_t> replicaLoads = {});

  /// Drops the hint for `leaf`, if cached.  Called on stale detection:
  /// a repaired lookup must forget the old leaf before learning the new
  /// one, or a dead deeper label would keep shadowing the live shallower
  /// one in findCovering after a merge.
  void forget(const Label& leaf);

  /// Test hook: inject a hint verbatim (poisoned-hint negative tests).
  void poison(const Label& leaf, std::uint32_t depth) { learn(leaf, depth); }

  /// Bytes held by the cache's arrays (vector capacities, not sizes) —
  /// a read-only gauge next to size(), not a cost meter.
  std::size_t memoryBytes() const noexcept;

  /// Feeds the cached hints *in LRU order* into `d`.  Recency order is
  /// part of the fingerprint on purpose: it decides future evictions and
  /// therefore future cache-hit traffic, so two runs that are
  /// digest-equal here will also meter identically from now on.
  void digestState(mlight::common::Digest& d) const;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t depth = 0;
    std::uint32_t replica = 0;  ///< replicas_ index + 1; 0 = no block
  };
  struct ReplicaBlock {
    std::vector<std::uint32_t> salts;
    std::vector<std::uint32_t> loads;
  };

  std::size_t capacity_;
  mlight::common::LabelTable<Slot> table_;
  std::uint32_t head_ = kNil;  ///< most recently used
  std::uint32_t tail_ = kNil;  ///< least recently used
  std::vector<ReplicaBlock> replicas_;
  std::vector<std::uint32_t> freeReplicas_;
  /// lengthCount_[len] = number of cached hints with a len-bit label.
  std::vector<std::uint32_t> lengthCount_;
  /// findCovering's result, refilled on every hit.
  LabelHint hit_;

  void unlink(std::uint32_t slot) noexcept;
  void pushFront(std::uint32_t slot) noexcept;
  void dropSlot(std::uint32_t slot);
  void setReplica(std::uint32_t slot, std::vector<std::uint32_t>&& salts,
                  std::vector<std::uint32_t>&& loads);
};

/// Per-peer hint caches: hints belong to the *initiating* peer of the
/// query that observed them (a client-side cache — what a deployed node
/// would keep next to its DHT routing table).  Keyed by raw ring
/// position value so this layer stays independent of the dht module.
class HintCacheSet {
 public:
  HintCacheSet(std::size_t dims, CachePolicy policy)
      : dims_(dims), policy_(policy) {}

  const CachePolicy& policy() const noexcept { return policy_; }
  bool enabled() const noexcept { return policy_.enabled; }

  LabelHintCache& forPeer(std::uint64_t peer) {
    auto it = caches_.find(peer);
    if (it == caches_.end()) {
      it = caches_.emplace(peer, LabelHintCache(dims_, policy_)).first;
    }
    return it->second;
  }

  /// Total hints cached across all peers (introspection).
  std::size_t totalHints() const noexcept {
    std::size_t n = 0;
    // DET-ALLOW(commutative sum of sizes; feeds introspection only)
    for (const auto& [peer, cache] : caches_) n += cache.size();
    return n;
  }
  /// Bytes held by every peer's cache arrays (introspection; see
  /// LabelHintCache::memoryBytes).
  std::size_t memoryBytes() const noexcept {
    std::size_t n = 0;
    // DET-ALLOW(commutative sum of sizes; feeds introspection only)
    for (const auto& [peer, cache] : caches_) n += cache.memoryBytes();
    return n;
  }
  std::size_t peerCount() const noexcept { return caches_.size(); }

  /// Digests every peer's cache in ascending peer order (sorted
  /// snapshot; see LabelHintCache::digestState for why LRU order is
  /// included).
  void digestState(mlight::common::Digest& d) const {
    d.feed(caches_.size());
    for (const std::uint64_t peer : mlight::common::sortedKeys(caches_)) {
      d.feed(peer);
      caches_.find(peer)->second.digestState(d);
    }
  }

 private:
  std::size_t dims_;
  CachePolicy policy_;
  std::unordered_map<std::uint64_t, LabelHintCache> caches_;
};

}  // namespace mlight::cache
