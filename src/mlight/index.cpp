#include "mlight/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"
#include "index/op_stats.h"

#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "mlight/split.h"

namespace mlight::core {

MLightIndex::MLightIndex(mlight::dht::Network& net, MLightConfig config)
    : net_(&net),
      config_(std::move(config)),
      store_(net, config_.dhtNamespace, config_.replication,
             config_.repair),
      rng_(config_.seed),
      hintCaches_(config_.dims, config_.cache) {
  if (config_.dims < 1 || config_.dims > mlight::common::kMaxDims) {
    throw std::invalid_argument("MLightIndex: dims out of range");
  }
  if (config_.thetaMerge >= config_.thetaSplit) {
    throw std::invalid_argument(
        "MLightIndex: thetaMerge must be < thetaSplit");
  }
  // Install before any placement so the bootstrap bucket, too, goes
  // through boost-aware copy resolution (a no-op while nothing is hot).
  store_.setLoadBalance(config_.loadBalance);
  if (config_.wal) {
    // Attach before the bootstrap placement so the root bucket is framed
    // too — the log must cover every placement ever applied.
    wal_ = std::make_unique<mlight::wal::WalSet>(config_.walDir,
                                                 config_.seed);
    store_.attachWal(wal_.get());
  }
  // Bootstrap: a single leaf # named to the virtual root.  Index creation
  // is not part of any measured workload, so the bucket is placed locally.
  const Label rootKey = naming(rootLabel(config_.dims), config_.dims);
  store_.placeLocal(rootKey, LeafBucket(rootLabel(config_.dims)));
  net_->run();  // deliver bootstrap replica envelopes, if any
}

mlight::dht::RingId MLightIndex::randomPeer() {
  const auto& peers = net_->peers();
  return peers[rng_.below(peers.size())];
}

MLightIndex::Located MLightIndex::search(mlight::dht::RingId initiator,
                                         const Label& full, Window window,
                                         std::uint32_t roundBase,
                                         Located result) {
  const std::size_t m = config_.dims;
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
    // Name the candidate prefix without materializing it: f_md's result
    // is itself a prefix of `full`, so one length computation + one
    // prefix() replaces two temporary labels per probe.
    const Label key = full.prefix(namedPrefixLength(full, m + 1 + t, m));
    // Distinct candidates can share a name (every candidate in
    // (|f_md(λ)|, |λ|] names to f_md(λ)); a repeated key needs no second
    // DHT-lookup, the earlier answer is definitive.  (Only hit-but-off-
    // path keys can repeat: a NULL key caps `hi` below any candidate that
    // could name to it again.)
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
      // No holder of this probe key answered (crash loss / exhausted
      // retries): the search cannot distinguish NULL from unreachable,
      // so give up rather than mis-navigate.  Callers detect the empty
      // leaf; the store already counted the failed read.
      result.key = Label{};
      result.leaf = Label{};
      return result;
    }
    window.probedKeys.push_back(key);
    ++result.probes;
    result.ms += found.ms;
    if (trace_ != nullptr) {
      trace_->push_back(TraceEvent{
          result.probes, key,
          found.bucket != nullptr ? found.bucket->label : Label{},
          found.bucket != nullptr});
    }
    if (found.bucket == nullptr) {
      // `key` is not an internal node, so the leaf on this path is no
      // deeper than key; the NULL probe can cut far below t-1 (this is
      // where m-LIGHT beats a plain prefix binary search).
      assert(key.size() >= m + 1 && "virtual-root bucket must exist");
      hi = edgeDepth(key, m);
      assert(hi < t || t == 0);
      window.gallop = false;  // the depth direction reversed: bisect
    } else if (found.bucket->label.isPrefixOf(full)) {
      result.key = key;
      result.leaf = found.bucket->label;
      result.owner = found.owner;
      return result;
    } else {
      // `key` is internal and its named leaf is off-path: every candidate
      // in (edgeDepth(key), t] shares the same name, so none is the leaf.
      lo = t + 1;
    }
    mlight::common::auditLookupSearchBounds(lo, hi);
  }
}

MLightIndex::Located MLightIndex::locateCached(mlight::dht::RingId initiator,
                                               const Point& p,
                                               std::size_t hiCap,
                                               std::uint32_t roundBase) {
  const std::size_t m = config_.dims;
  const Label full = pointPathLabel(p, m, config_.maxEdgeDepth);
  Window window;
  window.hi = std::min(config_.maxEdgeDepth, hiCap);
  if (!config_.cache.enabled) {
    return search(initiator, full, std::move(window), roundBase, Located{});
  }
  mlight::cache::LabelHintCache& cache = hintCaches_.forPeer(initiator.value);
  const mlight::cache::LabelHint* cached = cache.findCovering(full);
  Located result;
  if (cached == nullptr) {
    // Cold cell: the plain §5 search, plus learning its answer below.
    result = search(initiator, full, std::move(window), roundBase, Located{});
  } else {
    // Copy before any repair: learn/forget invalidate the pointer.
    const mlight::cache::LabelHint used = *cached;
    // A caller-capped window (the range query's NULL-at-LCA fallback)
    // already proves the leaf is shallow; clamp a deeper hint to it — any
    // on-path probe depth is sound, so the clamped probe still verifies
    // or refutes the hint.
    const std::size_t t0 = std::min<std::size_t>(used.depth, window.hi);
    const Label probeKey =
        full.prefix(namedPrefixLength(full, m + 1 + t0, m));
    // Least-loaded replica routing (query-load balancing): a hint learned
    // for a boosted leaf carries the replica set plus the loads observed
    // at learn time — probe the copy with the smallest load, ties broken
    // toward the lowest replica index (strict < keeps the first minimum).
    // Only when the probe key is the hint's own key (an unclamped t0):
    // under a caller-capped window the probe targets an ancestor, whose
    // copy set the hint knows nothing about.
    std::size_t probeSalt = 0;
    if (!used.replicaSalts.empty() && t0 == used.depth) {
      std::uint32_t bestLoad = ~std::uint32_t{0};
      for (std::size_t i = 0; i < used.replicaSalts.size(); ++i) {
        const std::uint32_t load =
            i < used.replicaLoads.size() ? used.replicaLoads[i] : 0;
        if (load < bestLoad) {
          bestLoad = load;
          probeSalt = used.replicaSalts[i];
        }
      }
    }
    // The hint crosses the wire with the probe so the owner-side verdict
    // works from the wire copy, like every other handler.
    mlight::common::Writer hintWire(net_->acquireBuffer());
    used.serialize(hintWire);
    const auto probed = store_.accessAndFind(
        mlight::dht::RpcKind::kHintProbe, initiator, probeKey, roundBase,
        std::move(hintWire).take(), probeSalt);
    if (probed.failed) {
      // Unreachable probe (crash loss / exhausted retries): same give-up
      // contract as search() — callers detect the empty leaf.
      return result;
    }
    ++result.probes;
    result.ms += probed.ms;
    if (trace_ != nullptr) {
      trace_->push_back(TraceEvent{
          result.probes, probeKey,
          probed.bucket != nullptr ? probed.bucket->label : Label{},
          probed.bucket != nullptr});
    }
    if (probed.bucket != nullptr && probed.bucket->label.isPrefixOf(full)) {
      // Live hint: the whole binary search collapsed into this one probe.
      // The leaf found may still differ from the remembered label — after
      // a split one child keeps the parent's DHT key (Theorem 5), so the
      // stale *label* resolves in one probe anyway; refresh it below.
      net_->noteCacheHit();
      result.key = probeKey;
      result.leaf = probed.bucket->label;
      result.owner = probed.owner;
      if (result.leaf != used.leaf) cache.forget(used.leaf);
    } else {
      // Stale hint: the probed peer no longer holds an on-path leaf under
      // this key (split/merge moved it).  Forget it and repair in place —
      // the §5 search continues inside the window the failed probe
      // already cut, so a hint that drifted by Δdepth levels costs
      // O(log Δdepth) extra probes, never a wrong answer.
      net_->noteStaleHint();
      cache.forget(used.leaf);
      if (probed.bucket == nullptr) {
        // The tree got shallower here (merge): the leaf is no deeper than
        // the probe key's edge depth — the standard NULL cut.
        mlight::common::auditLookupSearchBounds(m + 1, probeKey.size());
        window.hi = edgeDepth(probeKey, m);
      } else {
        // The tree grew below the hint (split): the leaf is deeper than
        // t0.  Gallop upward from the hint instead of bisecting the whole
        // remaining window — splits move depth by a few levels, so the
        // target is almost always just past the hint.
        window.lo = t0 + 1;
        window.gallop = true;
      }
      mlight::common::auditLookupSearchBounds(window.lo, window.hi);
      window.probedKeys.push_back(probeKey);
      result = search(initiator, full, std::move(window), roundBase,
                      std::move(result));
    }
  }
  if (result.leaf.empty()) return result;
  // Learn the answer, with the replica routing info the reply piggybacks
  // (read at this quiescent point — every probe's facade pumped the loop
  // dry), so the next read of this leaf self-balances toward the
  // then-coldest copy.
  auto info = store_.replicaReadInfo(result.key);
  if (cache.learn(result.leaf,
                  static_cast<std::uint32_t>(edgeDepth(result.leaf, m)),
                  std::move(info.salts), std::move(info.loads))) {
    net_->noteHintEviction();
  }
  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
    mlight::common::auditCacheCoherence(result.leaf,
                                        uncachedLeafOracle(full, hiCap));
  }
  return result;
}

MLightIndex::Label MLightIndex::uncachedLeafOracle(const Label& full,
                                                   std::size_t hiCap) const {
  const std::size_t m = config_.dims;
  std::size_t lo = 0;
  std::size_t hi = std::min(config_.maxEdgeDepth, hiCap);
  std::vector<Label> probedKeys;
  while (lo <= hi) {
    const std::size_t t = lo + (hi - lo) / 2;
    const Label key = full.prefix(namedPrefixLength(full, m + 1 + t, m));
    if (std::find(probedKeys.begin(), probedKeys.end(), key) !=
        probedKeys.end()) {
      lo = t + 1;
      continue;
    }
    probedKeys.push_back(key);
    const LeafBucket* bucket = store_.peek(key);
    if (bucket == nullptr) {
      hi = edgeDepth(key, m);
    } else if (bucket->label.isPrefixOf(full)) {
      return bucket->label;
    } else {
      lo = t + 1;
    }
  }
  return Label{};
}

MLightIndex::LookupResult MLightIndex::lookupLinear(const Point& key) {
  const mlight::index::OpStats op(*net_, store_);
  const std::size_t m = config_.dims;
  const Label full = pointPathLabel(key, m, config_.maxEdgeDepth);
  const auto initiator = randomPeer();
  LookupResult out;
  // One probe per round, counted here rather than read off the timeline.
  std::size_t rounds = 0;
  Label lastProbed;
  for (std::size_t t = 0; t <= config_.maxEdgeDepth; ++t) {
    const Label probeKey =
        full.prefix(namedPrefixLength(full, m + 1 + t, m));
    if (probeKey == lastProbed) continue;  // consecutive shared name
    lastProbed = probeKey;
    const auto found = store_.routeAndFind(
        initiator, probeKey, static_cast<std::uint32_t>(rounds) + 1);
    ++rounds;
    if (found.bucket != nullptr &&
        found.bucket->label.isPrefixOf(full)) {
      out.leaf = found.bucket->label;
      break;
    }
  }
  op.finish(out.stats);
  out.stats.rounds = rounds;
  return out;
}

MLightIndex::LookupResult MLightIndex::lookup(const Point& key) {
  const mlight::index::OpStats op(*net_, store_, /*freezeReadRoutes=*/true);
  const Located loc = locateCached(randomPeer(), key);
  store_.drainLoadBalance();
  LookupResult out;
  out.leaf = loc.leaf;
  // Probes are sequential RPCs at rounds 1..probes, so the deepest round
  // delivered equals the probe count and the elapsed simulated time is
  // the accumulated routing latency.
  op.finish(out.stats);
  return out;
}

void MLightIndex::requireIndexableKey(const Point& key,
                                      const char* op) const {
  if (key.dims() != config_.dims) {
    throw std::invalid_argument(std::string(op) + ": wrong dimensionality");
  }
  for (std::size_t i = 0; i < key.dims(); ++i) {
    if (!(0.0 <= key[i] && key[i] < 1.0)) {
      throw std::invalid_argument(std::string(op) +
                                  ": key outside [0,1)^m: " + key.toString());
    }
  }
}

void MLightIndex::insert(const Record& record) {
  requireIndexableKey(record.key, "insert");
  const auto initiator = randomPeer();
  const Located loc = locateCached(initiator, record.key);
  if (loc.leaf.empty()) {
    // The leaf (or a probe on the way to it) was unreachable — crash
    // loss with R too small, or every retry exhausted.  The record is
    // not inserted; surface the failure instead of corrupting the tree.
    ++failedInserts_;
    net_->run();
    return;
  }
  // The final probe already reached the owner; the record ships with the
  // reply-put, costing payload movement but no extra DHT-lookup.
  net_->shipPayload(initiator, loc.owner, record.byteSize(), 1);
  store_.shipToReplicas(loc.owner, loc.key, record.byteSize(), 1);
  breakdown_.insertShipBytes += record.byteSize();
  LeafBucket* bucket = store_.peek(loc.key);
  assert(bucket != nullptr);
  bucket->append(record);
  ++size_;
  if (config_.strategy == SplitStrategy::kThreshold) {
    thresholdSplitLoop(loc.key);
  } else {
    dataAwareAdjust(loc.key);
  }
  // Quiesce: deliver fire-and-forget replica envelopes before returning
  // so the next operation starts from an idle network.
  net_->run();
  store_.drainLoadBalance();
  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
    checkInvariants();
  }
}

std::size_t MLightIndex::erase(const Point& key, std::uint64_t id) {
  const auto initiator = randomPeer();
  const Located loc = locateCached(initiator, key);
  if (loc.leaf.empty()) return 0;  // leaf unreachable (see insert)
  LeafBucket* bucket = store_.peek(loc.key);
  assert(bucket != nullptr);
  const std::size_t removed = bucket->eraseIf(
      [&](const Record& r) { return r.id == id && r.key == key; });
  size_ -= removed;
  if (removed > 0) {
    // Propagate the deletion to replica copies (tombstone message).
    store_.shipToReplicas(loc.owner, loc.key, 16 * removed, 0);
  }
  if (removed > 0 && config_.strategy == SplitStrategy::kThreshold) {
    thresholdMergeLoop(loc.key);
  }
  net_->run();
  store_.drainLoadBalance();
  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
    checkInvariants();
  }
  return removed;
}

mlight::index::PointResult MLightIndex::pointQuery(const Point& key) {
  const mlight::index::OpStats op(*net_, store_, /*freezeReadRoutes=*/true);
  const Located loc = locateCached(randomPeer(), key);
  store_.drainLoadBalance();
  mlight::index::PointResult out;
  if (!loc.leaf.empty()) {
    const LeafBucket* bucket = store_.peek(loc.key);
    assert(bucket != nullptr);
    for (const auto& r : bucket->records()) {
      if (r.key == key) out.records.push_back(r);
    }
  }
  op.finish(out.stats);
  return out;
}

void MLightIndex::installTreeForTesting(const std::vector<Label>& leaves) {
  MLIGHT_CHECK(size_ == 0, "installTreeForTesting requires an empty index");
  double volume = 0.0;
  for (const Label& leaf : leaves) {
    MLIGHT_CHECK(isTreeNodeLabel(leaf, config_.dims), "bad leaf label");
    volume += labelRegion(leaf, config_.dims).volume();
  }
  MLIGHT_CHECK(std::abs(volume - 1.0) < 1e-9,
               "leaves must tile the unit cube");
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      MLIGHT_CHECK(i == j || !leaves[i].isPrefixOf(leaves[j]),
                   "leaf set is not prefix-free");
    }
  }
  // Drop the bootstrap root bucket, then install one empty bucket per
  // leaf under its f_md key (placement is free: tree construction is not
  // part of any measured workload).
  store_.erase(naming(rootLabel(config_.dims), config_.dims));
  for (const Label& leaf : leaves) {
    const Label key = naming(leaf, config_.dims);
    MLIGHT_CHECK(store_.peek(key) == nullptr,
                 "duplicate key — leaves do not form a valid tree");
    store_.placeLocal(key, LeafBucket(leaf));
  }
  net_->run();
  checkInvariants();
}

std::size_t MLightIndex::emptyBucketCount() const {
  std::size_t count = 0;
  store_.forEach([&](const Label&, const LeafBucket& b, mlight::dht::RingId) {
    if (b.records().empty()) ++count;
  });
  return count;
}

std::size_t MLightIndex::estimateDepthByProbing(std::size_t samples,
                                                std::size_t headroom) {
  std::size_t deepest = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    Point p(config_.dims);
    for (std::size_t d = 0; d < config_.dims; ++d) p[d] = rng_.uniform();
    const Located loc = locateCached(randomPeer(), p);
    deepest = std::max(deepest, edgeDepth(loc.leaf, config_.dims));
  }
  return std::min(config_.maxEdgeDepth, deepest + headroom);
}

std::size_t MLightIndex::treeDepth() const {
  std::size_t depth = 0;
  store_.forEach([&](const Label&, const LeafBucket& b, mlight::dht::RingId) {
    depth = std::max(depth, edgeDepth(b.label, config_.dims));
  });
  return depth;
}

void MLightIndex::checkInvariants() const {
  // Full structural audit over the shared invariant layer
  // (common/invariants.h): Theorem 2/4 bijection, the tiling corollary
  // of Theorem 1/3, and per-bucket record placement.
  const std::size_t m = config_.dims;
  std::vector<std::pair<Label, Label>> leafToKey;
  std::vector<Label> leaves;
  std::size_t totalRecords = 0;
  const bool paranoid =
      mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid);
  store_.forEach([&](const Label& key, const LeafBucket& b,
                     mlight::dht::RingId owner) {
    MLIGHT_CHECK(isTreeNodeLabel(b.label, m), "bad leaf label");
    MLIGHT_CHECK(naming(b.label, m) == key, "bucket stored under wrong key");
    MLIGHT_CHECK(store_.readableAt(key, owner), "bucket on wrong peer");
    mlight::common::auditRecordPlacement(
        labelRegion(b.label, m), b.records(),
        [](const Record& r) -> const Point& { return r.key; });
    if (paranoid) {
      mlight::common::auditBucketKeys(
          b.records(), b.keys(), b.keyDims(),
          [](const Record& r) -> const Point& { return r.key; });
    }
    leafToKey.emplace_back(b.label, key);
    leaves.push_back(b.label);
    totalRecords += b.recordCount();
  });
  mlight::common::auditNamingBijection(leafToKey, m);
  mlight::common::auditSpaceTiling(leaves, m + 1);
  MLIGHT_CHECK(totalRecords == size_, "record count drift");
}

}  // namespace mlight::core
