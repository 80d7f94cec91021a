#include "mlight/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"
#include "common/zorder.h"
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
  // A leaf label is dims + 1 root bits plus an interleaved key path of
  // maxEdgeDepth bits; refuse a bound that no insert could reach.
  if (config_.maxEdgeDepth > mlight::common::maxInterleaveDepth(config_.dims) ||
      config_.dims + 1 + config_.maxEdgeDepth > Label::kMaxBits) {
    throw std::invalid_argument(
        "MLightIndex: maxEdgeDepth exceeds the interleave precision or the "
        "label limit");
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
    wal_ = std::make_unique<mlight::wal::WalSet>(config_.seed);
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

namespace {

/// m-LIGHT's geometry for the shared §5 locate (index/prefix_locate.h):
/// depth t probes f_md of the path's node at edge depth t, a NULL key
/// caps the leaf at the key's own edge depth, a bucket answers when its
/// leaf lies on the path, and hints remember edge depth.
struct LocateShape {
  using Bucket = LeafBucket;
  std::size_t m;

  BitString probeKey(const BitString& full, std::size_t t) const {
    // Name the candidate prefix without materializing it: f_md's result
    // is itself a prefix of `full`, so one length computation + one
    // prefix() replaces two temporary labels per probe.
    return full.prefix(namedPrefixLength(full, m + 1 + t, m));
  }
  std::size_t nullCut(const BitString& key, std::size_t) const {
    // `key` is not an internal node, so the leaf on this path is no
    // deeper than the key's own edge depth (the virtual root's bucket
    // always exists, so the key names a real node).
    mlight::common::auditLookupSearchBounds(m + 1, key.size());
    return edgeDepth(key, m);
  }
  const BitString* covering(const BitString& full, const BitString&,
                            const LeafBucket& bucket) const {
    // Off-path, every candidate in (edgeDepth(key), t] shares this key,
    // so none of them is the leaf.
    return bucket.label.isPrefixOf(full) ? &bucket.label : nullptr;
  }
  std::uint32_t hintDepth(const BitString& leaf) const {
    return static_cast<std::uint32_t>(edgeDepth(leaf, m));
  }
};

}  // namespace

mlight::index::Located MLightIndex::locate(mlight::dht::RingId initiator,
                                           const Point& p, std::size_t hiCap,
                                           std::uint32_t roundBase) {
  const Label full = pointPathLabel(p, config_.dims, config_.maxEdgeDepth);
  return mlight::index::PrefixLocate<LocateShape>(
             LocateShape{config_.dims}, store_, *net_, hintCaches_, trace_)
      .locate(initiator, full, std::min(config_.maxEdgeDepth, hiCap),
              roundBase);
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
  const mlight::index::OpStats op(*net_, store_);
  const Located loc = locate(randomPeer(), key);
  store_.drainLoadBalance();
  LookupResult out;
  out.leaf = loc.leaf;
  // Probes are sequential RPCs at rounds 1..probes, so the deepest round
  // delivered equals the probe count and the elapsed simulated time is
  // the accumulated routing latency.
  op.finish(out.stats);
  return out;
}

void MLightIndex::insert(const Record& record) {
  mlight::index::requireIndexableKey(record.key, config_.dims, "insert");
  const auto initiator = randomPeer();
  const Located loc = locate(initiator, record.key);
  if (loc.failed) {
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
  const Located loc = locate(initiator, key);
  if (loc.failed) return 0;  // leaf unreachable (see insert)
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
  const mlight::index::OpStats op(*net_, store_);
  const Located loc = locate(randomPeer(), key);
  store_.drainLoadBalance();
  mlight::index::PointResult out;
  if (!loc.failed) {
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
    const Located loc = locate(randomPeer(), p);
    if (loc.failed) continue;  // an unreachable leaf says nothing of depth
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
