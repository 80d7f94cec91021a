#include "pht/pht_index.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"
#include "common/zorder.h"
#include "index/op_stats.h"

namespace mlight::pht {

namespace {

using mlight::common::cellOfPath;
using mlight::common::interleave;
using mlight::common::lowestCoveringPath;

using mlight::index::collectInRange;

}  // namespace

PhtIndex::PhtIndex(mlight::dht::Network& net, PhtConfig config)
    : net_(&net),
      config_(std::move(config)),
      store_(net, config_.dhtNamespace),
      rng_(config_.seed),
      hintCaches_(config_.dims, config_.cache) {
  if (config_.dims < 1 || config_.dims > mlight::common::kMaxDims) {
    throw std::invalid_argument("PhtIndex: dims out of range");
  }
  if (config_.maxDepth > mlight::common::maxInterleaveDepth(config_.dims)) {
    throw std::invalid_argument(
        "PhtIndex: maxDepth exceeds the interleave precision or the label "
        "limit");
  }
  // Bootstrap: the root (empty prefix) as an empty leaf.
  const Label rootLabel;
  CellNode root;
  store_.placeLocal(rootLabel, std::move(root));
}

mlight::dht::RingId PhtIndex::randomPeer() {
  const auto& peers = net_->peers();
  return peers[rng_.below(peers.size())];
}

namespace {

/// PHT's geometry for the shared prefix locate (index/prefix_locate.h):
/// depth t probes the t-bit prefix itself, a missing prefix only proves
/// the leaf is shorter than t, a node answers when it is a leaf, and
/// hints remember the prefix length.
struct LocateShape {
  using Bucket = PhtIndex::CellNode;
  using Label = PhtIndex::Label;

  Label probeKey(const Label& full, std::size_t t) const {
    return full.prefix(t);
  }
  std::size_t nullCut(const Label&, std::size_t t) const {
    mlight::common::auditLookupSearchBounds(1, t);  // trie root exists
    return t - 1;
  }
  const Label* covering(const Label&, const Label& key,
                        const Bucket& node) const {
    return node.complete ? &key : nullptr;
  }
  std::uint32_t hintDepth(const Label& leaf) const {
    return static_cast<std::uint32_t>(leaf.size());
  }
};

}  // namespace

mlight::index::Located PhtIndex::locate(mlight::dht::RingId initiator,
                                        const Point& p,
                                        std::uint32_t roundBase) {
  const Label full = interleave(p, config_.maxDepth);
  return mlight::index::PrefixLocate<LocateShape>(LocateShape{}, store_,
                                                  *net_, hintCaches_)
      .locate(initiator, full, config_.maxDepth, roundBase);
}

void PhtIndex::insert(const Record& record) {
  mlight::index::requireIndexableKey(record.key, config_.dims, "insert");
  const auto initiator = randomPeer();
  const Located loc = locate(initiator, record.key);
  if (loc.failed) {
    // Leaf unreachable under faults: drop and count, don't corrupt.
    ++failedInserts_;
    net_->run();
    return;
  }
  net_->shipPayload(initiator, loc.owner, record.byteSize(), 1);
  breakdown_.insertShipBytes += record.byteSize();
  CellNode* leaf = store_.peek(loc.leaf);
  assert(leaf != nullptr && leaf->complete);
  leaf->records.push_back(record);
  ++size_;
  splitLoop(loc.leaf);
}

void PhtIndex::splitLoop(Label leafLabel) {
  std::vector<Label> pending{std::move(leafLabel)};
  while (!pending.empty()) {
    const Label label = std::move(pending.back());
    pending.pop_back();
    CellNode* node = store_.peek(label);
    if (node == nullptr || !node->complete ||
        node->records.size() <= config_.thetaSplit ||
        label.size() >= config_.maxDepth) {
      continue;
    }
    // Partition records between the two children cells.
    const std::size_t dim =
        mlight::common::dimensionAtDepth(label.size(), config_.dims);
    const double mid = cellOfPath(label, config_.dims).mid(dim);
    CellNode lo;
    lo.label = label.withBack(false);
    CellNode hi;
    hi.label = label.withBack(true);
    for (const auto& r : node->records) {
      (r.key[dim] >= mid ? hi : lo).records.push_back(r);
    }
    const auto owner = store_.ownerOf(label);
    // The split node becomes a routing-only internal marker in place
    // (local flag update, no DHT traffic)...
    node->complete = false;
    node->records.clear();
    node->records.shrink_to_fit();
    // ...but BOTH children are assigned fresh DHT keys: two DHT-puts and
    // the full bucket's worth of payload moves.  Compare m-LIGHT's
    // Theorem 5 where one child stays for free.
    const Label loLabel = lo.label;
    const Label hiLabel = hi.label;
    MLIGHT_CHECK(store_.peek(loLabel) == nullptr, "child already exists");
    MLIGHT_CHECK(store_.peek(hiLabel) == nullptr, "child already exists");
    breakdown_.splitShipBytes += lo.byteSize() + hi.byteSize();
    breakdown_.splitBucketMoves += 2;
    store_.place(owner, loLabel, std::move(lo));
    store_.place(owner, hiLabel, std::move(hi));
    pending.push_back(loLabel);
    pending.push_back(hiLabel);
  }
}

std::size_t PhtIndex::erase(const Point& key, std::uint64_t id) {
  const auto initiator = randomPeer();
  const Located loc = locate(initiator, key);
  if (loc.failed) {
    net_->run();
    return 0;
  }
  CellNode* leaf = store_.peek(loc.leaf);
  assert(leaf != nullptr);
  const auto before = leaf->records.size();
  std::erase_if(leaf->records, [&](const Record& r) {
    return r.id == id && r.key == key;
  });
  const std::size_t removed = before - leaf->records.size();
  size_ -= removed;
  if (removed > 0) mergeLoop(loc.leaf);
  return removed;
}

void PhtIndex::mergeLoop(Label leafLabel) {
  while (!leafLabel.empty()) {
    CellNode* leaf = store_.peek(leafLabel);
    if (leaf == nullptr || !leaf->complete) return;
    const Label sibLabel = leafLabel.sibling();
    // Probe the sibling (one DHT-lookup).
    const auto found = store_.routeAndFind(store_.ownerOf(leafLabel),
                                           sibLabel);
    if (found.bucket == nullptr || !found.bucket->complete) return;
    if (leaf->records.size() + found.bucket->records.size() >=
        config_.thetaMerge) {
      return;
    }
    Label parentLabel = leafLabel;
    parentLabel.popBack();
    // Both children's records move to the parent's peer (two transfers —
    // m-LIGHT's merge moves only one bucket).
    CellNode merged;
    merged.label = parentLabel;
    merged.records = leaf->records;
    merged.records.insert(merged.records.end(),
                          found.bucket->records.begin(),
                          found.bucket->records.end());
    const auto parentOwner = store_.ownerOf(parentLabel);
    breakdown_.mergeShipBytes +=
        leaf->byteSize() + found.bucket->byteSize();
    net_->shipPayload(store_.ownerOf(leafLabel), parentOwner,
                      leaf->byteSize(), leaf->recordCount());
    net_->shipPayload(found.owner, parentOwner, found.bucket->byteSize(),
                      found.bucket->recordCount());
    store_.erase(leafLabel);
    store_.erase(sibLabel);
    // The parent marker exists (every prefix of a leaf is materialized);
    // flipping it back to a leaf is local to its peer.
    CellNode* parent = store_.peek(parentLabel);
    MLIGHT_CHECK(parent != nullptr && !parent->complete,
                 "trie prefix closure violated");
    *parent = std::move(merged);
    parent->complete = true;
    leafLabel = parentLabel;
  }
}

mlight::index::PointResult PhtIndex::pointQuery(const Point& key) {
  const mlight::index::OpStats op(*net_, store_);
  const Located loc = locate(randomPeer(), key);
  mlight::index::PointResult out;
  if (!loc.failed) {
    const CellNode* leaf = store_.peek(loc.leaf);
    assert(leaf != nullptr);
    for (const auto& r : leaf->records) {
      if (r.key == key) out.records.push_back(r);
    }
  }
  op.finish(out.stats);
  return out;
}

mlight::index::RangeResult PhtIndex::rangeQuery(const Rect& range) {
  mlight::index::RangeResult out;
  if (range.dims() != config_.dims) {
    throw std::invalid_argument("rangeQuery: wrong dimensionality");
  }
  const Rect clipped =
      range.intersection(Rect::unit(config_.dims));
  if (clipped.empty()) return out;

  const mlight::index::OpStats op(*net_, store_);
  const auto initiator = randomPeer();
  const auto learnHint = [&](const Label& leaf) {
    if (hintCaches_.forPeer(initiator.value)
            .learn(leaf, static_cast<std::uint32_t>(leaf.size()))) {
      net_->noteHintEviction();
    }
  };

  // Trie descent as RPC continuations: probing a child is an envelope
  // one round deeper than its parent's delivery; siblings that miss the
  // range are pruned locally before any traffic is issued.
  std::function<void(const Label&, mlight::dht::RingId, std::uint32_t)>
      descend = [&](const Label& label, mlight::dht::RingId source,
                    std::uint32_t round) {
        if (!cellOfPath(label, config_.dims).intersects(clipped)) {
          return;  // pruned locally, no DHT traffic
        }
        store_.asyncAccess(
            mlight::dht::RpcKind::kGet, source, label, round,
            [&, label](CellNode* node, const mlight::dht::RpcDelivery& d) {
              MLIGHT_CHECK(node != nullptr, "trie prefix closure violated");
              if (node->complete) {
                if (config_.cache.enabled) {
                  // Range traversals warm the cache for free: every leaf
                  // touched is a future point-lookup hint.
                  learnHint(node->label);
                }
                collectInRange(*node, clipped, out.records);
              } else {
                descend(label.withBack(false), d.route.owner,
                        d.env.round + 1);
                descend(label.withBack(true), d.route.owner,
                        d.env.round + 1);
              }
            });
      };

  const Label lca =
      lowestCoveringPath(clipped, config_.dims, config_.maxDepth);
  const auto first = store_.routeAndFind(initiator, lca);
  if (first.failed) {
    // The LCA probe went unanswered: the whole query is one failed probe;
    // return an empty partial result (stats record the failure below).
  } else if (first.bucket == nullptr) {
    // The LCA prefix is below the trie: a single leaf above it covers the
    // whole range; find it by point lookup of the range corner (the
    // sequential probes continue the chain at round 2).
    const Located loc =
        locate(first.owner, clipped.lo(), /*roundBase=*/2);
    if (!loc.failed) {
      const CellNode* leaf = store_.peek(loc.leaf);
      assert(leaf != nullptr);
      collectInRange(*leaf, clipped, out.records);
    }
  } else if (first.bucket->complete) {
    if (config_.cache.enabled) learnHint(first.bucket->label);
    collectInRange(*first.bucket, clipped, out.records);
  } else {
    // Internal nodes hold no data: descend the trie, one round of
    // parallel child probes per level, all the way to leaves.
    descend(lca.withBack(false), first.owner, 2);
    descend(lca.withBack(true), first.owner, 2);
  }

  net_->run();
  op.finish(out.stats);
  return out;
}

std::size_t PhtIndex::leafCount() const {
  std::size_t count = 0;
  store_.forEach([&](const Label&, const CellNode& n, mlight::dht::RingId) {
    if (n.complete) ++count;
  });
  return count;
}

void PhtIndex::checkInvariants() const {
  // Shared audit layer (common/invariants.h): PHT leaves are plain trie
  // paths (root prefix 0 bits) and must tile the linearized key space;
  // records must sit inside their leaf cell.
  std::size_t totalRecords = 0;
  std::vector<Label> leaves;
  store_.forEach([&](const Label& key, const CellNode& n,
                     mlight::dht::RingId) {
    MLIGHT_CHECK(key == n.label, "node stored under wrong key");
    if (n.complete) {
      mlight::common::auditRecordPlacement(
          cellOfPath(n.label, config_.dims), n.records,
          [](const Record& r) -> const Point& { return r.key; });
      totalRecords += n.records.size();
      leaves.push_back(n.label);
    } else {
      MLIGHT_CHECK(n.records.empty(), "internal node holds data");
      MLIGHT_CHECK(store_.peek(n.label.withBack(false)) != nullptr &&
                       store_.peek(n.label.withBack(true)) != nullptr,
                   "internal node missing a child");
    }
  });
  MLIGHT_CHECK(totalRecords == size_, "record count drift");
  mlight::common::auditSpaceTiling(leaves, 0);
}

}  // namespace mlight::pht
