#include "dst/dst_index.h"

#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"
#include "common/zorder.h"
#include "index/op_stats.h"

namespace mlight::dst {

namespace {

using mlight::common::cellOfPath;
using mlight::common::interleave;

}  // namespace

DstIndex::DstIndex(mlight::dht::Network& net, DstConfig config)
    : net_(&net),
      config_(std::move(config)),
      store_(net, config_.dhtNamespace),
      rng_(config_.seed) {
  if (config_.dims < 1 || config_.dims > mlight::common::kMaxDims) {
    throw std::invalid_argument("DstIndex: dims out of range");
  }
  if (config_.maxDepth > mlight::common::maxInterleaveDepth(config_.dims)) {
    throw std::invalid_argument(
        "DstIndex: maxDepth exceeds the interleave precision or the label "
        "limit");
  }
  if (config_.maxDepth % levelBits() != 0) {
    throw std::invalid_argument(
        "DstIndex: maxDepth must be a multiple of the level width");
  }
  if (config_.gamma == 0) {
    throw std::invalid_argument("DstIndex: gamma must be positive");
  }
  if (config_.bandCeiling % levelBits() != 0) {
    throw std::invalid_argument(
        "DstIndex: bandCeiling must be on a level boundary");
  }
  // A band leaves at least one registration level above the leaf's.
  if (config_.bandCeiling > 0 && config_.bandCeiling >= config_.maxDepth) {
    throw std::invalid_argument("DstIndex: bandCeiling must be < maxDepth");
  }
}

mlight::dht::RingId DstIndex::randomPeer() {
  const auto& peers = net_->peers();
  return peers[rng_.below(peers.size())];
}

void DstIndex::insert(const Record& record) {
  mlight::index::requireIndexableKey(record.key, config_.dims, "insert");
  const auto initiator = randomPeer();
  const Label path = interleave(record.key, config_.maxDepth);
  // Replicate at every ancestor inside the band (subject to saturation):
  // one visit RPC per level — the maintenance price of O(1) queries.  The
  // levels form a continuation chain (each handler issues the next level
  // one round deeper); the saturation check runs at the owning peer,
  // against the owner's copy of the node.  `record` and `path` stay alive
  // for the whole chain: the continuations all run inside net_->run()
  // below.  The record counts once the leaf level applied it; a chain
  // that dead-lettered on the way never gets there.
  const std::size_t before = size_;
  insertAtDepth(record, initiator, path, config_.bandCeiling, 1);
  net_->run();
  if (size_ == before) ++failedInserts_;
}

void DstIndex::insertAtDepth(const Record& record,
                             mlight::dht::RingId initiator, const Label& path,
                             std::size_t depth, std::uint32_t round) {
  const Label label = path.prefix(depth);
  store_.asyncAccess(
      mlight::dht::RpcKind::kVisit, initiator, label, round,
      [this, &record, &path, initiator, label, depth](
          CellNode* node, const mlight::dht::RpcDelivery& d) {
        const bool isLeafLevel = (depth == config_.maxDepth);
        if (node == nullptr) {
          CellNode fresh;
          fresh.label = label;
          fresh.records.push_back(record);
          net_->shipPayload(initiator, d.route.owner, record.byteSize(), 1);
          store_.placeLocal(label, std::move(fresh));
        } else if (isLeafLevel) {
          node->records.push_back(record);
          net_->shipPayload(initiator, d.route.owner, record.byteSize(), 1);
        } else if (node->complete) {
          if (node->records.size() >= config_.gamma) {
            // This record does not fit: the node's replica set is
            // no longer the full contents of its region.
            node->complete = false;
          } else {
            node->records.push_back(record);
            net_->shipPayload(initiator, d.route.owner, record.byteSize(), 1);
          }
        }  // else: saturated long ago; skip
        if (isLeafLevel) {
          ++size_;
        } else {
          insertAtDepth(record, initiator, path, depth + levelBits(),
                        d.env.round + 1);
        }
      });
}

template <typename Fn>
void DstIndex::forEachChild(const Label& node, const Rect& cell,
                            Fn&& fn) const {
  // Child cells derive from the node's cell by one halving per bit —
  // the same composition cellOfPath performs, so the geometry is
  // bit-identical to the from-scratch walk at a fraction of its cost.
  const std::size_t bits = levelBits();
  const std::size_t fan = std::size_t{1} << bits;
  for (std::size_t child = 0; child < fan; ++child) {
    Label childLabel = node;
    Rect childCell = cell;
    for (std::size_t b = 0; b < bits; ++b) {
      const bool bit = (child >> (bits - 1 - b)) & 1u;
      childCell = childCell.halved(
          mlight::common::dimensionAtDepth(node.size() + b, config_.dims),
          bit);
      childLabel.pushBack(bit);
    }
    fn(childLabel, childCell);
  }
}

void DstIndex::probeRange(const Rect& clipped, const Label& label,
                          mlight::dht::RingId source, std::uint32_t round,
                          std::vector<Record>& out) {
  store_.asyncAccess(
      mlight::dht::RpcKind::kGet, source, label, round,
      [this, &clipped, &out, label](CellNode* node,
                                    const mlight::dht::RpcDelivery& d) {
        if (node == nullptr) return;  // empty region
        if (node->complete) {
          mlight::index::collectInRange(*node, clipped, out);
          return;
        }
        // Saturated: replica set incomplete, descend one level.
        forEachChild(label, cellOfPath(label, config_.dims),
                     [&](const Label& child, const Rect& childCell) {
                       if (childCell.intersects(clipped)) {
                         probeRange(clipped, child, d.route.owner,
                                    d.env.round + 1, out);
                       }
                     });
      });
}

std::size_t DstIndex::erase(const Point& key, std::uint64_t id) {
  const auto initiator = randomPeer();
  const Label path = interleave(key, config_.maxDepth);
  std::size_t removedAtLeaf = 0;
  for (std::size_t depth = config_.bandCeiling; depth <= config_.maxDepth;
       depth += levelBits()) {
    const auto found = store_.routeAndFind(initiator, path.prefix(depth));
    if (found.bucket == nullptr) continue;
    const auto before = found.bucket->records.size();
    std::erase_if(found.bucket->records, [&](const Record& r) {
      return r.id == id && r.key == key;
    });
    if (depth == config_.maxDepth) {
      removedAtLeaf = before - found.bucket->records.size();
    }
  }
  size_ -= removedAtLeaf;
  return removedAtLeaf;
}

mlight::index::PointResult DstIndex::pointQuery(const Point& key) {
  const mlight::index::OpStats op(*net_, store_);
  mlight::index::PointResult out;
  // The leaf-level cell is computable locally and always complete: exact
  // match is a single DHT-lookup (the static tree's strength).
  const Label leaf = interleave(key, config_.maxDepth);
  const auto found = store_.routeAndFind(randomPeer(), leaf);
  if (found.bucket != nullptr) {
    for (const auto& r : found.bucket->records) {
      if (r.key == key) out.records.push_back(r);
    }
  }
  op.finish(out.stats);
  return out;
}

void DstIndex::decomposeInto(const Rect& range, const Label& node,
                             const Rect& cell, std::vector<Label>& out) const {
  // `cell` is cellOfPath(node, dims), threaded down the recursion.
  if (!cell.intersects(range)) return;
  // Inside the band, emit fully-covered or leaf-level cells.
  if (node.size() >= config_.bandCeiling &&
      (range.containsRect(cell) || node.size() >= config_.maxDepth)) {
    out.push_back(node);
    return;
  }
  forEachChild(node, cell, [&](const Label& child, const Rect& childCell) {
    decomposeInto(range, child, childCell, out);
  });
}

std::vector<DstIndex::Label> DstIndex::decompose(const Rect& range) const {
  std::vector<Label> out;
  decomposeInto(range, Label{}, Rect::unit(config_.dims), out);
  return out;
}

mlight::index::RangeResult DstIndex::rangeQuery(const Rect& range) {
  mlight::index::RangeResult out;
  if (range.dims() != config_.dims) {
    throw std::invalid_argument("rangeQuery: wrong dimensionality");
  }
  const Rect clipped = range.intersection(Rect::unit(config_.dims));
  if (clipped.empty()) return out;

  const mlight::index::OpStats op(*net_, store_);
  const auto initiator = randomPeer();

  // The canonical decomposition is computed locally (the tree is static),
  // then every canonical node is one parallel probe RPC away: O(1)
  // rounds unless saturation forces descents, which chain one round
  // deeper per level from the probed node's owner.  `clipped` and
  // `out.records` stay alive for the whole chain: the continuations all
  // run inside net_->run() below.
  for (Label& label : decompose(clipped)) {
    probeRange(clipped, label, initiator, 1, out.records);
  }

  net_->run();
  op.finish(out.stats);
  return out;
}

void DstIndex::checkInvariants() const {
  std::size_t leafRecords = 0;
  store_.forEach([&](const Label& key, const CellNode& n,
                     mlight::dht::RingId) {
    MLIGHT_CHECK(key == n.label, "node stored under wrong key");
    MLIGHT_CHECK(n.label.size() % levelBits() == 0, "off-level node");
    MLIGHT_CHECK(n.label.size() >= config_.bandCeiling,
                 "node above the registration band");
    MLIGHT_CHECK(n.label.size() <= config_.maxDepth, "node too deep");
    mlight::common::auditRecordPlacement(
        cellOfPath(n.label, config_.dims), n.records,
        [](const Record& r) -> const Point& { return r.key; });
    if (n.label.size() == config_.maxDepth) {
      MLIGHT_CHECK(n.complete, "leaf-level node must be complete");
      leafRecords += n.records.size();
    } else if (n.complete) {
      MLIGHT_CHECK(n.records.size() <= config_.gamma,
                   "complete node above saturation cap");
    }
  });
  MLIGHT_CHECK(leafRecords == size_, "record count drift");
}

}  // namespace mlight::dst
