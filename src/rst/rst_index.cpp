#include "rst/rst_index.h"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"
#include "common/zorder.h"

namespace mlight::rst {

namespace {

using mlight::common::cellOfPath;
using mlight::common::interleave;

void collectInRange(const RstNode& node, const mlight::common::Rect& range,
                    std::vector<mlight::index::Record>& out) {
  for (const auto& r : node.records) {
    if (range.contains(r.key)) out.push_back(r);
  }
}

}  // namespace

RstIndex::RstIndex(mlight::dht::Network& net, RstConfig config)
    : net_(&net),
      config_(std::move(config)),
      store_(net, config_.dhtNamespace),
      rng_(config_.seed) {
  if (config_.dims < 1 || config_.dims > mlight::common::kMaxDims) {
    throw std::invalid_argument("RstIndex: dims out of range");
  }
  if (config_.gamma == 0) {
    throw std::invalid_argument("RstIndex: gamma must be positive");
  }
  if (config_.bandCeiling >= config_.maxDepth) {
    throw std::invalid_argument("RstIndex: bandCeiling must be < maxDepth");
  }
}

mlight::dht::RingId RstIndex::randomPeer() {
  const auto& peers = net_->peers();
  return peers[rng_.below(peers.size())];
}

void RstIndex::insert(const Record& record) {
  if (record.key.dims() != config_.dims) {
    throw std::invalid_argument("insert: wrong dimensionality");
  }
  const auto initiator = randomPeer();
  const Label path = interleave(record.key, config_.maxDepth);
  // Register within the band: every binary level from the ceiling down
  // to the leaf, skipping saturated nodes.  The levels form a
  // continuation chain of visit RPCs, each one round deeper; the
  // saturation check runs at the owning peer.
  std::function<void(std::size_t, std::uint32_t)> visitLevel =
      [&](std::size_t level, std::uint32_t round) {
        const Label label = path.prefix(level);
        store_.asyncAccess(
            mlight::dht::RpcKind::kVisit, initiator, label, round,
            [&, label, level](RstNode* node,
                              const mlight::dht::RpcDelivery& d) {
              const bool isLeafLevel = (level == config_.maxDepth);
              if (node == nullptr) {
                RstNode fresh;
                fresh.label = label;
                fresh.records.push_back(record);
                net_->shipPayload(initiator, d.route.owner,
                                  record.byteSize(), 1);
                store_.placeLocal(label, std::move(fresh));
              } else if (isLeafLevel) {
                node->records.push_back(record);
                net_->shipPayload(initiator, d.route.owner,
                                  record.byteSize(), 1);
              } else if (node->complete) {
                if (node->records.size() >= config_.gamma) {
                  node->complete = false;
                } else {
                  node->records.push_back(record);
                  net_->shipPayload(initiator, d.route.owner,
                                    record.byteSize(), 1);
                }
              }  // else: saturated long ago; skip
              if (level < config_.maxDepth) {
                visitLevel(level + 1, d.env.round + 1);
              }
            });
      };
  visitLevel(config_.bandCeiling, 1);
  net_->run();
  ++size_;
}

std::size_t RstIndex::erase(const Point& key, std::uint64_t id) {
  const auto initiator = randomPeer();
  const Label path = interleave(key, config_.maxDepth);
  std::size_t removedAtLeaf = 0;
  for (std::size_t level = config_.bandCeiling; level <= config_.maxDepth;
       ++level) {
    const Label label = path.prefix(level);
    const auto found = store_.routeAndFind(initiator, label);
    if (found.bucket == nullptr) continue;
    const auto before = found.bucket->records.size();
    std::erase_if(found.bucket->records, [&](const Record& r) {
      return r.id == id && r.key == key;
    });
    if (level == config_.maxDepth) {
      removedAtLeaf = before - found.bucket->records.size();
    }
  }
  size_ -= removedAtLeaf;
  return removedAtLeaf;
}

mlight::index::PointResult RstIndex::pointQuery(const Point& key) {
  const double t0 = net_->beginTimeline();
  const std::size_t failedBefore = store_.failedReads();
  mlight::dht::CostMeter meter;
  mlight::dht::MeterScope scope(*net_, meter);
  mlight::index::PointResult out;
  const Label leaf = interleave(key, config_.maxDepth);
  const auto found = store_.routeAndFind(randomPeer(), leaf);
  if (found.bucket != nullptr) {
    for (const auto& r : found.bucket->records) {
      if (r.key == key) out.records.push_back(r);
    }
  }
  out.stats.cost = meter;
  out.stats.rounds = net_->timelineMaxRound();
  out.stats.latencyMs = net_->now() - t0;
  out.stats.failedProbes = store_.failedReads() - failedBefore;
  return out;
}

void RstIndex::decomposeInto(const Rect& range, const Label& node,
                             std::vector<Label>& out) const {
  const Rect cell = cellOfPath(node, config_.dims);
  if (!cell.intersects(range)) return;
  // Below the ceiling, emit fully-covered or leaf-level segments.
  if (node.size() >= config_.bandCeiling &&
      (range.containsRect(cell) || node.size() >= config_.maxDepth)) {
    out.push_back(node);
    return;
  }
  decomposeInto(range, node.withBack(false), out);
  decomposeInto(range, node.withBack(true), out);
}

std::vector<RstIndex::Label> RstIndex::decompose(const Rect& range) const {
  std::vector<Label> out;
  decomposeInto(range, Label{}, out);
  return out;
}

mlight::index::RangeResult RstIndex::rangeQuery(const Rect& range) {
  mlight::index::RangeResult out;
  if (range.dims() != config_.dims) {
    throw std::invalid_argument("rangeQuery: wrong dimensionality");
  }
  const Rect clipped = range.intersection(Rect::unit(config_.dims));
  if (clipped.empty()) return out;

  const double t0 = net_->beginTimeline();
  const std::size_t failedBefore = store_.failedReads();
  mlight::dht::CostMeter meter;
  mlight::dht::MeterScope scope(*net_, meter);
  const auto initiator = randomPeer();

  // Canonical segments probe in parallel at round 1; saturated segments
  // descend via follow-up RPCs from the probed node's owner, one round
  // deeper per binary level.
  std::function<void(const Label&, mlight::dht::RingId, std::uint32_t)>
      probe = [&](const Label& label, mlight::dht::RingId source,
                  std::uint32_t round) {
        store_.asyncAccess(
            mlight::dht::RpcKind::kGet, source, label, round,
            [&, label](RstNode* node, const mlight::dht::RpcDelivery& d) {
              if (node == nullptr) return;  // empty segment
              if (node->complete) {
                collectInRange(*node, clipped, out.records);
                return;
              }
              for (const bool bit : {false, true}) {
                const Label child = label.withBack(bit);
                if (cellOfPath(child, config_.dims).intersects(clipped)) {
                  probe(child, d.route.owner, d.env.round + 1);
                }
              }
            });
      };
  for (Label& label : decompose(clipped)) {
    probe(label, initiator, 1);
  }

  net_->run();
  out.stats.cost = meter;
  out.stats.rounds = net_->timelineMaxRound();
  out.stats.latencyMs = net_->now() - t0;
  out.stats.failedProbes = store_.failedReads() - failedBefore;
  return out;
}

void RstIndex::checkInvariants() const {
  std::size_t leafRecords = 0;
  store_.forEach([&](const Label& key, const RstNode& n,
                     mlight::dht::RingId) {
    MLIGHT_CHECK(key == n.label, "node stored under wrong key");
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
                   "complete node above capacity");
    }
  });
  MLIGHT_CHECK(leafRecords == size_, "record count drift");
}

}  // namespace mlight::rst
