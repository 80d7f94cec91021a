// MLightIndex query processing: the recursive-forwarding range/region
// algorithm of §6 (Algorithms 2–3) with the parallel-h variant.
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

void MLightIndex::enqueueForward(std::vector<Task>& wave,
                                 const Rect& subRange, const Label& branch,
                                 mlight::dht::RingId source,
                                 std::size_t depthHint) {
  if (config_.lookahead <= 1) {
    wave.push_back(Task{subRange, branch, branch, source, depthHint});
    return;
  }
  // Parallel variant (§6): speculatively descend the globally-known space
  // partition below the branch node, splitting the subrange into up to h
  // pieces probed in the same round.  Pieces that overshoot the real tree
  // fall back to re-probing the branch node itself next round; the depth
  // hint (local leaf depth observed so far) keeps that rare.
  const std::size_t maxPieceDepth = std::min(
      config_.maxEdgeDepth,
      std::max(edgeDepth(branch, config_.dims), depthHint));
  std::vector<std::pair<Rect, Label>> pieces{{subRange, branch}};
  std::size_t cursor = 0;
  while (pieces.size() < config_.lookahead && cursor < pieces.size()) {
    const auto [range, node] = pieces[cursor];
    if (edgeDepth(node, config_.dims) >= maxPieceDepth) {
      ++cursor;
      continue;
    }
    const std::size_t dim =
        splitDimension(edgeDepth(node, config_.dims), config_.dims);
    const Rect region = labelRegion(node, config_.dims);
    const Rect loPart = range.intersection(region.halved(dim, false));
    const Rect hiPart = range.intersection(region.halved(dim, true));
    std::vector<std::pair<Rect, Label>> expanded;
    if (!loPart.empty()) expanded.emplace_back(loPart, node.withBack(false));
    if (!hiPart.empty()) expanded.emplace_back(hiPart, node.withBack(true));
    if (expanded.size() <= 1 && pieces.size() == 1 && expanded.size() == 1) {
      // Degenerate: the whole subrange sits in one child; descending
      // keeps one piece but gets closer to the data.
      pieces[cursor] = expanded.front();
      continue;
    }
    if (expanded.empty()) {
      ++cursor;
      continue;
    }
    pieces.erase(pieces.begin() + static_cast<std::ptrdiff_t>(cursor));
    pieces.insert(pieces.end(), expanded.begin(), expanded.end());
  }
  for (auto& [range, node] : pieces) {
    wave.push_back(Task{range, node, branch, source, depthHint});
  }
}

mlight::index::RangeResult MLightIndex::rangeQuery(const Rect& range) {
  if (range.dims() != config_.dims) {
    throw std::invalid_argument("rangeQuery: wrong dimensionality");
  }
  const mlight::index::RectRegion region(range);
  return regionQuery(region);
}

mlight::index::RangeResult MLightIndex::regionQuery(
    const mlight::index::QueryRegion& region) {
  std::size_t count = 0;
  return regionQueryCore(region, /*collectRecords=*/true, count);
}

MLightIndex::CountResult MLightIndex::rangeCount(const Rect& range) {
  if (range.dims() != config_.dims) {
    throw std::invalid_argument("rangeCount: wrong dimensionality");
  }
  const mlight::index::RectRegion region(range);
  CountResult out;
  const auto res =
      regionQueryCore(region, /*collectRecords=*/false, out.count);
  out.stats = res.stats;
  return out;
}

mlight::index::RangeResult MLightIndex::regionQueryCore(
    const mlight::index::QueryRegion& region, bool collectRecords,
    std::size_t& countOut) {
  mlight::index::RangeResult out;
  const Rect box = region.boundingBox();
  if (box.dims() != config_.dims) {
    throw std::invalid_argument("regionQuery: wrong dimensionality");
  }
  const Rect clipped = box.intersection(Rect::unit(config_.dims));
  if (clipped.empty()) return out;

  // Freeze the read routes of boosted leaves at this quiescent point:
  // the cascade's handlers issue kGet reads mid-flight, and they
  // must consult a table fixed for the whole operation — never the live
  // load counters — to stay order-free under tie shuffling.
  const mlight::index::OpStats op(*net_, store_, /*freezeReadRoutes=*/true);
  const auto initiator = randomPeer();
  countOut = 0;

  // Range queries are the cheap way to warm the lookup cache: every leaf
  // the cascade touches becomes a hint for the *initiating* peer, so
  // later point operations in the queried region start from a direct
  // probe.  Learning happens AFTER the cascade quiesces, in sorted label
  // order — harvest runs inside RPC handlers, and handler order among
  // same-time deliveries is explicitly unspecified (the determinism
  // contract's schedule-perturbation tests reorder it), so feeding the
  // LRU in arrival order would make cache recency — and with it future
  // evictions and traffic — depend on tie-break order.
  std::vector<Label> learnedLeaves;

  // Hits are gathered as pointers into the owners' buckets and copied
  // into `out.records` once, after the cascade quiesces.  The pointers
  // stay valid: the cascade starts on an idle network and issues only
  // kGet reads, whose handler mutates no bucket (heat and read-repair
  // touch counters and copy lists), and the store keeps every bucket at
  // a stable address (one heap Entry per stored label).  The
  // paranoid audit re-checks every harvested bucket's storage before
  // the copy.
  std::vector<const Record*> hits;
  struct Harvested {
    const LeafBucket* bucket;
    const Record* data;
    std::size_t size;
  };
  std::vector<Harvested> harvested;
  const bool paranoid =
      mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid);

  // Collects from one visited bucket and ships the result (full records
  // or an 8-byte count) from the bucket's owner back to the initiator.
  // A bucket's records lie in its half-open leaf cell, so a cell inside
  // both the scope and the region is taken whole, and a cell the region
  // covers after clipping to the scope needs only the clip box test.
  const auto harvest = [&](const LeafBucket& bucket, const Rect& scopeRect,
                           mlight::dht::RingId owner) {
    if (config_.cache.enabled) {
      learnedLeaves.push_back(bucket.label);
    }
    const std::vector<Record>& records = bucket.records;
    const Rect cell = labelRegion(bucket.label, config_.dims);
    const std::size_t before = hits.size();
    std::size_t matched = 0;
    if (scopeRect.containsRect(cell) && region.covers(cell)) {
      if (paranoid) {
        mlight::common::auditRecordPlacement(
            cell, records,
            [](const Record& r) -> const Point& { return r.key; });
      }
      matched = records.size();
      if (collectRecords) {
        for (const Record& r : records) hits.push_back(&r);
      }
    } else {
      const auto take = [&](const Record& r) {
        ++matched;
        if (collectRecords) hits.push_back(&r);
      };
      const Rect clip = scopeRect.intersection(cell);
      if (region.covers(clip)) {
        for (const Record& r : records) {
          if (clip.contains(r.key)) take(r);
        }
      } else {
        for (const Record& r : records) {
          if (scopeRect.contains(r.key) && region.contains(r.key)) take(r);
        }
      }
    }
    countOut += matched;
    if (collectRecords) {
      std::size_t bytes = 0;
      for (std::size_t i = before; i < hits.size(); ++i) {
        bytes += hits[i]->byteSize();
      }
      net_->shipPayload(owner, initiator, bytes, matched);
      if (paranoid) {
        harvested.push_back(
            Harvested{&bucket, records.data(), records.size()});
      }
    } else if (matched != 0) {
      net_->shipPayload(owner, initiator, 8, 0);  // the count only
    }
  };

  // One forwarding step (Algorithm 3 body) as an RPC continuation: the
  // handler runs "at" the probed node's owner when the envelope arrives,
  // harvests locally, and issues follow-up RPCs one round deeper.  The
  // task tree — and hence every count metric — is identical to the old
  // breadth-first wave loop; only the timeline is now emergent (probes
  // of one round overlap, each chain deepens independently).
  std::function<void(const Task&, std::uint32_t)> issueTask =
      [&](const Task& task, std::uint32_t round) {
        const Label key = naming(task.target, config_.dims);
        store_.asyncAccess(
            mlight::dht::RpcKind::kGet, task.source, key, round,
            // `issueTask` and the locals captured by reference outlive
            // every handler: the event loop is pumped dry below, inside
            // this frame.
            [this, &issueTask, &harvest, &region, task,
             key](LeafBucket* bucket, const mlight::dht::RpcDelivery& d) {
              if (trace_ != nullptr) {
                trace_->push_back(TraceEvent{
                    d.env.round, key,
                    bucket != nullptr ? bucket->label : Label{},
                    bucket != nullptr});
              }
              if (bucket == nullptr) {
                // Speculation overshot the real tree; retry the in-tree
                // branch node without speculation.
                assert(task.target != task.fallback);
                issueTask(Task{task.range, task.fallback, task.fallback,
                               d.route.owner, task.depthHint},
                          d.env.round + 1);
                return;
              }
              const Label& leafLabel = bucket->label;
              if (task.target.isPrefixOf(leafLabel)) {
                harvest(*bucket, task.range, d.route.owner);
                const std::size_t hint = edgeDepth(leafLabel, config_.dims);
                std::vector<Task> follow;
                for (std::size_t len = task.target.size() + 1;
                     len <= leafLabel.size(); ++len) {
                  const Label branch = leafLabel.prefixSibling(len);
                  const Rect branchRegion = labelRegion(branch, config_.dims);
                  const Rect sub = task.range.intersection(branchRegion);
                  if (!sub.empty() && region.intersects(branchRegion)) {
                    enqueueForward(follow, sub, branch, d.route.owner, hint);
                  }
                }
                for (const Task& t : follow) issueTask(t, d.env.round + 1);
              } else if (labelRegion(leafLabel, config_.dims)
                             .containsRect(task.range)) {
                // Speculative probe landed on a leaf covering the piece.
                harvest(*bucket, task.range, d.route.owner);
              } else {
                // Mismatched speculative hit: fall back to the in-tree
                // node.
                assert(task.target != task.fallback);
                issueTask(Task{task.range, task.fallback, task.fallback,
                               d.route.owner, task.depthHint},
                          d.env.round + 1);
              }
            });
      };

  // Algorithm 2: forward to the LCA's name; the probe reaches a corner
  // cell of the LCA region (Theorem 1).  This first probe is round 1 and
  // stays synchronous — it alone decides whether the query degenerates
  // to a point lookup or fans out.
  const Label omega =
      lowestCommonAncestor(clipped, config_.dims, config_.maxEdgeDepth);
  const Label omegaKey = naming(omega, config_.dims);
  const auto first = store_.routeAndFind(initiator, omegaKey);
  if (trace_ != nullptr) {
    trace_->push_back(TraceEvent{
        1, omegaKey,
        first.bucket != nullptr ? first.bucket->label : Label{},
        first.bucket != nullptr});
  }

  if (first.failed) {
    // The LCA probe itself was unanswerable (every holder dark): the
    // whole query is a failed probe; return an empty partial result.
  } else if (first.bucket == nullptr) {
    // f_md(ω) is not an internal node, so a single leaf covers the whole
    // range; find it with a point lookup of the range's corner.  The
    // failed probe already proved the leaf is no deeper than f_md(ω);
    // the sequential probes continue the chain at round 2.
    const Located loc =
        locateCached(first.owner, clipped.lo(),
                     omegaKey.size() >= config_.dims + 1
                         ? edgeDepth(omegaKey, config_.dims)
                         : std::size_t{0},
                     /*roundBase=*/2);
    if (!loc.leaf.empty()) {
      const LeafBucket* bucket = store_.peek(loc.key);
      assert(bucket != nullptr);
      harvest(*bucket, clipped, loc.owner);
    }
  } else {
    const Label& leafLabel = first.bucket->label;
    harvest(*first.bucket, clipped, first.owner);
    // ω may be below the local leaf level; f_md(ω) is always a prefix of
    // the found leaf, so branch enumeration stays valid either way.
    const Label& base = omega.isPrefixOf(leafLabel) ? omega : omegaKey;
    const std::size_t hint = edgeDepth(leafLabel, config_.dims);
    // The base can be the virtual root (when f_md(ω) = 0...0); its only
    // real child is the root #, which has no sibling, so branch
    // enumeration starts below the root.
    const std::size_t firstLen = std::max(base.size() + 1, config_.dims + 2);
    std::vector<Task> seed;
    for (std::size_t len = firstLen; len <= leafLabel.size(); ++len) {
      const Label branch = leafLabel.prefixSibling(len);
      const Rect branchRegion = labelRegion(branch, config_.dims);
      const Rect sub = clipped.intersection(branchRegion);
      if (!sub.empty() && region.intersects(branchRegion)) {
        enqueueForward(seed, sub, branch, first.owner, hint);
      }
    }
    for (const Task& t : seed) issueTask(t, 2);
  }

  // Drive the cascade to quiescence; stats fall out of the timeline.
  net_->run();
  for (const Harvested& h : harvested) {
    mlight::common::auditStableStorage(h.data, h.size,
                                       h.bucket->records.data(),
                                       h.bucket->records.size());
  }
  out.records.reserve(hits.size());
  for (const Record* r : hits) out.records.push_back(*r);
  store_.drainLoadBalance();
  if (config_.cache.enabled && !learnedLeaves.empty()) {
    std::sort(learnedLeaves.begin(), learnedLeaves.end());
    learnedLeaves.erase(
        std::unique(learnedLeaves.begin(), learnedLeaves.end()),
        learnedLeaves.end());
    auto& cache = hintCaches_.forPeer(initiator.value);
    for (const Label& leaf : learnedLeaves) {
      if (cache.learn(leaf, static_cast<std::uint32_t>(
                                edgeDepth(leaf, config_.dims)))) {
        net_->noteHintEviction();
      }
    }
  }
  op.finish(out.stats);
  return out;
}

}  // namespace mlight::core
