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

/// One range or count query in flight.  Its tasks live in the index's
/// reused arena (RangeScratch::tasks) and each probe's continuation
/// captures {cascade, task index} — two words, inside std::function's
/// inline buffer — so a probe allocates nothing once the scratch has
/// warmed up.  Branch cells are threaded down the leaf path with
/// Rect::halved instead of being recomputed per label.
struct MLightIndex::RangeCascade {
  MLightIndex& ix;
  const mlight::index::QueryRegion& region;
  const bool collect;
  const mlight::dht::RingId initiator;
  const bool paranoid;
  RangeScratch& s;
  std::size_t count = 0;

  /// Queues the probes for `subRange` below the branch node `branch`
  /// (whose region is `cell`).
  void forward(const Rect& subRange, const Rect& cell, const Label& branch,
               mlight::dht::RingId source, std::size_t depthHint) {
    const MLightConfig& cfg = ix.config_;
    if (cfg.lookahead <= 1) {
      s.tasks.push_back(Task{subRange, cell, branch, branch, source,
                             depthHint});
      return;
    }
    // Parallel variant (§6): speculatively descend the globally-known
    // space partition below the branch node, splitting the subrange into
    // up to h pieces probed in the same round.  Pieces that overshoot the
    // real tree fall back to re-probing the branch node itself next
    // round; the depth hint (local leaf depth observed so far) keeps that
    // rare.  Pieces expand breadth-first; a piece that cannot expand is
    // kept ahead of the still-queued ones.
    const std::size_t maxPieceDepth = std::min(
        cfg.maxEdgeDepth, std::max(edgeDepth(branch, cfg.dims), depthHint));
    s.kept.clear();
    s.queue.clear();
    s.queue.push_back(Piece{subRange, cell, branch});
    std::size_t head = 0;
    while (s.kept.size() + (s.queue.size() - head) < cfg.lookahead &&
           head < s.queue.size()) {
      const std::size_t depth = edgeDepth(s.queue[head].node, cfg.dims);
      if (depth >= maxPieceDepth) {
        s.kept.push_back(std::move(s.queue[head++]));
        continue;
      }
      const std::size_t dim = splitDimension(depth, cfg.dims);
      Piece lo{};
      Piece hi{};
      lo.cell = s.queue[head].cell.halved(dim, false);
      hi.cell = s.queue[head].cell.halved(dim, true);
      lo.range = s.queue[head].range.intersection(lo.cell);
      hi.range = s.queue[head].range.intersection(hi.cell);
      const bool haveLo = !lo.range.empty();
      const bool haveHi = !hi.range.empty();
      if (haveLo) lo.node = s.queue[head].node.withBack(false);
      if (haveHi) hi.node = s.queue[head].node.withBack(true);
      if (haveLo != haveHi && s.kept.empty() &&
          s.queue.size() - head == 1) {
        // Degenerate: the whole subrange sits in one child; descending
        // keeps one piece but gets closer to the data.
        s.queue[head] = haveLo ? std::move(lo) : std::move(hi);
        continue;
      }
      if (!haveLo && !haveHi) {
        s.kept.push_back(std::move(s.queue[head++]));
        continue;
      }
      ++head;
      if (haveLo) s.queue.push_back(std::move(lo));
      if (haveHi) s.queue.push_back(std::move(hi));
    }
    for (Piece& p : s.kept) {
      s.tasks.push_back(Task{std::move(p.range), std::move(p.cell),
                             std::move(p.node), branch, source, depthHint});
    }
    for (std::size_t i = head; i < s.queue.size(); ++i) {
      Piece& p = s.queue[i];
      s.tasks.push_back(Task{std::move(p.range), std::move(p.cell),
                             std::move(p.node), branch, source, depthHint});
    }
  }

  /// Walks `leaf`'s path from prefix length `firstLen - 1`, whose region
  /// `cell` holds on entry, down to the leaf (whose region it holds on
  /// return), and forwards the part of `range` under every branch node
  /// (Algorithm 3's sibling enumeration).
  void forwardBranches(const Label& leaf, std::size_t firstLen, Rect& cell,
                       const Rect& range, mlight::dht::RingId source) {
    const std::size_t m = ix.config_.dims;
    const std::size_t hint = edgeDepth(leaf, m);
    for (std::size_t len = firstLen; len <= leaf.size(); ++len) {
      const std::size_t dim = splitDimension(len - 1 - (m + 1), m);
      const bool bit = leaf.bit(len - 1);
      const Rect branchCell = cell.halved(dim, !bit);
      cell = cell.halved(dim, bit);
      const Rect sub = range.intersection(branchCell);
      if (!sub.empty() && region.intersects(branchCell)) {
        forward(sub, branchCell, leaf.prefixSibling(len), source, hint);
      }
    }
  }

  /// Collects from one visited bucket (region `cell`) what lies in the
  /// scope and the region.  A bucket's records lie in its half-open leaf
  /// cell, so a cell inside both the scope and the region is one whole
  /// run, and a cell the region covers after clipping to the scope is
  /// filtered with the clip box on the bucket's key array.  Hits are
  /// runs of consecutive records; copying them (and shipping their
  /// bytes) waits for quiescence.  A count query ships its 8-byte count
  /// here.
  void harvest(const LeafBucket& bucket, const Rect& cell,
               const Rect& scope, mlight::dht::RingId owner) {
    if (ix.config_.cache.enabled) s.learned.push_back(bucket.label);
    const std::vector<Record>& records = bucket.records();
    const std::size_t n = records.size();
    std::size_t matched = 0;
    const auto takeRun = [&](std::size_t first, std::size_t len) {
      if (collect) s.runs.push_back(HarvestRun{records.data() + first, len});
    };
    if (scope.containsRect(cell) && region.covers(cell)) {
      if (paranoid) {
        mlight::common::auditRecordPlacement(
            cell, records,
            [](const Record& r) -> const Point& { return r.key; });
      }
      matched = n;
      if (n != 0) takeRun(0, n);
    } else {
      const Rect clip = scope.intersection(cell);
      if (region.covers(clip)) {
        matched = bucket.scanBox(clip, takeRun);
      } else {
        // Exact test per record (non-box regions), merged into runs.
        std::size_t openRunEnd = n + 1;  // no run of this bucket is open
        for (std::size_t i = 0; i < n; ++i) {
          const Point& key = records[i].key;
          if (!scope.contains(key) || !region.contains(key)) continue;
          ++matched;
          if (!collect) continue;
          if (i == openRunEnd) {
            ++s.runs.back().n;
          } else {
            takeRun(i, 1);
          }
          openRunEnd = i + 1;
        }
      }
    }
    count += matched;
    if (collect) {
      s.harvested.push_back(
          Harvested{&bucket, records.data(), n, owner, s.runs.size()});
    } else if (matched != 0) {
      ix.net_->shipPayload(owner, initiator, 8, 0);  // the count only
    }
  }

  /// Issues the probes of tasks [from, end of arena) at `round`.
  void issue(std::size_t from, std::uint32_t round) {
    const std::size_t end = s.tasks.size();
    for (std::size_t i = from; i < end; ++i) {
      const Task& task = s.tasks[i];
      ix.store_.asyncAccess(
          mlight::dht::RpcKind::kGet, task.source,
          naming(task.target, ix.config_.dims), round,
          // The cascade outlives every handler: the event loop is pumped
          // dry inside regionQueryCore, whose frame owns it.
          [this, at = static_cast<std::uint32_t>(i)](
              LeafBucket* bucket, const mlight::dht::RpcDelivery& d) {
            onProbe(at, bucket, d);
          });
    }
  }

  /// One forwarding step (Algorithm 3 body) as an RPC continuation: the
  /// handler runs "at" the probed node's owner when the envelope
  /// arrives, harvests locally, and issues follow-up RPCs one round
  /// deeper.  The task tree — and hence every count metric — is that of
  /// a breadth-first wave loop; only the timeline is emergent (probes of
  /// one round overlap, each chain deepens independently).
  void onProbe(std::uint32_t at, LeafBucket* bucket,
               const mlight::dht::RpcDelivery& d) {
    const MLightConfig& cfg = ix.config_;
    // Follow-up tasks grow (and may move) the arena: copy what is needed
    // from this task before queueing any.
    const Task& task = s.tasks[at];
    if (ix.trace_ != nullptr) {
      ix.trace_->push_back(TraceEvent{
          d.env.round, naming(task.target, cfg.dims),
          bucket != nullptr ? bucket->label : Label{}, bucket != nullptr});
    }
    const std::size_t from = s.tasks.size();
    if (bucket != nullptr && task.target.isPrefixOf(bucket->label)) {
      const Rect range = task.range;
      Rect cell = task.cell;
      forwardBranches(bucket->label, task.target.size() + 1, cell, range,
                      d.route.owner);
      harvest(*bucket, cell, range, d.route.owner);
    } else if (bucket == nullptr) {
      // Speculation overshot the real tree: retry the in-tree branch
      // node without speculation.
      retryFallback(task, d.route.owner);
    } else {
      const Rect leafCell = labelRegion(bucket->label, cfg.dims);
      if (leafCell.containsRect(task.range)) {
        // Speculative probe landed on a leaf covering the piece.
        harvest(*bucket, leafCell, task.range, d.route.owner);
      } else {
        // Mismatched speculative hit: fall back to the in-tree node.
        retryFallback(task, d.route.owner);
      }
    }
    issue(from, d.env.round + 1);
  }

  /// Queues a speculative task's in-tree branch node, probed from `from`.
  void retryFallback(const Task& task, mlight::dht::RingId from) {
    assert(task.target != task.fallback);
    Task retry{task.range, labelRegion(task.fallback, ix.config_.dims),
               task.fallback, task.fallback, from, task.depthHint};
    s.tasks.push_back(std::move(retry));
  }

  /// Copies every run into `out` at quiescence and ships each bucket's
  /// bytes from its owner, summing byteSize() in the same pass.
  void gather(std::vector<Record>& out) {
    out.reserve(count);
    std::size_t run = 0;
    for (const Harvested& h : s.harvested) {
      if (paranoid) {
        mlight::common::auditStableStorage(h.data, h.size,
                                           h.bucket->records().data(),
                                           h.bucket->recordCount());
      }
      const std::size_t before = out.size();
      std::size_t bytes = 0;
      for (; run < h.runEnd; ++run) {
        const HarvestRun& r = s.runs[run];
        for (const Record* p = r.first; p != r.first + r.n; ++p) {
          bytes += p->byteSize();
          out.push_back(*p);
        }
      }
      ix.net_->shipPayload(h.owner, initiator, bytes, out.size() - before);
    }
  }
};

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

  // The bracket freezes the read routes of boosted leaves at this
  // quiescent point: the cascade's handlers issue kGet reads mid-flight,
  // and they
  // must consult a table fixed for the whole operation — never the live
  // load counters — to stay order-free under tie shuffling.
  const mlight::index::OpStats op(*net_, store_);
  const auto initiator = randomPeer();

  // Range queries are the cheap way to warm the lookup cache: every leaf
  // the cascade touches becomes a hint for the *initiating* peer, so
  // later point operations in the queried region start from a direct
  // probe.  Learning happens AFTER the cascade quiesces, in sorted label
  // order — harvest runs inside RPC handlers, and handler order among
  // same-time deliveries is explicitly unspecified (the determinism
  // contract's schedule-perturbation tests reorder it), so feeding the
  // LRU in arrival order would make cache recency — and with it future
  // evictions and traffic — depend on tie-break order.
  //
  // Hits are gathered as runs of pointers into the owners' buckets and
  // copied into `out.records` once, after the cascade quiesces.  The
  // pointers stay valid: the cascade starts on an idle network and
  // issues only kGet reads, whose handler mutates no bucket (heat and
  // read-repair touch counters and copy lists), and the store keeps
  // every bucket at a stable address (one heap Entry per stored label).
  // The paranoid audit re-checks every harvested bucket's storage before
  // the copy.
  RangeScratch& s = rangeScratch_;
  s.tasks.clear();
  s.runs.clear();
  s.harvested.clear();
  s.learned.clear();
  RangeCascade cascade{
      *this, region, collectRecords, initiator,
      mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid),
      s};

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
        locate(first.owner, clipped.lo(),
                     omegaKey.size() >= config_.dims + 1
                         ? edgeDepth(omegaKey, config_.dims)
                         : std::size_t{0},
                     /*roundBase=*/2);
    if (!loc.failed) {
      const LeafBucket* bucket = store_.peek(loc.key);
      assert(bucket != nullptr);
      cascade.harvest(*bucket, labelRegion(bucket->label, config_.dims),
                      clipped, loc.owner);
    }
  } else {
    const Label& leafLabel = first.bucket->label;
    // ω may be below the local leaf level; f_md(ω) is always a prefix of
    // the found leaf, so branch enumeration stays valid either way.
    const Label& base = omega.isPrefixOf(leafLabel) ? omega : omegaKey;
    // The base can be the virtual root (when f_md(ω) = 0...0); its only
    // real child is the root #, which has no sibling, so branch
    // enumeration starts below the root.
    const std::size_t firstLen = std::max(base.size() + 1, config_.dims + 2);
    Rect cell = labelRegion(leafLabel.prefix(firstLen - 1), config_.dims);
    cascade.forwardBranches(leafLabel, firstLen, cell, clipped, first.owner);
    cascade.harvest(*first.bucket, cell, clipped, first.owner);
    cascade.issue(0, 2);
  }

  // Drive the cascade to quiescence; stats fall out of the timeline.
  net_->run();
  countOut = cascade.count;
  if (collectRecords) cascade.gather(out.records);
  store_.drainLoadBalance();
  if (config_.cache.enabled && !s.learned.empty()) {
    std::sort(s.learned.begin(), s.learned.end());
    s.learned.erase(std::unique(s.learned.begin(), s.learned.end()),
                    s.learned.end());
    auto& cache = hintCaches_.forPeer(initiator.value);
    for (const Label& leaf : s.learned) {
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
