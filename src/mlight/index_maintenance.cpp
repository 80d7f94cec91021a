// MLightIndex maintenance paths: bulk loading, threshold split/merge
// loops (§4.1, Theorem 5) and the data-aware adjustment (§4.2,
// Algorithm 1).
#include "mlight/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/invariants.h"

#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "mlight/split.h"

namespace mlight::core {

void MLightIndex::bulkLoad(std::span<const Record> records) {
  if (size_ != 0) {
    throw std::logic_error("bulkLoad requires an empty index");
  }
  for (const Record& r : records) {
    mlight::index::requireIndexableKey(r.key, config_.dims, "bulkLoad");
  }
  // The one pass over the input: its keys, packed for the planner.
  std::vector<double> keys;
  keys.reserve(records.size() * config_.dims);
  for (const Record& r : records) {
    for (std::size_t d = 0; d < config_.dims; ++d) keys.push_back(r.key[d]);
  }
  const Label root = rootLabel(config_.dims);
  std::vector<PlanLeaf> leaves =
      planSplit(config_.strategy,
                config_.strategy == SplitStrategy::kThreshold
                    ? static_cast<double>(config_.thetaSplit)
                    : config_.epsilon,
                root, Rect::unit(config_.dims), records, keys, config_.dims,
                config_.maxEdgeDepth)
          .leaves;
  if (config_.strategy == SplitStrategy::kDataAware &&
      mlight::common::auditEnabled(mlight::common::AuditLevel::kBoundaries)) {
    std::vector<std::size_t> planLoads;
    planLoads.reserve(leaves.size());
    for (const PlanLeaf& leaf : leaves) planLoads.push_back(leaf.records.size());
    mlight::common::auditLoadVariance(planLoads, config_.epsilon);
  }
  // Replace the bootstrap root bucket with the computed layout: one
  // DHT-put per leaf from the initiating peer.
  store_.erase(naming(root, config_.dims));
  const auto initiator = randomPeer();
  for (PlanLeaf& leaf : leaves) {
    const Label key = naming(leaf.label, config_.dims);
    LeafBucket bucket(std::move(leaf.label), std::move(leaf.records));
    size_ += bucket.recordCount();
    breakdown_.insertShipBytes += bucket.byteSize();
    store_.place(initiator, key, std::move(bucket));
  }
  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kBoundaries)) {
    checkInvariants();
  }
}

void MLightIndex::thresholdSplitLoop(Label key) {
  std::vector<Label> pending{std::move(key)};
  while (!pending.empty()) {
    const Label k = std::move(pending.back());
    pending.pop_back();
    LeafBucket* bucket = store_.peek(k);
    if (bucket == nullptr ||
        bucket->recordCount() <= config_.thetaSplit) {
      continue;
    }
    const Label lambda = bucket->label;
    if (edgeDepth(lambda, config_.dims) >= config_.maxEdgeDepth) continue;

    // One level of the threshold rule: the two children, lower first.
    SplitPlan plan = planSplit(
        SplitStrategy::kThreshold, static_cast<double>(config_.thetaSplit),
        lambda, labelRegion(lambda, config_.dims), bucket->records(),
        bucket->keys(), config_.dims, edgeDepth(lambda, config_.dims) + 1);
    MLIGHT_CHECK(plan.leaves.size() == 2, "a threshold step splits once");
    const Label key0 = naming(plan.leaves[0].label, config_.dims);
    const Label key1 = naming(plan.leaves[1].label, config_.dims);
    // Theorem 5 (incremental split): one child keeps the parent's DHT key
    // and never leaves this peer; only the other is re-assigned.
    mlight::common::auditIncrementalSplit(lambda, k, key0, key1);
    PlanLeaf& stayLeaf = plan.leaves[key0 == k ? 0 : 1];
    PlanLeaf& moveLeaf = plan.leaves[key0 == k ? 1 : 0];
    LeafBucket stay(std::move(stayLeaf.label), std::move(stayLeaf.records));
    LeafBucket move(std::move(moveLeaf.label), std::move(moveLeaf.records));

    const auto owner = store_.ownerOf(k);
    MLIGHT_CHECK(store_.peek(lambda) == nullptr,
                 "naming bijection violated");
    breakdown_.splitStayLocal += 1;
    breakdown_.splitShipBytes += move.byteSize();
    breakdown_.splitBucketMoves += 1;
    store_.placeLocal(k, std::move(stay));
    store_.place(owner, lambda, std::move(move));  // one DHT-put

    pending.push_back(k);
    pending.push_back(lambda);
  }
}

void MLightIndex::dataAwareAdjust(const Label& key) {
  LeafBucket* bucket = store_.peek(key);
  assert(bucket != nullptr);
  const Label lambda = bucket->label;
  SplitPlan plan = planSplit(
      SplitStrategy::kDataAware, config_.epsilon, lambda,
      labelRegion(lambda, config_.dims), bucket->records(), bucket->keys(),
      config_.dims, config_.maxEdgeDepth);
  if (!plan.splits()) return;

  const auto owner = store_.ownerOf(key);
  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kBoundaries)) {
    // Theorem 5 generalized to whole split subtrees, plus Theorem 6
    // minimality of the chosen plan.
    std::vector<Label> planKeys;
    std::vector<std::size_t> planLoads;
    planKeys.reserve(plan.leaves.size());
    planLoads.reserve(plan.leaves.size());
    for (const PlanLeaf& leaf : plan.leaves) {
      planKeys.push_back(naming(leaf.label, config_.dims));
      planLoads.push_back(leaf.records.size());
    }
    mlight::common::auditIncrementalSplitPlan(key, planKeys);
    mlight::common::auditLoadVariance(planLoads, config_.epsilon);
  }
  bool placedStay = false;
  for (PlanLeaf& leaf : plan.leaves) {
    const Label leafKey = naming(leaf.label, config_.dims);
    LeafBucket newBucket(std::move(leaf.label), std::move(leaf.records));
    if (leafKey == key) {
      // The one leaf named to the old key stays on this peer (Theorem 5
      // generalized to whole split subtrees).
      breakdown_.splitStayLocal += 1;
      store_.placeLocal(leafKey, std::move(newBucket));
      placedStay = true;
    } else {
      MLIGHT_CHECK(store_.peek(leafKey) == nullptr,
                   "naming bijection violated");
      breakdown_.splitShipBytes += newBucket.byteSize();
      breakdown_.splitBucketMoves += 1;
      store_.place(owner, leafKey, std::move(newBucket));
    }
  }
  MLIGHT_CHECK(placedStay, "exactly one plan leaf must keep the old key");
}

void MLightIndex::thresholdMergeLoop(Label key) {
  for (;;) {
    LeafBucket* bucket = store_.peek(key);
    if (bucket == nullptr) return;
    const Label lambda = bucket->label;
    if (lambda == rootLabel(config_.dims)) return;

    const Label sib = lambda.sibling();
    const Label parent = [&] {
      Label p = lambda;
      p.popBack();
      return p;
    }();
    // Probe the sibling (one DHT-lookup).  The bucket under f_md(sibling)
    // is the sibling itself iff the sibling is a leaf.
    const Label sibKey = naming(sib, config_.dims);
    const auto found = store_.routeAndFind(store_.ownerOf(key), sibKey);
    MLIGHT_CHECK(found.bucket != nullptr, "tree keys must be dense");
    if (found.bucket->label != sib) return;  // sibling is internal
    if (bucket->recordCount() + found.bucket->recordCount() >=
        config_.thetaMerge) {
      return;
    }

    // Merge: children of `parent` sit under keys {f_md(parent), parent};
    // the one under f_md(parent) absorbs the other (one bucket transfer).
    const Label stayKey = naming(parent, config_.dims);
    mlight::common::auditIncrementalSplit(parent, stayKey, key, sibKey);
    std::vector<Record> mergedRecords = bucket->records();
    mergedRecords.insert(mergedRecords.end(),
                         found.bucket->records().begin(),
                         found.bucket->records().end());
    LeafBucket merged(parent, std::move(mergedRecords));

    const LeafBucket* moving = store_.peek(parent);
    assert(moving != nullptr);
    breakdown_.mergeShipBytes += moving->byteSize();
    net_->shipPayload(store_.ownerOf(parent), store_.ownerOf(stayKey),
                      moving->byteSize(), moving->recordCount());
    store_.erase(parent);
    store_.placeLocal(stayKey, std::move(merged));
    key = stayKey;  // the merged leaf may merge again with *its* sibling
  }
}

}  // namespace mlight::core
