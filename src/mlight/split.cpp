#include "mlight/split.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "mlight/kdspace.h"
#include "mlight/naming.h"

namespace mlight::core {

namespace {

double sq(double v) noexcept { return v * v; }

/// Copies the records at `idx`, in that order, into a plan leaf: the one
/// record copy either strategy makes.
PlanLeaf gatherLeaf(const BitString& label, std::span<const Record> records,
                    std::span<const std::size_t> idx) {
  PlanLeaf leaf{label, {}};
  leaf.records.reserve(idx.size());
  for (std::size_t i : idx) leaf.records.push_back(records[i]);
  return leaf;
}

/// Recursive core of planThresholdSplit.  Each call owns the index range
/// [first, last) of `idx`; a split compacts the lower child's indices in
/// place and stages the upper child's in `scratch`, so both children
/// stay in input order and no record moves before its leaf is final.
/// The split tests read `keys`, the input's coordinates packed `dims`
/// doubles per record, not the 112-byte records themselves.
struct ThresholdPlanner {
  std::span<const Record> records;
  std::span<const double> keys;
  std::span<std::size_t> idx;
  std::span<std::size_t> scratch;
  std::size_t theta;
  std::size_t dims;
  std::size_t maxEdgeDepth;
  std::vector<PlanLeaf>& leaves;

  /// `label` is mutated in place down the recursion, as in Planner.
  void run(BitString& label, const Rect& region, std::size_t first,
           std::size_t last) {
    const std::size_t depth = edgeDepth(label, dims);
    if (last - first <= theta || depth >= maxEdgeDepth) {
      leaves.push_back(
          gatherLeaf(label, records, idx.subspan(first, last - first)));
      return;
    }
    const std::size_t dim = splitDimension(depth, dims);
    const double mid = region.mid(dim);
    std::size_t lo = first;
    std::size_t hi = 0;
    // Branch-free: each index is written to both sides and only its own
    // side's cursor advances, since a branch on the data-dependent side
    // mispredicts often.  idx[lo] is safe to write because lo <= k.
    for (std::size_t k = first; k < last; ++k) {
      const std::size_t i = idx[k];
      const bool upper = keys[i * dims + dim] >= mid;
      scratch[hi] = i;
      idx[lo] = i;
      hi += upper ? 1 : 0;
      lo += upper ? 0 : 1;
    }
    std::copy_n(scratch.begin(), hi,
                idx.begin() + static_cast<std::ptrdiff_t>(lo));
    label.pushBack(false);
    run(label, region.halved(dim, false), first, lo);
    label.flipBack();
    run(label, region.halved(dim, true), lo, last);
    label.popBack();
  }
};

/// Recursive core of Algorithm 1 over index subsets (no record copies
/// until materialization).
struct Planner {
  std::span<const Record> records;
  double epsilon;
  std::size_t dims;
  std::size_t maxEdgeDepth;

  struct Node {
    double cost;
    std::vector<std::pair<BitString, std::vector<std::size_t>>> leaves;
  };

  /// `label` is a scratch string mutated in place down the recursion
  /// (pushBack on descent, popBack on return) — the DP explores O(2^D)
  /// nodes and a per-node label copy dominated its runtime; only
  /// materialized leaves copy the label.
  Node run(BitString& label, const Rect& region,
           std::vector<std::size_t> idx) const {
    const double localCost = sq(static_cast<double>(idx.size()) - epsilon);
    const bool atDepthCap = edgeDepth(label, dims) >= maxEdgeDepth;
    if (static_cast<double>(idx.size()) <= epsilon || atDepthCap) {
      Node n{localCost, {}};
      n.leaves.emplace_back(label, std::move(idx));
      return n;
    }
    const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
    const double mid = region.mid(dim);
    std::vector<std::size_t> loIdx;
    std::vector<std::size_t> hiIdx;
    for (std::size_t i : idx) {
      (records[i].key[dim] >= mid ? hiIdx : loIdx).push_back(i);
    }
    label.pushBack(false);
    Node left = run(label, region.halved(dim, false), std::move(loIdx));
    label.flipBack();
    Node right = run(label, region.halved(dim, true), std::move(hiIdx));
    label.popBack();
    const double splitCost = left.cost + right.cost;
    if (localCost <= splitCost) {
      Node n{localCost, {}};
      n.leaves.emplace_back(label, std::move(idx));
      return n;
    }
    Node n{splitCost, std::move(left.leaves)};
    n.leaves.insert(n.leaves.end(),
                    std::make_move_iterator(right.leaves.begin()),
                    std::make_move_iterator(right.leaves.end()));
    return n;
  }
};

}  // namespace

std::pair<std::vector<Record>, std::vector<Record>> partitionOnce(
    const BitString& label, const Rect& region,
    std::span<const Record> records, std::size_t dims) {
  const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
  const double mid = region.mid(dim);
  // Count first so each side is allocated once, at its exact size.
  const auto highCount = static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [&](const Record& r) { return r.key[dim] >= mid; }));
  std::vector<Record> lo;
  std::vector<Record> hi;
  lo.reserve(records.size() - highCount);
  hi.reserve(highCount);
  for (const Record& r : records) {
    (r.key[dim] >= mid ? hi : lo).push_back(r);
  }
  return {std::move(lo), std::move(hi)};
}

SplitPlan planThresholdSplit(const BitString& label, const Rect& region,
                             std::span<const Record> records,
                             std::size_t theta, std::size_t dims,
                             std::size_t maxEdgeDepth) {
  std::vector<double> keys;
  keys.reserve(records.size() * dims);
  for (const Record& r : records) {
    for (std::size_t d = 0; d < dims; ++d) keys.push_back(r.key[d]);
  }
  std::vector<std::size_t> idx(records.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<std::size_t> scratch(records.size());
  SplitPlan plan;
  ThresholdPlanner planner{records, keys, idx, scratch,
                           theta, dims, maxEdgeDepth, plan.leaves};
  BitString path = label;
  planner.run(path, region, 0, records.size());
  assert(path == label && "planner must restore its scratch label");
  return plan;
}

SplitPlan planDataAwareSplit(const BitString& label, const Rect& region,
                             std::span<const Record> records, double epsilon,
                             std::size_t dims, std::size_t maxEdgeDepth) {
  std::vector<std::size_t> idx(records.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  const Planner planner{records, epsilon, dims, maxEdgeDepth};
  BitString scratch = label;
  Planner::Node node = planner.run(scratch, region, std::move(idx));
  assert(scratch == label && "planner must restore its scratch label");

  SplitPlan plan;
  plan.cost = node.cost;
  plan.leaves.reserve(node.leaves.size());
  for (const auto& [leafLabel, leafIdx] : node.leaves) {
    plan.leaves.push_back(gatherLeaf(leafLabel, records, leafIdx));
  }
  return plan;
}

namespace {

/// Enumerates the total cost of *every* split subtree rooted at the node
/// (independently of the DP in planDataAwareSplit, which only propagates
/// minima): each subtree either keeps the node as a leaf or splits it and
/// combines any pair of left/right subtree costs.
std::vector<double> allSubtreeCosts(const BitString& label,
                                    const Rect& region,
                                    std::span<const Record> records,
                                    double epsilon, std::size_t dims,
                                    std::size_t maxEdgeDepth) {
  std::vector<Record> owned(records.begin(), records.end());
  std::vector<double> costs{sq(static_cast<double>(owned.size()) - epsilon)};
  if (edgeDepth(label, dims) >= maxEdgeDepth ||
      static_cast<double>(owned.size()) <= epsilon) {
    return costs;
  }
  auto [lo, hi] = partitionOnce(label, region, owned, dims);
  const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
  const auto leftCosts =
      allSubtreeCosts(label.withBack(false), region.halved(dim, false), lo,
                      epsilon, dims, maxEdgeDepth);
  const auto rightCosts =
      allSubtreeCosts(label.withBack(true), region.halved(dim, true), hi,
                      epsilon, dims, maxEdgeDepth);
  for (double l : leftCosts) {
    for (double r : rightCosts) costs.push_back(l + r);
  }
  return costs;
}

}  // namespace

double bruteForceSplitCost(const BitString& label, const Rect& region,
                           std::span<const Record> records, double epsilon,
                           std::size_t dims, std::size_t maxEdgeDepth) {
  const auto costs = allSubtreeCosts(label, region, records, epsilon, dims,
                                     maxEdgeDepth);
  return *std::min_element(costs.begin(), costs.end());
}

}  // namespace mlight::core
