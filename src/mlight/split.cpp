#include "mlight/split.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/check.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"

namespace mlight::core {

namespace {

double sq(double v) noexcept { return v * v; }

/// Recursive core of planSplit.  Each call owns the index range
/// [first, last) of `idx`; a split compacts the lower child's indices in
/// place and stages the upper child's in `scratch`, so both children
/// stay in input order and no record moves before its leaf is final.
/// The split tests read `keys`, not the 112-byte records themselves.
struct KdPlanner {
  /// A leaf cell found so far.  `permuted` marks a cell whose split was
  /// undone: its children left its index range out of input order.
  struct Cell {
    BitString label;
    std::size_t first;
    std::size_t last;
    bool permuted;
  };

  SplitStrategy rule;
  double limit;
  std::span<const double> keys;
  std::span<std::size_t> idx;
  std::span<std::size_t> scratch;
  std::size_t dims;
  std::size_t maxEdgeDepth;
  std::vector<Cell> cells;

  /// Plans the cell and returns its subtree's Σ (load − limit)².
  /// `label` is a scratch string mutated in place down the recursion
  /// (pushBack on descent, popBack on return) — the DP explores O(2^D)
  /// nodes; only leaf cells copy the label.
  double run(BitString& label, const Rect& region, std::size_t first,
             std::size_t last) {
    const double load = static_cast<double>(last - first);
    const double localCost = sq(load - limit);
    const std::size_t depth = edgeDepth(label, dims);
    if (load <= limit || depth >= maxEdgeDepth) {
      cells.push_back({label, first, last, false});
      return localCost;
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
    const std::size_t mark = cells.size();
    label.pushBack(false);
    double splitCost = run(label, region.halved(dim, false), first, lo);
    label.flipBack();
    splitCost += run(label, region.halved(dim, true), lo, last);
    label.popBack();
    if (rule == SplitStrategy::kDataAware && localCost <= splitCost) {
      cells.resize(mark);
      cells.push_back({label, first, last, true});
      return localCost;
    }
    return splitCost;
  }
};

}  // namespace

SplitPlan planSplit(SplitStrategy rule, double limit, const BitString& label,
                    const Rect& region, std::span<const Record> records,
                    std::span<const double> keys, std::size_t dims,
                    std::size_t maxEdgeDepth) {
  MLIGHT_CHECK(keys.size() == records.size() * dims,
               "planSplit: keys must pack `dims` doubles per record");
  std::vector<std::size_t> idx(records.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::vector<std::size_t> scratch(records.size());
  KdPlanner planner{rule, limit, keys, idx, scratch, dims, maxEdgeDepth, {}};
  BitString path = label;
  SplitPlan plan;
  plan.cost = planner.run(path, region, 0, records.size());
  assert(path == label && "planner must restore its scratch label");

  plan.leaves.reserve(planner.cells.size());
  for (KdPlanner::Cell& cell : planner.cells) {
    const auto first = idx.begin() + static_cast<std::ptrdiff_t>(cell.first);
    const auto last = idx.begin() + static_cast<std::ptrdiff_t>(cell.last);
    if (cell.permuted) std::sort(first, last);
    PlanLeaf& leaf = plan.leaves.emplace_back(std::move(cell.label));
    leaf.records.reserve(cell.last - cell.first);
    for (auto it = first; it != last; ++it) {
      leaf.records.push_back(records[*it]);
    }
  }
  return plan;
}

}  // namespace mlight::core
