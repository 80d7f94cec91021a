// Index splitting (paper §4): one kd planner, two rules.
//
// Both rules halve the same space kd-tree under a bucket and differ only
// in when a cell stops and whether a split stands:
//
// Threshold (§4.1): a cell holding more than θ_split records splits,
// halving its region once per level (classic kd behaviour; may create
// empty buckets on skewed data).  The online split asks for one level.
//
// Data-aware (§4.2, Algorithm 1): given an expected per-bucket load ε,
// the planner computes the *optimal split subtree* rooted at the bucket,
// the one minimizing Σ_leaves (load − ε)², and a split stands only if
// strictly better than staying whole.  Theorem 6: this minimizes the
// variance of expected load across peers.  The computation is the
// divide-and-conquer of Algorithm 1 and runs entirely locally (no DHT
// traffic).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bitstring.h"
#include "common/geometry.h"
#include "index/record.h"

namespace mlight::core {

using mlight::common::BitString;
using mlight::common::Rect;
using mlight::index::Record;

enum class SplitStrategy {
  kThreshold,  ///< split when load > θ_split, merge when siblings < θ_merge
  kDataAware,  ///< Algorithm 1: optimal split subtree targeting load ε
};

/// One leaf of a split plan: its label and the records it receives.
struct PlanLeaf {
  BitString label;
  std::vector<Record> records;
};

/// Result of the local split computation.
struct SplitPlan {
  /// Σ (load − limit)² over the plan's leaves: the quantity the
  /// data-aware rule minimizes.
  double cost = 0.0;
  /// The leaves of the split subtree, left-to-right.  A single leaf
  /// equal to the input bucket means "do not split".
  std::vector<PlanLeaf> leaves;

  bool splits() const noexcept { return leaves.size() > 1; }
};

/// Plans the split subtree of the bucket `label` (region `region`)
/// holding `records`, whose coordinates `keys` packs `dims` doubles per
/// record in record order (LeafBucket::keys()).  A cell stops at
/// n <= `limit` (θ_split or ε) or at edge depth `maxEdgeDepth`; under
/// kDataAware a split stands only when it strictly lowers the cost.  The
/// leaves come in DFS order (lower child first), each with its records
/// in input order.  One stable pass per kd level partitions an index
/// permutation; each record is copied once, into its leaf.
SplitPlan planSplit(SplitStrategy rule, double limit, const BitString& label,
                    const Rect& region, std::span<const Record> records,
                    std::span<const double> keys, std::size_t dims,
                    std::size_t maxEdgeDepth);

}  // namespace mlight::core
