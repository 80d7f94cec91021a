// Index splitting strategies (paper §4).
//
// Threshold-based: split when a bucket exceeds θ_split, halving the region
// once per step (classic kd behaviour; may create empty buckets on skewed
// data).
//
// Data-aware (paper §4.2, Algorithm 1): given an expected per-bucket load
// ε, locally compute the *optimal split subtree* rooted at the bucket that
// minimizes Σ_leaves (load − ε)²; split only if strictly better than
// staying whole.  Theorem 6: this minimizes the variance of expected load
// across peers.  The computation is the divide-and-conquer of Algorithm 1
// and runs entirely locally (no DHT traffic).
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

/// One leaf of a split plan: its label and the records it receives.
struct PlanLeaf {
  BitString label;
  std::vector<Record> records;
};

/// Result of the local split computation.
struct SplitPlan {
  /// Σ (load − ε)² over the plan's leaves (data-aware), or unused for
  /// threshold splits.
  double cost = 0.0;
  /// The leaves of the optimal split subtree, left-to-right.  A single
  /// leaf equal to the input bucket means "do not split".
  std::vector<PlanLeaf> leaves;

  bool splits() const noexcept { return leaves.size() > 1; }
};

/// Partitions `records` between the two children of `label` (whose region
/// is `region`): first element lower/left child (bit 0), second
/// upper/right child (bit 1).
std::pair<std::vector<Record>, std::vector<Record>> partitionOnce(
    const BitString& label, const Rect& region,
    std::span<const Record> records, std::size_t dims);

/// Threshold partition (§4.1) for bulk loading: splits every cell holding
/// more than `theta` records, down to maxEdgeDepth.  The leaves come in
/// DFS order (lower child first), each with its records in input order.
/// One stable pass per kd level partitions an index permutation of
/// `records`; each record is copied once, into its leaf.
SplitPlan planThresholdSplit(const BitString& label, const Rect& region,
                             std::span<const Record> records,
                             std::size_t theta, std::size_t dims,
                             std::size_t maxEdgeDepth);

/// Algorithm 1: the optimal split subtree for a bucket with the given
/// label/region/records.  Recursion stops at cells with <= ε records or at
/// maxEdgeDepth.  Deterministic and purely local.
SplitPlan planDataAwareSplit(const BitString& label, const Rect& region,
                             std::span<const Record> records, double epsilon,
                             std::size_t dims, std::size_t maxEdgeDepth);

/// Exhaustive minimizer over all split subtrees (exponential; test-only
/// ground truth for planDataAwareSplit on small instances).
double bruteForceSplitCost(const BitString& label, const Rect& region,
                           std::span<const Record> records, double epsilon,
                           std::size_t dims, std::size_t maxEdgeDepth);

}  // namespace mlight::core
