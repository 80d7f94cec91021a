#include "mlight/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "common/rng.h"
#include "mlight/bucket.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "workload/datasets.h"

namespace mlight::core {
namespace {

using mlight::common::Point;
using mlight::common::Rng;

Record rec(double x, double y, std::uint64_t id = 0) {
  Record r;
  r.key = Point{x, y};
  r.id = id;
  return r;
}

/// Plans a split of the bucket `label` holding `records` from its record
/// and key arrays, as the online splits do.
SplitPlan planFromBucket(SplitStrategy rule, double limit,
                         const BitString& label,
                         std::vector<Record> records, std::size_t dims,
                         std::size_t maxEdgeDepth) {
  const LeafBucket bucket(label, std::move(records));
  return planSplit(rule, limit, bucket.label, labelRegion(label, dims),
                   bucket.records(), bucket.keys(), dims, maxEdgeDepth);
}

/// Algorithm 1 on a root bucket.
SplitPlan planDataAware(std::vector<Record> records, double epsilon,
                        std::size_t dims, std::size_t maxEdgeDepth) {
  return planFromBucket(SplitStrategy::kDataAware, epsilon, rootLabel(dims),
                        std::move(records), dims, maxEdgeDepth);
}

// The worked example of Fig. 3 (ε = 2).  Four points placed so that the
// optimal split subtree has 3 cells with loads {2, 2, 0}; the minimized
// difference 4 equals the unsplit difference 4, so no split triggers.
// After inserting (0.2, 0.2) the minimized difference drops to 1 < 9 and
// the bucket splits into 3 cells with loads {2, 2, 1}.
//
// Note the paper's figure halves x first; our label convention halves the
// last dimension first (per the paper's own interleaving examples), so we
// place the points transposed — the arithmetic is identical.
class Fig3Example : public ::testing::Test {
 protected:
  // All four points in the upper half; the first (y) cut yields {0, 4}
  // and the second (x) cut splits the four 2/2, so the optimal split
  // subtree has 3 cells with loads {2, 2, 0} and total difference
  // (2-ε)² + (2-ε)² + (0-ε)² = 4 — exactly Fig 3a.
  std::vector<Record> initial_{
      rec(0.20, 0.60, 1),  // cluster A (x < 0.5, y >= 0.5)
      rec(0.40, 0.70, 2),  // cluster A
      rec(0.60, 0.80, 3),  // cluster B (x >= 0.5, y >= 0.5)
      rec(0.80, 0.90, 4),  // cluster B
  };
  double epsilon_ = 2.0;
};

TEST_F(Fig3Example, BeforeInsertionNoSplit) {
  const auto plan = planDataAware(initial_, epsilon_, 2, 28);
  // Unsplit difference: (4-2)^2 = 4.  Best split: (2-2)^2+(2-2)^2+(0-2)^2
  // = 4.  Not strictly better, so the bucket stays whole.
  EXPECT_FALSE(plan.splits());
  EXPECT_DOUBLE_EQ(plan.cost, 4.0);
}

TEST_F(Fig3Example, AfterInsertionSplitsIntoThreeCells) {
  auto records = initial_;
  records.push_back(rec(0.2, 0.2, 5));  // the paper's new point
  const auto plan = planDataAware(records, epsilon_, 2, 28);
  ASSERT_TRUE(plan.splits());
  EXPECT_DOUBLE_EQ(plan.cost, 1.0);  // (2-2)^2+(2-2)^2+(1-2)^2
  ASSERT_EQ(plan.leaves.size(), 3u);
  std::multiset<std::size_t> loads;
  std::size_t total = 0;
  for (const auto& leaf : plan.leaves) {
    loads.insert(leaf.records.size());
    total += leaf.records.size();
  }
  EXPECT_EQ(total, 5u);
  EXPECT_EQ(loads, (std::multiset<std::size_t>{1, 2, 2}));
}

TEST(DataAwareSplit, EmptyBucketStaysWhole) {
  const auto plan = planDataAware({}, 2.0, 2, 28);
  EXPECT_FALSE(plan.splits());
  EXPECT_DOUBLE_EQ(plan.cost, 4.0);  // (0-2)^2
}

TEST(DataAwareSplit, LoadAtMostEpsilonStaysWhole) {
  std::vector<Record> records{rec(0.1, 0.1), rec(0.9, 0.9)};
  const auto plan = planDataAware(records, 2.0, 2, 28);
  EXPECT_FALSE(plan.splits());
  EXPECT_DOUBLE_EQ(plan.cost, 0.0);
}

TEST(DataAwareSplit, PlanLeavesFormAValidSubtree) {
  Rng rng(11);
  std::vector<Record> records;
  for (int i = 0; i < 60; ++i) {
    records.push_back(
        rec(rng.uniform() * 0.4, rng.uniform() * 0.4,
            static_cast<std::uint64_t>(i)));
  }
  const auto plan = planDataAware(records, 8.0, 2, 28);
  ASSERT_TRUE(plan.splits());
  double volume = 0.0;
  std::size_t total = 0;
  for (const auto& leaf : plan.leaves) {
    EXPECT_TRUE(rootLabel(2).isPrefixOf(leaf.label));
    const Rect region = labelRegion(leaf.label, 2);
    for (const auto& r : leaf.records) {
      EXPECT_TRUE(region.contains(r.key));
    }
    volume += region.volume();
    total += leaf.records.size();
  }
  EXPECT_NEAR(volume, 1.0, 1e-9);  // leaves tile the bucket's region
  EXPECT_EQ(total, records.size());
}

TEST(DataAwareSplit, CostNeverAboveStayingWhole) {
  Rng rng(13);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Record> records;
    const std::size_t n = rng.below(30);
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(rec(rng.uniform(), rng.uniform(), i));
    }
    const double eps = 1.0 + static_cast<double>(rng.below(6));
    const auto plan = planDataAware(records, eps, 2, 12);
    const double whole =
        std::pow(static_cast<double>(n) - eps, 2.0);
    EXPECT_LE(plan.cost, whole + 1e-12);
    if (plan.splits()) {
      EXPECT_LT(plan.cost, whole);
    }
  }
}

// --- Exhaustive ground truth (exponential; small instances only) ---

/// The oracle's own by-value halving of a cell: lower child first.
/// It shares no code with the planner it checks.
std::pair<std::vector<Record>, std::vector<Record>> splitByValue(
    const BitString& label, const Rect& region,
    const std::vector<Record>& records, std::size_t dims) {
  const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
  std::pair<std::vector<Record>, std::vector<Record>> out;
  for (const Record& r : records) {
    (r.key[dim] >= region.mid(dim) ? out.second : out.first).push_back(r);
  }
  return out;
}

/// Enumerates the total cost of *every* split subtree rooted at the node
/// (independently of the planner's DP, which only propagates minima):
/// each subtree either keeps the node as a leaf or splits it and combines
/// any pair of left/right subtree costs.
std::vector<double> allSubtreeCosts(const BitString& label,
                                    const Rect& region,
                                    const std::vector<Record>& records,
                                    double epsilon, std::size_t dims,
                                    std::size_t maxEdgeDepth) {
  const double n = static_cast<double>(records.size());
  std::vector<double> costs{(n - epsilon) * (n - epsilon)};
  if (edgeDepth(label, dims) >= maxEdgeDepth || n <= epsilon) return costs;
  const auto [lo, hi] = splitByValue(label, region, records, dims);
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

double bruteForceSplitCost(const std::vector<Record>& records,
                           double epsilon, std::size_t dims,
                           std::size_t maxEdgeDepth) {
  const auto costs = allSubtreeCosts(rootLabel(dims), Rect::unit(dims),
                                     records, epsilon, dims, maxEdgeDepth);
  return *std::min_element(costs.begin(), costs.end());
}

// Property: the DP of Algorithm 1 matches exhaustive enumeration over all
// split subtrees on small instances, across dimensionalities and ε.
class SplitOptimalityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double,
                                                 std::uint64_t>> {};

TEST_P(SplitOptimalityTest, MatchesBruteForce) {
  const auto [dims, epsilon, seed] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 15; ++iter) {
    std::vector<Record> records;
    const std::size_t n = rng.below(14);
    for (std::size_t i = 0; i < n; ++i) {
      Record r;
      r.key = Point(dims);
      for (std::size_t d = 0; d < dims; ++d) r.key[d] = rng.uniform();
      r.id = i;
      records.push_back(r);
    }
    constexpr std::size_t kDepthCap = 6;
    const auto plan = planDataAware(records, epsilon, dims, kDepthCap);
    const double brute =
        bruteForceSplitCost(records, epsilon, dims, kDepthCap);
    EXPECT_DOUBLE_EQ(plan.cost, brute);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitOptimalityTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Values(1.0, 2.0, 4.0),
                       ::testing::Values(std::uint64_t{3},
                                         std::uint64_t{17})));

// --- Equivalence with the vector-per-node Algorithm 1 ---
//
// The planner runs Algorithm 1 over one index permutation and, where a
// split is undone, sorts the cell's range back into input order when
// its records are copied.  The reference below is the recursion it
// replaced: every DP node filters its own index vector into two fresh
// ones, so every cell's indices stay in input order by construction.
// Both must give the same leaves in the same order, with the same
// records in the same order, at the same cost.

struct VectorPlanner {
  const std::vector<Record>& records;
  double epsilon;
  std::size_t dims;
  std::size_t maxEdgeDepth;

  struct Node {
    double cost;
    std::vector<std::pair<BitString, std::vector<std::size_t>>> leaves;
  };

  Node run(const BitString& label, const Rect& region,
           std::vector<std::size_t> idx) const {
    const double n = static_cast<double>(idx.size());
    const double localCost = (n - epsilon) * (n - epsilon);
    if (n <= epsilon || edgeDepth(label, dims) >= maxEdgeDepth) {
      return Node{localCost, {{label, std::move(idx)}}};
    }
    const std::size_t dim = splitDimension(edgeDepth(label, dims), dims);
    std::vector<std::size_t> loIdx;
    std::vector<std::size_t> hiIdx;
    for (std::size_t i : idx) {
      (records[i].key[dim] >= region.mid(dim) ? hiIdx : loIdx).push_back(i);
    }
    Node left =
        run(label.withBack(false), region.halved(dim, false), std::move(loIdx));
    Node right =
        run(label.withBack(true), region.halved(dim, true), std::move(hiIdx));
    const double splitCost = left.cost + right.cost;
    if (localCost <= splitCost) {
      return Node{localCost, {{label, std::move(idx)}}};
    }
    Node out{splitCost, std::move(left.leaves)};
    out.leaves.insert(out.leaves.end(),
                      std::make_move_iterator(right.leaves.begin()),
                      std::make_move_iterator(right.leaves.end()));
    return out;
  }
};

struct PlanCase {
  std::string name;
  std::vector<Record> data;
  std::size_t dims;
};

std::vector<PlanCase> planCases() {
  std::vector<PlanCase> cases;
  cases.push_back({"ne", mlight::workload::northeastDataset(3000, 21), 2});
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    const std::string d = "/d" + std::to_string(dims);
    cases.push_back({"clustered" + d,
                     mlight::workload::clusteredDataset(1500, dims, 3, 0.05,
                                                        50 + dims),
                     dims});
    cases.push_back({"uniform" + d,
                     mlight::workload::uniformDataset(1500, dims, 30 + dims),
                     dims});
  }
  cases.push_back({"empty", {}, 2});
  cases.push_back({"single", mlight::workload::uniformDataset(1, 3, 40), 3});
  // More than ε records on one key: their cell splits down to the depth
  // cap and stays over-full there, beside a uniform spread.
  auto crowded = mlight::workload::uniformDataset(200, 2, 41);
  for (std::size_t i = 0; i < 90; ++i) {
    Record r;
    r.key = Point{0.3, 0.7};
    r.id = 100000 + i;
    crowded.push_back(r);
  }
  cases.push_back({"identical-keys-at-cap", std::move(crowded), 2});
  return cases;
}

TEST(DataAwareSplit, MatchesVectorPlanner) {
  for (const PlanCase& c : planCases()) {
    for (const double epsilon : {1.0, 2.0, 8.0, 70.0}) {
      for (const std::size_t cap : {std::size_t{6}, std::size_t{28}}) {
        SCOPED_TRACE(c.name + " eps=" + std::to_string(epsilon) +
                     " cap=" + std::to_string(cap));
        const BitString root = rootLabel(c.dims);
        std::vector<std::size_t> all(c.data.size());
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        const VectorPlanner::Node want =
            VectorPlanner{c.data, epsilon, c.dims, cap}.run(
                root, Rect::unit(c.dims), std::move(all));
        const SplitPlan plan = planDataAware(c.data, epsilon, c.dims, cap);
        EXPECT_EQ(plan.cost, want.cost);
        ASSERT_EQ(plan.leaves.size(), want.leaves.size());
        for (std::size_t k = 0; k < want.leaves.size(); ++k) {
          const auto& [label, idx] = want.leaves[k];
          EXPECT_EQ(plan.leaves[k].label, label) << "leaf " << k;
          std::vector<Record> records;
          for (std::size_t i : idx) records.push_back(c.data[i]);
          EXPECT_EQ(plan.leaves[k].records, records) << "leaf " << k;
        }
        if (c.name == "identical-keys-at-cap") {
          EXPECT_TRUE(std::ranges::any_of(plan.leaves, [&](const PlanLeaf& l) {
            return static_cast<double>(l.records.size()) > epsilon;
          }));
        }
      }
    }
  }
}

// --- The online threshold step: one level of the same planner ---

SplitPlan planOneLevel(std::vector<Record> records) {
  const BitString root = rootLabel(2);
  return planFromBucket(SplitStrategy::kThreshold, 0.0, root,
                        std::move(records), 2, edgeDepth(root, 2) + 1);
}

TEST(PartitionOnce, SplitsByMidOfCyclingDimension) {
  // Root splits y (last dimension first).
  const auto plan =
      planOneLevel({rec(0.1, 0.2, 1), rec(0.9, 0.8, 2), rec(0.4, 0.6, 3)});
  ASSERT_EQ(plan.leaves.size(), 2u);
  EXPECT_EQ(plan.leaves[0].label, rootLabel(2).withBack(false));
  EXPECT_EQ(plan.leaves[1].label, rootLabel(2).withBack(true));
  const auto& lo = plan.leaves[0].records;
  const auto& hi = plan.leaves[1].records;
  ASSERT_EQ(lo.size(), 1u);
  ASSERT_EQ(hi.size(), 2u);
  EXPECT_EQ(lo[0].id, 1u);
  EXPECT_EQ(hi[0].id, 2u);  // input order within a child
  EXPECT_EQ(hi[1].id, 3u);
}

TEST(PartitionOnce, BoundaryPointGoesToUpperHalf) {
  const auto plan = planOneLevel({rec(0.3, 0.5, 1)});
  ASSERT_EQ(plan.leaves.size(), 2u);
  EXPECT_TRUE(plan.leaves[0].records.empty());
  ASSERT_EQ(plan.leaves[1].records.size(), 1u);
}

}  // namespace
}  // namespace mlight::core
