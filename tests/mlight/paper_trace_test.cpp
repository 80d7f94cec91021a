// High-fidelity reproductions of the paper's worked examples: the exact
// index trees of Figs 1/2/4 are installed, and the §5 lookup trace and
// §6 range-query trace are verified probe by probe.
#include <gtest/gtest.h>

#include <set>

#include "dht/network.h"
#include "mlight/index.h"
#include "common/check.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"

namespace mlight::core {
namespace {

using mlight::common::BitString;
using mlight::common::Point;
using mlight::common::Rect;
using mlight::dht::Network;

BitString tag2d(const char* suffix) {
  BitString label = rootLabel(2);
  label.append(BitString::fromString(suffix));
  return label;
}

/// Leaf set of the tree in Fig 1b / Fig 2b (also used for Fig 4): twelve
/// leaves, twelve internal nodes (virtual root included).
std::vector<BitString> fig1Leaves() {
  std::vector<BitString> leaves;
  for (const char* suffix : {"000", "001", "01", "100", "10100", "10101",
                             "10110", "101110", "101111", "110", "1110",
                             "1111"}) {
    leaves.push_back(tag2d(suffix));
  }
  return leaves;
}

class PaperTraceTest : public ::testing::Test {
 protected:
  PaperTraceTest() : net_(128) {
    MLightConfig cfg;
    cfg.dims = 2;
    cfg.maxEdgeDepth = 20;  // §5 example uses D = 20
    cfg.thetaSplit = 1000;  // no splits: the example tree is fixed
    cfg.thetaMerge = 1;
    index_ = std::make_unique<MLightIndex>(net_, cfg);
    index_->installTreeForTesting(fig1Leaves());
  }

  Network net_;
  std::unique_ptr<MLightIndex> index_;
};

TEST_F(PaperTraceTest, TreeShapeMatchesFig1) {
  EXPECT_EQ(index_->bucketCount(), 12u);
  // The bijection of Fig 2b on this tree: every internal node (plus the
  // virtual root) holds exactly one leaf bucket.
  ASSERT_NE(index_->store().peek(virtualRootLabel(2)), nullptr);
  EXPECT_EQ(index_->store().peek(virtualRootLabel(2))->label, tag2d("01"));
  ASSERT_NE(index_->store().peek(tag2d("0")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("0"))->label, tag2d("000"));
  ASSERT_NE(index_->store().peek(tag2d("00")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("00"))->label, tag2d("001"));
  ASSERT_NE(index_->store().peek(tag2d("11")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("11"))->label, tag2d("110"));
  // The leaf named to #1 is #10101 (used in the §6 example).
  ASSERT_NE(index_->store().peek(tag2d("1")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("1"))->label, tag2d("10101"));
}

TEST_F(PaperTraceTest, Section5LookupTrace) {
  // §5: lookup of <0.3, 0.9> with D = 20; target bucket is cell #101110.
  // The paper's trace: probe f(#1011100001) = #101110000 -> NULL;
  // probe f(#10111) = #101 -> leaf #101111 (miss, and candidate #1011 is
  // ruled out too); probe f(#101110) = #10111 -> target.
  std::vector<MLightIndex::TraceEvent> trace;
  index_->setTracer(&trace);
  const auto res = index_->lookup(Point{0.3, 0.9});
  index_->setTracer(nullptr);
  EXPECT_EQ(res.leaf, tag2d("101110"));

  // Probe-by-probe: our midpoint starts at t=10 exactly like the paper.
  ASSERT_GE(trace.size(), 3u);
  EXPECT_EQ(trace[0].key, tag2d("101110000"));  // f(#1011100001)
  EXPECT_FALSE(trace[0].hit);                   // NULL -> bound drops to 9
  // Every subsequent probe is one of the paper's traced keys, and the
  // last one lands on the target leaf via key #10111.
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_TRUE(trace[i].key == tag2d("101") ||
                trace[i].key == tag2d("10111") ||
                trace[i].key == tag2d("101110"))
        << trace[i].key.toString();
  }
  EXPECT_EQ(trace.back().key, tag2d("10111"));
  EXPECT_TRUE(trace.back().hit);
  EXPECT_EQ(trace.back().foundLeaf, tag2d("101110"));
  // Binary search converges within 4 probes on this tree (the paper's
  // midpoint rounding finds it in 3; either way each probe eliminates
  // whole candidate chains, not single lengths).
  EXPECT_LE(res.stats.cost.lookups, 4u);
  // The traced keys behave exactly as the paper says:
  //  - #101110000 is not a DHT key in use (not an internal node);
  //  - #101 holds leaf #101111;
  //  - #10111 holds the target #101110.
  EXPECT_EQ(index_->store().peek(tag2d("101110000")), nullptr);
  ASSERT_NE(index_->store().peek(tag2d("101")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("101"))->label, tag2d("101111"));
  ASSERT_NE(index_->store().peek(tag2d("10111")), nullptr);
  EXPECT_EQ(index_->store().peek(tag2d("10111"))->label, tag2d("101110"));
}

TEST_F(PaperTraceTest, Section6RangeTrace) {
  // §6: R = [0.1,0.3] x [0.6,0.8] over the Fig 4 tree.
  //  - LCA(R) = #10, f(#10) = #1, reached at corner cell #10101;
  //  - subranges forwarded to branch nodes #10100, #1011 and #100;
  //  - #1011's probe lands on #101111 (f(#101111) = f(#1011) = #101),
  //    which does not cover the subrange; one more forward to
  //    f(#10110) = #1011 reaches leaf #10110 and terminates.
  // Paper counts four DHT-lookups / three rounds; we additionally count
  // the initiator's own LCA lookup, so: 5 lookups, 3 rounds.
  const Rect r(Point{0.1, 0.6}, Point{0.3, 0.8});
  EXPECT_EQ(lowestCommonAncestor(r, 2, 20), tag2d("10"));

  // Place one record in each leaf that intersects R so the result set
  // proves all three forwarding paths were taken.
  struct Placement {
    const char* leaf;
    double x, y;
    bool inR;
  };
  const Placement placements[] = {
      {"100", 0.2, 0.7, true},      // via branch #100
      {"10100", 0.2, 0.78, true},   // via branch #10100
      {"10110", 0.28, 0.79, true},  // via branch #1011 -> #10110
      {"10101", 0.1, 0.9, false},   // corner cell, outside R
      {"01", 0.8, 0.2, false},      // far away
  };
  std::uint64_t id = 0;
  for (const auto& p : placements) {
    mlight::index::Record rec;
    rec.key = Point{p.x, p.y};
    rec.id = id++;
    index_->insert(rec);
    // The record must have landed in the intended leaf.
    EXPECT_EQ(index_->lookup(rec.key).leaf, tag2d(p.leaf));
  }

  std::vector<MLightIndex::TraceEvent> trace;
  index_->setTracer(&trace);
  const auto res = index_->rangeQuery(r);
  index_->setTracer(nullptr);
  EXPECT_EQ(res.records.size(), 3u);
  for (const auto& rec : res.records) {
    EXPECT_TRUE(r.contains(rec.key));
  }
  EXPECT_EQ(res.stats.cost.lookups, 5u);
  EXPECT_EQ(res.stats.rounds, 3u);

  // The exact forwarding pattern of the paper's Fig 4b walk-through.
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[0].key, tag2d("1"));  // f(#10): LCA's name
  EXPECT_EQ(trace[0].foundLeaf, tag2d("10101"));  // corner cell
  // Round 2: the three branch forwards (wave order may vary).
  std::set<BitString> round2;
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(trace[i].round, 2u);
    round2.insert(trace[i].key);
  }
  EXPECT_EQ(round2, (std::set<BitString>{
                        naming(tag2d("10100"), 2),   // = #1010
                        naming(tag2d("1011"), 2),    // = #101
                        naming(tag2d("100"), 2)}));  // = #10
  // Round 3: the fix-up forward to f(#10110) = #1011 reaching #10110.
  EXPECT_EQ(trace[4].round, 3u);
  EXPECT_EQ(trace[4].key, tag2d("1011"));
  EXPECT_EQ(trace[4].foundLeaf, tag2d("10110"));
}

TEST_F(PaperTraceTest, CornerPreservationOnFig1Tree) {
  // Theorem 1 on the concrete tree: for internal ω = #10, each geometric
  // corner of region(ω) lies in a leaf named to one of
  // {f(#10) = #1, #10, #100, #101}.  (Corners coincide in a cell when the
  // corresponding child is still a leaf — here #100 holds two corners.)
  const Rect region = labelRegion(tag2d("10"), 2);
  const std::set<BitString> theoremKeys{tag2d("1"), tag2d("10"),
                                        tag2d("100"), tag2d("101")};
  const double eps = 1e-6;
  const double xs[] = {region.lo()[0] + eps, region.hi()[0] - eps};
  const double ys[] = {region.lo()[1] + eps, region.hi()[1] - eps};
  for (double x : xs) {
    for (double y : ys) {
      const auto leaf = index_->lookup(Point{x, y}).leaf;
      EXPECT_TRUE(theoremKeys.contains(naming(leaf, 2)))
          << "corner <" << x << "," << y << "> in leaf "
          << leaf.toString();
    }
  }
  // And the key probed by range queries, f(#10) = #1, really holds a
  // corner cell of region(#10): leaf #10101 at the top-left corner.
  const auto* bucket = index_->store().peek(tag2d("1"));
  ASSERT_NE(bucket, nullptr);
  EXPECT_TRUE(region.containsRect(labelRegion(bucket->label, 2)));
}

TEST_F(PaperTraceTest, IncrementalSplitOnFig1Tree) {
  // Theorem 5 on concrete splits.  Leaf #01 is named to the virtual root
  // (the 00...0-aligned chain); overflowing it splits twice for the
  // chosen points:
  //   #01  -> {#010 (keeps key 00), #011 (re-keyed to #01)}
  //   #010 -> {#0101 (keeps key 00), #0100 (re-keyed to #010)}
  MLightConfig cfg;
  cfg.dims = 2;
  cfg.thetaSplit = 2;
  cfg.thetaMerge = 1;
  cfg.dhtNamespace = "trace-split/";
  MLightIndex idx(net_, cfg);
  idx.installTreeForTesting(fig1Leaves());
  // Fill #01 (x in [0.5,1), y in [0,0.5)) past theta.
  std::uint64_t id = 0;
  for (double x : {0.6, 0.7, 0.9}) {
    mlight::index::Record rec;
    rec.key = Point{x, 0.2};
    rec.id = id++;
    idx.insert(rec);
  }
  ASSERT_NE(idx.store().peek(virtualRootLabel(2)), nullptr);
  EXPECT_EQ(idx.store().peek(virtualRootLabel(2))->label, tag2d("0101"));
  ASSERT_NE(idx.store().peek(tag2d("01")), nullptr);
  EXPECT_EQ(idx.store().peek(tag2d("01"))->label, tag2d("011"));
  ASSERT_NE(idx.store().peek(tag2d("010")), nullptr);
  EXPECT_EQ(idx.store().peek(tag2d("010"))->label, tag2d("0100"));
  EXPECT_EQ(idx.store().peek(tag2d("010"))->recordCount(), 2u);
  idx.checkInvariants();
}

TEST(InstallTree, RejectsInvalidLeafSets) {
  Network net(16);
  MLightConfig cfg;
  MLightIndex index(net, cfg);
  // Not a tiling: missing #1 subtree.
  EXPECT_THROW(index.installTreeForTesting({tag2d("0")}),
               mlight::common::CheckFailure);
  // Not prefix-free.
  EXPECT_THROW(
      index.installTreeForTesting({tag2d("0"), tag2d("01"), tag2d("1")}),
      mlight::common::CheckFailure);
}

}  // namespace
}  // namespace mlight::core
