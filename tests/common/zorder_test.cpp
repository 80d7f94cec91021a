#include "common/zorder.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include "common/check.h"
#include "common/rng.h"

namespace mlight::common {
namespace {

TEST(ZOrder, DimensionOrderFollowsPaper) {
  // §5's worked example interleaves the *last* dimension first: depth 0
  // refines y in 2-D.
  EXPECT_EQ(dimensionAtDepth(0, 2), 1u);
  EXPECT_EQ(dimensionAtDepth(1, 2), 0u);
  EXPECT_EQ(dimensionAtDepth(2, 2), 1u);
  EXPECT_EQ(dimensionAtDepth(0, 3), 2u);
  EXPECT_EQ(dimensionAtDepth(1, 3), 1u);
  EXPECT_EQ(dimensionAtDepth(2, 3), 0u);
  EXPECT_EQ(dimensionAtDepth(3, 3), 2u);
}

TEST(ZOrder, PaperLookupExampleInterleaving) {
  // Paper §5: δ = <0.3, 0.9> interleaves to 10111000011110000111...
  const BitString got = interleave(Point{0.3, 0.9}, 20);
  EXPECT_EQ(got.toString(), "10111000011110000111");
}

TEST(ZOrder, PaperCandidateSetExample) {
  // Paper §5: δ = <0.2, 0.4> interleaves to 001011... (y=0.4 first).
  const BitString got = interleave(Point{0.2, 0.4}, 6);
  EXPECT_EQ(got.toString(), "001011");
}

TEST(ZOrder, OneDimensionalIsPlainBinaryExpansion) {
  EXPECT_EQ(interleave(Point{0.5}, 4).toString(), "1000");
  EXPECT_EQ(interleave(Point{0.25}, 4).toString(), "0100");
  EXPECT_EQ(interleave(Point{0.875}, 4).toString(), "1110");
  EXPECT_EQ(interleave(Point{0.0}, 4).toString(), "0000");
}

TEST(ZOrder, CellOfEmptyPathIsUnitCube) {
  EXPECT_EQ(cellOfPath(BitString{}, 2), Rect::unit(2));
}

TEST(ZOrder, CellOfPathHalvesPerStep) {
  // First bit halves y (dim 1) in 2-D.
  const Rect top = cellOfPath(BitString::fromString("1"), 2);
  EXPECT_EQ(top, Rect(Point{0.0, 0.5}, Point{1.0, 1.0}));
  const Rect topLeft = cellOfPath(BitString::fromString("10"), 2);
  EXPECT_EQ(topLeft, Rect(Point{0.0, 0.5}, Point{0.5, 1.0}));
}

TEST(ZOrder, CellOfPathMatchesRectHalvingFromAnyOffset) {
  // The in-place halving is bit-identical to chaining Rect::halved()
  // over the bits from `from` on (m-LIGHT skips its m+1-bit root).
  Rng rng(29);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int i = 0; i < 100; ++i) {
      BitString path;
      const std::size_t depth = rng.below(160);
      for (std::size_t d = 0; d < depth; ++d) path.pushBack(rng.chance(0.5));
      const std::size_t from = rng.below(depth + 1);
      Rect halved = Rect::unit(dims);
      for (std::size_t pos = from; pos < depth; ++pos) {
        halved = halved.halved(dimensionAtDepth(pos - from, dims),
                               path.bit(pos));
      }
      EXPECT_EQ(cellOfPath(path, dims, from), halved);
    }
  }
}

TEST(ZOrder, InterleavedPathContainsItsPoint) {
  Rng rng(17);
  for (std::size_t dims = 1; dims <= 4; ++dims) {
    for (int i = 0; i < 200; ++i) {
      Point p(dims);
      for (std::size_t d = 0; d < dims; ++d) p[d] = rng.uniform();
      const BitString path = interleave(p, 20);
      EXPECT_TRUE(cellOfPath(path, dims).contains(p));
      // Every prefix cell also contains the point.
      for (std::size_t cut : {1u, 5u, 13u}) {
        EXPECT_TRUE(cellOfPath(path.prefix(cut), dims).contains(p));
      }
    }
  }
}

TEST(ZOrder, SiblingCellsTile) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    BitString path;
    const std::size_t depth = 1 + rng.below(12);
    for (std::size_t d = 0; d < depth; ++d) path.pushBack(rng.chance(0.5));
    const Rect cell = cellOfPath(path, 2);
    const Rect sib = cellOfPath(path.sibling(), 2);
    BitString parent = path;
    parent.popBack();
    const Rect parentCell = cellOfPath(parent, 2);
    EXPECT_FALSE(cell.intersects(sib));
    EXPECT_TRUE(parentCell.containsRect(cell));
    EXPECT_TRUE(parentCell.containsRect(sib));
    EXPECT_NEAR(cell.volume() + sib.volume(), parentCell.volume(), 1e-12);
  }
}

TEST(ZOrder, LowestCoveringPathCoversAndIsMaximal) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    const double side = rng.uniform(0.001, 0.4);
    const double x = rng.uniform() * (1.0 - side);
    const double y = rng.uniform() * (1.0 - side);
    const Rect r(Point{x, y}, Point{x + side, y + side});
    const BitString path = lowestCoveringPath(r, 2, 30);
    EXPECT_TRUE(cellOfPath(path, 2).containsRect(r));
    if (path.size() < 30) {
      // Maximality: neither child cell covers the rectangle.
      EXPECT_FALSE(cellOfPath(path.withBack(false), 2).containsRect(r));
      EXPECT_FALSE(cellOfPath(path.withBack(true), 2).containsRect(r));
    }
  }
}

TEST(ZOrder, LowestCoveringPathOfUnitCubeIsEmpty) {
  EXPECT_EQ(lowestCoveringPath(Rect::unit(2), 2, 30).size(), 0u);
}

TEST(ZOrder, CoordinateOneClampsToTopCell) {
  // 1.0 is the domain's closed top; it must map into the uppermost cell
  // chain rather than fall off the space.
  const BitString path = interleave(Point{1.0, 1.0}, 10);
  EXPECT_EQ(path.toString(), "1111111111");
}

// The floating-point halving walk interleave() used before it quantized
// each coordinate: the test oracle for the quantized path.
BitString halvingOracle(const Point& p, std::size_t depth) {
  const std::size_t m = p.dims();
  std::array<double, kMaxDims> lo{};
  std::array<double, kMaxDims> hi{};
  for (std::size_t i = 0; i < m; ++i) {
    lo[i] = 0.0;
    hi[i] = 1.0;
  }
  BitString out;
  for (std::size_t d = 0; d < depth; ++d) {
    const std::size_t dim = dimensionAtDepth(d, m);
    const double mid = 0.5 * (lo[dim] + hi[dim]);
    const bool upper = p[dim] >= mid;
    out.pushBack(upper);
    if (upper) {
      lo[dim] = mid;
    } else {
      hi[dim] = mid;
    }
  }
  return out;
}

TEST(ZOrder, QuantizedMatchesHalvingOracle) {
  const double oneMinusUlp = std::nextafter(1.0, 0.0);
  Rng rng(31);
  // A coordinate drawn from the cases where quantization could slip:
  // dyadic points at every level (cell boundaries), the domain edges,
  // out-of-domain values and NaN, plus plain random ones.
  const auto coordinate = [&]() -> double {
    switch (rng.below(8)) {
      case 0:
        return 0.0;
      case 1:
        return oneMinusUlp;
      case 2:
        return 1.0;
      case 3: {
        const int level = static_cast<int>(rng.below(53));
        const double cells = std::ldexp(1.0, level);
        return static_cast<double>(rng.below(
                   static_cast<std::uint64_t>(cells))) /
               cells;
      }
      case 4: {
        const double values[] = {-0.0, -1e-300, -0.5, -1.0, 1.5, 2.0,
                                 std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min()};
        return values[rng.below(std::size(values))];
      }
      default:
        return rng.uniform();
    }
  };
  for (const std::size_t m : {1u, 2u, 3u, 4u, 8u}) {
    for (int i = 0; i < 60; ++i) {
      Point p(m);
      for (std::size_t d = 0; d < m; ++d) p[d] = coordinate();
      for (std::size_t depth = 0; depth <= maxInterleaveDepth(m); ++depth) {
        ASSERT_EQ(interleave(p, depth), halvingOracle(p, depth))
            << "m=" << m << " point " << i << " depth " << depth;
      }
    }
  }
}

TEST(ZOrder, RejectsDepthBeyondDoublePrecision) {
  // Up to m = 4 the double-precision bound is the binding one (208 bits
  // at m = 4); from m = 5 on it is the 256-bit label limit.
  EXPECT_EQ(maxInterleaveDepth(1), kMaxInterleaveBitsPerDim);
  EXPECT_EQ(maxInterleaveDepth(4), 4 * kMaxInterleaveBitsPerDim);
  EXPECT_EQ(maxInterleaveDepth(5), BitString::kMaxBits);
  EXPECT_EQ(maxInterleaveDepth(8), BitString::kMaxBits);
  for (const std::size_t m : {1u, 2u, 4u, 5u, 8u}) {
    Point p(m);
    for (std::size_t d = 0; d < m; ++d) p[d] = 0.3;
    EXPECT_NO_THROW(interleave(p, maxInterleaveDepth(m)));
    EXPECT_THROW(interleave(p, maxInterleaveDepth(m) + 1), CheckFailure);
  }
}

// Parameterized sweep over dimensionalities: interleave/cellOfPath agree
// with direct per-dimension bit extraction.
class ZOrderDimsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ZOrderDimsTest, MatchesPerDimensionBits) {
  const std::size_t dims = GetParam();
  Rng rng(101 + dims);
  for (int i = 0; i < 100; ++i) {
    Point p(dims);
    for (std::size_t d = 0; d < dims; ++d) p[d] = rng.uniform();
    const std::size_t depth = dims * 6;
    const BitString path = interleave(p, depth);
    for (std::size_t j = 0; j < depth; ++j) {
      const std::size_t dim = dimensionAtDepth(j, dims);
      const std::size_t round = j / dims;
      // Bit `round` of coordinate dim: floor(coord * 2^(round+1)) odd.
      const auto scaled = static_cast<std::uint64_t>(
          p[dim] * static_cast<double>(1ull << (round + 1)));
      EXPECT_EQ(path.bit(j), (scaled & 1u) != 0)
          << "dims=" << dims << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ZOrderDimsTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mlight::common
