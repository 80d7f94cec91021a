// Bit interleaving between m-dimensional points and binary strings.
//
// m-LIGHT's kd-tree halves the space one dimension per level, cycling
// through the dimensions; therefore the path of a point down the tree is
// exactly the interleaving of the binary expansions of its coordinates.
// PHT uses the same interleaving as its space-filling-curve (z-order) key,
// and DST's quad cells are prefixes of it, so all three indexes share this
// module.
//
// Dimension order: the paper's worked examples interleave starting from the
// LAST dimension (for δ = <0.2, 0.4> the interleaved string is "001011...",
// which is y-bit first; see §5 and the lookup example where
// <0.3, 0.9> interleaves to "10111000011110000111").  We follow the paper:
// the bit at depth d comes from dimension (m-1) - (d mod m).
#pragma once

#include <algorithm>
#include <cstddef>

#include "common/bitstring.h"
#include "common/geometry.h"

namespace mlight::common {

/// Dimension refined at tree depth `depth` (depth 0 = first halving below
/// the kd root) in an m-dimensional space, per the paper's convention.
constexpr std::size_t dimensionAtDepth(std::size_t depth,
                                       std::size_t dims) noexcept {
  return (dims - 1) - (depth % dims);
}

/// Most path bits interleave() takes from one coordinate.  A double's
/// dyadic halving midpoints are exact only this deep; past it they stop
/// being representable and extra "bits" would be rounding artifacts.
inline constexpr std::size_t kMaxInterleaveBitsPerDim = 52;

/// Deepest path interleave() builds in m dimensions: the per-dimension
/// precision bound, capped at the label limit BitString::kMaxBits.
constexpr std::size_t maxInterleaveDepth(std::size_t dims) noexcept {
  return std::min(kMaxInterleaveBitsPerDim * dims, BitString::kMaxBits);
}

/// Interleaves the first ceil(depth/m) fractional bits of each coordinate
/// into a `depth`-bit string: bit d tells whether the point lies in the
/// upper half of dimension dimensionAtDepth(d, m) after d/m halvings.
/// Each coordinate is quantized once, q = floor(p * 2^k) over its k path
/// bits; that is exact, so the bits equal the dyadic halving decisions.
/// Coordinates should lie in [0, 1): p >= 1 clamps to the top cell
/// (q = 2^k - 1), and p <= 0 or NaN to the bottom one (q = 0).  Checks
/// depth <= maxInterleaveDepth(m).
BitString interleave(const Point& p, std::size_t depth);

/// The dyadic cell reached by following `path`'s bits from position
/// `from` on, starting at the unit cube and halving dimension
/// dimensionAtDepth(d, m) at each step d = pos - from (0 = lower half,
/// 1 = upper half).
Rect cellOfPath(const BitString& path, std::size_t dims,
                std::size_t from = 0);

/// Deepest path (up to maxDepth bits) whose cell fully contains `r`; the
/// lowest single cell covering the rectangle.  Returns an empty BitString
/// when no halving keeps the rectangle whole.
BitString lowestCoveringPath(const Rect& r, std::size_t dims,
                             std::size_t maxDepth);

}  // namespace mlight::common
