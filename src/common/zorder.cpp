#include "common/zorder.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

#include "common/check.h"

namespace mlight::common {

BitString interleave(const Point& p, std::size_t depth) {
  const std::size_t m = p.dims();
  assert(m >= 1);
  MLIGHT_CHECK(depth <= maxInterleaveDepth(m),
               "interleave: depth " + std::to_string(depth) + " exceeds " +
                   std::to_string(kMaxInterleaveBitsPerDim) + " bits per "
                   "dimension or the " +
                   std::to_string(BitString::kMaxBits) + "-bit label limit");
  // Quantize each coordinate once to the k bits it contributes: q =
  // floor(p * 2^k), clamped to [0, 2^k - 1].  Scaling by a power of two
  // is exact, so bit j of q is exactly the j-th halving decision
  // "p >= midpoint" of the dyadic interval walk.  Each q is left-aligned
  // at bit 63 so every level shifts its next decision out of the top.
  std::array<std::uint64_t, kMaxDims> bits{};
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t k = (depth + i) / m;  // path bits refining dim i
    if (k == 0) continue;
    const double v = p[i];
    std::uint64_t q = 0;  // v <= 0 and NaN: always the lower half
    if (v >= 1.0) {
      q = (std::uint64_t{1} << k) - 1;  // always the upper half
    } else if (v > 0.0) {
      q = static_cast<std::uint64_t>(
          v * static_cast<double>(std::uint64_t{1} << k));
    }
    bits[i] = q << (64 - k);
  }
  // Emit level by level (dimensions m-1 .. 0 within a level), gathering
  // 64 bits per word.  This is the innermost loop of every insert.
  BitString out;
  std::uint64_t word = 0;
  std::size_t filled = 0;
  for (std::size_t d = 0; d < depth;) {
    for (std::size_t dim = m; dim-- > 0 && d < depth; ++d) {
      word |= (bits[dim] >> 63) << filled;
      bits[dim] <<= 1;
      if (++filled == 64) {
        out.appendWordBits(word, 64);
        word = 0;
        filled = 0;
      }
    }
  }
  if (filled != 0) out.appendWordBits(word, filled);
  return out;
}

Rect cellOfPath(const BitString& path, std::size_t dims, std::size_t from) {
  Rect cell = Rect::unit(dims);
  // Halve in place: one Rect, two live coordinate writes per level —
  // per-level Rect::halved() copies dominated m-LIGHT's labelRegion.
  Point& lo = cell.lo();
  Point& hi = cell.hi();
  for (std::size_t pos = from; pos < path.size(); ++pos) {
    const std::size_t dim = dimensionAtDepth(pos - from, dims);
    const double mid = 0.5 * (lo[dim] + hi[dim]);  // == Rect::mid(dim)
    (path.bit(pos) ? lo : hi)[dim] = mid;
  }
  return cell;
}

BitString lowestCoveringPath(const Rect& r, std::size_t dims,
                             std::size_t maxDepth) {
  BitString path;
  Rect cell = Rect::unit(dims);
  for (std::size_t d = 0; d < maxDepth; ++d) {
    const std::size_t dim = dimensionAtDepth(d, dims);
    const Rect lower = cell.halved(dim, false);
    const Rect upper = cell.halved(dim, true);
    if (lower.containsRect(r)) {
      path.pushBack(false);
      cell = lower;
    } else if (upper.containsRect(r)) {
      path.pushBack(true);
      cell = upper;
    } else {
      break;
    }
  }
  return path;
}

}  // namespace mlight::common
