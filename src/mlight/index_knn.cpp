// MLightIndex::knnQuery — the expanding-range k-nearest-neighbour
// extension (see index.h for the contract).
#include "mlight/index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.h"

#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "mlight/split.h"

namespace mlight::core {

MLightIndex::KnnResult MLightIndex::knnQuery(const Point& q, std::size_t k) {
  if (q.dims() != config_.dims) {
    throw std::invalid_argument("knnQuery: wrong dimensionality");
  }
  KnnResult out;
  if (k == 0 || size_ == 0) return out;

  const auto distance = [&](const Point& p) {
    double d2 = 0.0;
    for (std::size_t d = 0; d < config_.dims; ++d) {
      const double delta = p[d] - q[d];
      d2 += delta * delta;
    }
    return std::sqrt(d2);
  };
  const auto boxAround = [&](double r) {
    Point lo(config_.dims);
    Point hi(config_.dims);
    for (std::size_t d = 0; d < config_.dims; ++d) {
      lo[d] = q[d] - r;
      hi[d] = q[d] + r;
    }
    return Rect(lo, hi).intersection(Rect::unit(config_.dims));
  };

  // Seed the radius with the leaf covering q: its cell diameter is the
  // natural local scale (and guarantees the first box is non-trivial).
  const LookupResult seed = lookup(q);
  out.stats += seed.stats;
  const Rect leafRegion = labelRegion(seed.leaf, config_.dims);
  double radius = 1e-6;
  for (std::size_t d = 0; d < config_.dims; ++d) {
    radius = std::max(radius,
                      std::max(std::abs(q[d] - leafRegion.lo()[d]),
                               std::abs(leafRegion.hi()[d] - q[d])));
  }

  for (;;) {
    const Rect box = boxAround(radius);
    auto res = rangeQuery(box);
    out.stats += res.stats;
    std::sort(res.records.begin(), res.records.end(),
              [&](const Record& a, const Record& b) {
                const double da = distance(a.key);
                const double db = distance(b.key);
                return da != db ? da < db : a.id < b.id;
              });
    const bool boxIsEverything =
        box.containsRect(Rect::unit(config_.dims));
    if (res.records.size() >= k) {
      // Certified iff the k-th distance fits inside the probed radius
      // (anything closer would have been inside the box).
      const double kth = distance(res.records[k - 1].key);
      if (kth <= radius || boxIsEverything) {
        res.records.resize(k);
        out.records = std::move(res.records);
        return out;
      }
      radius = std::max(kth, radius * 2.0);
      continue;
    }
    if (boxIsEverything) {
      out.records = std::move(res.records);  // fewer than k exist
      return out;
    }
    radius *= 2.0;
  }
}

}  // namespace mlight::core
