// Arbitrary-shape query regions (paper §6: "the queried region can be
// of an arbitrary shape").
//
// A region answers three geometric questions against the kd-tree's
// rectangular cells — does it overlap a cell, does it fully cover a
// cell, does it contain a point — which is all the recursive-forwarding
// algorithm needs: forwarding prunes on overlap, scanning filters on
// containment, and the bounding box seeds the LCA.
#pragma once

#include <cmath>

#include "common/geometry.h"

namespace mlight::index {

class QueryRegion {
 public:
  virtual ~QueryRegion() = default;

  /// Tightest axis-aligned box around the region (used for the LCA).
  virtual mlight::common::Rect boundingBox() const = 0;

  /// True iff the region and the cell overlap (may be conservative —
  /// returning true for a near-miss only costs an extra forward).
  virtual bool intersects(const mlight::common::Rect& cell) const = 0;

  /// True iff the region fully covers the cell (must be exact or
  /// under-approximate: claiming coverage skips per-record filtering).
  /// Range harvests ask it twice per bucket — of the leaf cell, to take
  /// the bucket whole, and of the cell clipped to the task scope, to
  /// filter on the clip box alone — so an over-approximation returns
  /// records outside the region.
  virtual bool covers(const mlight::common::Rect& cell) const = 0;

  /// True iff the point is inside the region (exact; final filter).
  virtual bool contains(const mlight::common::Point& p) const = 0;
};

/// Axis-aligned box, the paper's evaluation shape.
class RectRegion final : public QueryRegion {
 public:
  explicit RectRegion(mlight::common::Rect rect) : rect_(rect) {}

  mlight::common::Rect boundingBox() const override { return rect_; }
  bool intersects(const mlight::common::Rect& cell) const override {
    return rect_.intersects(cell);
  }
  bool covers(const mlight::common::Rect& cell) const override {
    return rect_.containsRect(cell);
  }
  bool contains(const mlight::common::Point& p) const override {
    return rect_.contains(p);
  }

 private:
  mlight::common::Rect rect_;
};

/// Euclidean ball (circle in 2-D): "all restaurants within 5 km".
class BallRegion final : public QueryRegion {
 public:
  BallRegion(mlight::common::Point center, double radius)
      : center_(center), radius_(radius) {}

  mlight::common::Rect boundingBox() const override {
    mlight::common::Point lo(center_.dims());
    mlight::common::Point hi(center_.dims());
    for (std::size_t d = 0; d < center_.dims(); ++d) {
      lo[d] = center_[d] - radius_;
      hi[d] = center_[d] + radius_;
    }
    return mlight::common::Rect(lo, hi);
  }

  bool intersects(const mlight::common::Rect& cell) const override {
    // Distance from center to the cell (0 if inside) vs radius.
    double d2 = 0.0;
    for (std::size_t d = 0; d < center_.dims(); ++d) {
      const double v = center_[d];
      if (v < cell.lo()[d]) {
        const double delta = cell.lo()[d] - v;
        d2 += delta * delta;
      } else if (v > cell.hi()[d]) {
        const double delta = v - cell.hi()[d];
        d2 += delta * delta;
      }
    }
    return d2 <= radius_ * radius_;
  }

  bool covers(const mlight::common::Rect& cell) const override {
    // The farthest cell corner must be inside the ball.
    double d2 = 0.0;
    for (std::size_t d = 0; d < center_.dims(); ++d) {
      const double toLo = std::abs(center_[d] - cell.lo()[d]);
      const double toHi = std::abs(cell.hi()[d] - center_[d]);
      const double far = std::max(toLo, toHi);
      d2 += far * far;
    }
    return d2 <= radius_ * radius_;
  }

  bool contains(const mlight::common::Point& p) const override {
    double d2 = 0.0;
    for (std::size_t d = 0; d < center_.dims(); ++d) {
      const double delta = p[d] - center_[d];
      d2 += delta * delta;
    }
    return d2 <= radius_ * radius_;
  }

 private:
  mlight::common::Point center_;
  double radius_;
};

}  // namespace mlight::index
