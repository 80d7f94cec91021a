// Points and axis-aligned rectangles in the unit hypercube [0,1)^m.
//
// m-LIGHT assumes every data key is an m-dimensional vector with each
// coordinate in [0,1] (paper §3.1); this library uses the half-open
// [0,1), matching its half-open cells.  The kd-tree always halves a region
// exactly in the middle of one dimension ("space partitioning"), so regions
// are representable as dyadic boxes; we keep plain doubles for generality
// and because query rectangles are arbitrary.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace mlight::common {

/// Maximum dimensionality supported.  The paper's evaluation is 2-D; the
/// algorithms generalize, and tests exercise up to 4 dimensions.
inline constexpr std::size_t kMaxDims = 8;

/// An m-dimensional point.  Fixed capacity avoids per-point allocations on
/// hot paths; `dims` gives the live dimensionality.
class Point {
 public:
  Point() = default;

  explicit Point(std::size_t dims) : dims_(dims) {
    assert(dims >= 1 && dims <= kMaxDims);
  }

  Point(std::initializer_list<double> coords) : dims_(coords.size()) {
    assert(dims_ >= 1 && dims_ <= kMaxDims);
    std::size_t i = 0;
    for (double c : coords) coords_[i++] = c;
  }

  std::size_t dims() const noexcept { return dims_; }

  double operator[](std::size_t i) const noexcept {
    assert(i < dims_);
    return coords_[i];
  }
  double& operator[](std::size_t i) noexcept {
    assert(i < dims_);
    return coords_[i];
  }

  friend bool operator==(const Point& a, const Point& b) noexcept {
    if (a.dims_ != b.dims_) return false;
    for (std::size_t i = 0; i < a.dims_; ++i) {
      if (a.coords_[i] != b.coords_[i]) return false;
    }
    return true;
  }

  std::string toString() const;

 private:
  std::array<double, kMaxDims> coords_{};
  std::size_t dims_ = 0;
};

/// Axis-aligned box [lo, hi).  The half-open convention matches binary
/// space partitioning: halving [0,1) at 0.5 yields [0,0.5) and [0.5,1),
/// which tile the space with no point belonging to two cells.  Data keys
/// therefore live in [0,1)^m: MLightIndex rejects a coordinate of 1.0 (or
/// anything else outside the unit cube), since no query clipped to the
/// unit cube could ever return it.
class Rect {
 public:
  Rect() = default;

  Rect(Point lo, Point hi) : lo_(lo), hi_(hi) {
    assert(lo.dims() == hi.dims());
  }

  /// The unit hypercube [0,1)^m.
  static Rect unit(std::size_t dims);

  std::size_t dims() const noexcept { return lo_.dims(); }
  const Point& lo() const noexcept { return lo_; }
  const Point& hi() const noexcept { return hi_; }
  Point& lo() noexcept { return lo_; }
  Point& hi() noexcept { return hi_; }

  /// Half-open containment; inline because range harvests call it once
  /// per scanned record.
  bool contains(const Point& p) const noexcept {
    assert(p.dims() == dims());
    for (std::size_t i = 0; i < dims(); ++i) {
      if (p[i] < lo_[i] || p[i] >= hi_[i]) return false;
    }
    return true;
  }

  /// True iff `other` is fully inside *this.
  bool containsRect(const Rect& other) const noexcept;

  bool intersects(const Rect& other) const noexcept;

  /// Intersection box; empty() if they do not overlap.
  Rect intersection(const Rect& other) const noexcept;

  /// True iff some dimension has hi <= lo.
  bool empty() const noexcept;

  /// Product of side lengths (0 for empty boxes).
  double volume() const noexcept;

  /// Splits *this in the middle of dimension `dim`; returns the lower half
  /// if `upper` is false, else the upper half.
  Rect halved(std::size_t dim, bool upper) const noexcept;

  /// Midpoint of dimension `dim`.
  double mid(std::size_t dim) const noexcept {
    return 0.5 * (lo_[dim] + hi_[dim]);
  }

  friend bool operator==(const Rect& a, const Rect& b) noexcept {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  std::string toString() const;

 private:
  Point lo_;
  Point hi_;
};

}  // namespace mlight::common
