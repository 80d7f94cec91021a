#include "common/geometry.h"

#include <algorithm>
#include <sstream>

namespace mlight::common {

std::string Point::toString() const {
  std::ostringstream out;
  out << '<';
  for (std::size_t i = 0; i < dims_; ++i) {
    if (i != 0) out << ", ";
    out << coords_[i];
  }
  out << '>';
  return out.str();
}

Rect Rect::unit(std::size_t dims) {
  Point lo(dims);
  Point hi(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    lo[i] = 0.0;
    hi[i] = 1.0;
  }
  return Rect(lo, hi);
}

bool Rect::containsRect(const Rect& other) const noexcept {
  assert(other.dims() == dims());
  for (std::size_t i = 0; i < dims(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::intersects(const Rect& other) const noexcept {
  assert(other.dims() == dims());
  for (std::size_t i = 0; i < dims(); ++i) {
    if (other.hi_[i] <= lo_[i] || other.lo_[i] >= hi_[i]) return false;
  }
  return true;
}

Rect Rect::intersection(const Rect& other) const noexcept {
  assert(other.dims() == dims());
  Point lo(dims());
  Point hi(dims());
  for (std::size_t i = 0; i < dims(); ++i) {
    lo[i] = std::max(lo_[i], other.lo_[i]);
    hi[i] = std::min(hi_[i], other.hi_[i]);
  }
  return Rect(lo, hi);
}

bool Rect::empty() const noexcept {
  for (std::size_t i = 0; i < dims(); ++i) {
    if (hi_[i] <= lo_[i]) return true;
  }
  return dims() == 0;
}

double Rect::volume() const noexcept {
  if (empty()) return 0.0;
  double v = 1.0;
  for (std::size_t i = 0; i < dims(); ++i) v *= hi_[i] - lo_[i];
  return v;
}

Rect Rect::halved(std::size_t dim, bool upper) const noexcept {
  assert(dim < dims());
  Rect out = *this;
  const double m = mid(dim);
  if (upper) {
    out.lo_[dim] = m;
  } else {
    out.hi_[dim] = m;
  }
  return out;
}

std::string Rect::toString() const {
  return lo_.toString() + ".." + hi_.toString();
}

}  // namespace mlight::common
