#include "mlight/kdspace.h"

#include <cassert>

#include "common/zorder.h"

namespace mlight::core {

Rect labelRegion(const BitString& label, std::size_t dims) {
  assert(isTreeNodeLabel(label, dims));
  // The label's bits past its (m+1)-bit root are the kd path.
  return mlight::common::cellOfPath(label, dims, dims + 1);
}

BitString pointPathLabel(const Point& p, std::size_t dims,
                         std::size_t maxEdgeDepth) {
  BitString label = rootLabel(dims);
  label.append(mlight::common::interleave(p, maxEdgeDepth));
  return label;
}

BitString lowestCommonAncestor(const Rect& r, std::size_t dims,
                               std::size_t maxEdgeDepth) {
  BitString label = rootLabel(dims);
  label.append(mlight::common::lowestCoveringPath(r, dims, maxEdgeDepth));
  return label;
}

}  // namespace mlight::core
