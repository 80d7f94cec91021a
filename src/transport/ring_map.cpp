#include "transport/ring_map.h"

#include <algorithm>

#include "common/check.h"
#include "dht/network.h"

namespace mlight::transport {

RingMap::RingMap(std::size_t peerCount, std::size_t vnodesPerPeer) {
  MLIGHT_CHECK(peerCount >= 1, "RingMap needs at least one peer");
  MLIGHT_CHECK(vnodesPerPeer >= 1, "RingMap needs at least one vnode");
  firstVnode_.resize(peerCount);
  for (const dht::BulkVnode& v : dht::bulkRing(peerCount, vnodesPerPeer)) {
    ring_.push_back(v.id);
    vnodeToPeer_[v.id] = v.physical;
    if (v.vnode == 0) firstVnode_[v.physical] = v.id;
  }
}

dht::RingId RingMap::responsible(dht::RingId h) const noexcept {
  auto it = std::upper_bound(ring_.begin(), ring_.end(), h);
  if (it == ring_.begin()) return ring_.back();
  return *std::prev(it);
}

std::size_t RingMap::peerOf(dht::RingId vnode) const {
  const auto it = vnodeToPeer_.find(vnode);
  MLIGHT_CHECK(it != vnodeToPeer_.end(), "peerOf: unknown vnode");
  return it->second;
}

}  // namespace mlight::transport
