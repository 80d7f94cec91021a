// Static replica of dht::Network's ring geometry for worlds without a
// Network instance (the TCP client, the peerd daemon).
//
// The TCP backend must place records on exactly the ring the simulator
// would build for the same peer count, or the two worlds answer queries
// from different owners and the simulated predictions stop describing
// the measured run.  RingMap builds from the same dht::bulkRing as
// Network's bulk constructor, with ownership by predecessor mapping
// (greatest vnode id <= key, wrapping).  Pinned against
// Network::responsible by tests/transport/wire_parity_test.cpp.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dht/id.h"

namespace mlight::transport {

class RingMap {
 public:
  explicit RingMap(std::size_t peerCount, std::size_t vnodesPerPeer = 1);

  /// Vnode responsible for `h` (predecessor mapping, wrapping).
  dht::RingId responsible(dht::RingId h) const noexcept;

  /// Physical peer index owning `vnode` (must be a ring member).
  std::size_t peerOf(dht::RingId vnode) const;

  /// Physical peer index responsible for `key`.
  std::size_t ownerPeer(dht::RingId key) const {
    return peerOf(responsible(key));
  }

  /// First (v == 0) vnode of a physical peer.
  dht::RingId firstVnode(std::size_t peer) const {
    return firstVnode_.at(peer);
  }

  std::size_t peerCount() const noexcept { return firstVnode_.size(); }
  std::size_t vnodeCount() const noexcept { return ring_.size(); }

 private:
  std::vector<dht::RingId> ring_;  // sorted ascending
  std::map<dht::RingId, std::size_t> vnodeToPeer_;
  std::vector<dht::RingId> firstVnode_;  // by peer index
};

}  // namespace mlight::transport
