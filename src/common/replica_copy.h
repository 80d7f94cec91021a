// One copy of a read-replicated leaf as a reader sees it.  A boosted
// leaf's replica route is one array of these, in copy-target order: the
// store hands it over (DistributedStore::replicaReadInfo), the hint
// cache keeps it with the leaf's hint, and a cached locate probes the
// least-loaded copy.  Declared here so the store and the cache need not
// include each other.
#pragma once

#include <cstdint>

namespace mlight::common {

struct ReplicaCopy {
  std::uint32_t salt = 0;  ///< DHT placement salt of the copy
  std::uint32_t load = 0;  ///< coarse load of its holder when observed

  bool operator==(const ReplicaCopy&) const = default;
};

}  // namespace mlight::common
