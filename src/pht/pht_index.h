// PHT: Prefix Hash Tree baseline (Chawathe et al., SIGCOMM'05; paper [4]).
//
// PHT is the first over-DHT index.  For multi-dimensional data it
// linearizes keys with a space-filling curve — the same bit interleaving
// m-LIGHT uses — and builds a binary trie over the resulting bit strings:
//
//  * every trie node (prefix) is materialized in the DHT under its own
//    label; *internal nodes hold no data* and serve as routing markers,
//    so range queries must always traverse down to the leaves;
//  * leaves hold up to θ_split records; a split re-assigns BOTH halves to
//    new DHT keys (the children's labels), which is the maintenance
//    overhead m-LIGHT's naming function avoids (Theorem 5);
//  * lookups binary-search the prefix length, probing whether the prefix
//    exists and is a leaf.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/hint_cache.h"
#include "common/bitstring.h"
#include "common/digest.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "dht/network.h"
#include "index/cell_node.h"
#include "index/index_base.h"
#include "index/prefix_locate.h"
#include "store/distributed_store.h"

namespace mlight::pht {

struct PhtConfig {
  std::size_t dims = 2;
  /// Maximum trie depth D in bits of the interleaved key (§7 uses 28).
  std::size_t maxDepth = 28;
  std::size_t thetaSplit = 100;
  std::size_t thetaMerge = 50;
  std::uint64_t seed = 43;
  std::string dhtNamespace = "pht/";
  /// The same per-peer label-hint cache m-LIGHT gets (src/cache), so the
  /// baseline comparison stays honest: the original PHT work caches
  /// resolved prefixes client-side too.
  mlight::cache::CachePolicy cache;
};

class PhtIndex final : public mlight::index::IndexBase {
 public:
  using Label = mlight::common::BitString;
  using Point = mlight::common::Point;
  using Rect = mlight::common::Rect;
  using Record = mlight::index::Record;
  /// A trie node: `complete` marks a leaf carrying the records; an
  /// internal node is a pure routing marker holding none.
  using CellNode = mlight::index::CellNode;

  PhtIndex(mlight::dht::Network& net, PhtConfig config);

  void insert(const Record& record) override;
  std::size_t erase(const Point& key, std::uint64_t id) override;
  mlight::index::RangeResult rangeQuery(const Rect& range) override;
  mlight::index::PointResult pointQuery(const Point& key) override;
  std::size_t size() const override { return size_; }

  /// Inserts dropped because their leaf was unreachable (fault
  /// injection): not counted in size().
  std::size_t failedInserts() const noexcept { return failedInserts_; }

  /// Logical split/merge traffic (counted independently of hashing luck;
  /// both children of every PHT split are re-assigned to fresh keys).
  /// splitStayLocal is always 0 for PHT.
  const mlight::index::MaintenanceBreakdown& maintenanceBreakdown()
      const noexcept {
    return breakdown_;
  }

  std::size_t leafCount() const;
  std::size_t nodeCount() const noexcept { return store_.bucketCount(); }
  void checkInvariants() const;

  const mlight::store::DistributedStore<CellNode>& store() const noexcept {
    return store_;
  }

  /// The per-peer hint caches (test/bench hook).
  mlight::cache::HintCacheSet& hintCaches() noexcept { return hintCaches_; }

  /// Digest of every simulation-visible fact of this index (see
  /// MLightIndex::stateDigest; same contract).
  std::uint64_t stateDigest() const {
    mlight::common::Digest d;
    d.feed(size_);
    breakdown_.digestTo(d);
    store_.digestState(d);
    hintCaches_.digestState(d);
    return d.value();
  }

 private:
  using Located = mlight::index::Located;

  /// Point location: the prefix binary search (index/prefix_locate.h,
  /// through the hint cache when enabled) over prefix lengths [0, D].
  Located locate(mlight::dht::RingId initiator, const Point& p,
                 std::uint32_t roundBase = 1);

  mlight::dht::RingId randomPeer();
  void splitLoop(Label leaf);
  void mergeLoop(Label leaf);

  mlight::dht::Network* net_;
  PhtConfig config_;
  mlight::store::DistributedStore<CellNode> store_;
  mlight::common::Rng rng_;
  mlight::cache::HintCacheSet hintCaches_;
  mlight::index::MaintenanceBreakdown breakdown_;
  std::size_t size_ = 0;
  std::size_t failedInserts_ = 0;
};

}  // namespace mlight::pht
