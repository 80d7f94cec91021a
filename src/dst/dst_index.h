// The static segment-tree baselines §2.1 groups together: "To fill
// internal nodes, they both replicate the data records of a leaf node at
// all its ancestors."
//
//  * DST, the Distributed Segment Tree (Zheng et al., IPTPS'06 / MSR TR
//    2007; paper [5],[19]), in its multi-dimensional (quad-tree) form the
//    m-LIGHT paper compares against: a 2^m-ary tree, m interleaved bits
//    per level.
//  * RST, the Range Search Tree (Gao & Steenkiste, ICNP'04; paper [9]):
//    a binary tree, one bit per level, whose top `bandCeiling` levels lie
//    outside the *registration band* and never store data (they would be
//    replication hotspots serving every insert).
//
// Both superimpose a *static* tree of depth D bits over the data space;
// node labels are interleaved-bit prefixes on level boundaries.  Every
// record is replicated at ALL its ancestors inside the band, capped by a
// per-node saturation limit γ: once a node overflows γ it stops absorbing
// records (and is marked incomplete, so queries must descend below it).
// Consequences the paper measures:
//
//  * maintenance costs an order of magnitude more than m-LIGHT/PHT
//    (one DHT-put per non-saturated ancestor per insert);
//  * small ranges resolve in O(1) rounds (each canonical cover node is
//    one DHT-lookup away);
//  * large ranges decompose into very many small subranges when the
//    static depth D exceeds the "real" tree depth, blowing up bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitstring.h"
#include "common/digest.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "dht/network.h"
#include "index/cell_node.h"
#include "index/index_base.h"
#include "store/distributed_store.h"

namespace mlight::dst {

/// Interleaved bits per tree level.
enum class LevelWidth {
  kDims,    ///< m bits: DST's 2^m-ary tree
  kOneBit,  ///< one bit: RST's binary tree
};

struct DstConfig {
  std::size_t dims = 2;
  /// Static tree depth in interleaved bits; a multiple of the level
  /// width.  §7 uses D = 28 (14 quad levels in 2-D).
  std::size_t maxDepth = 28;
  /// Saturation cap γ per node (the paper couples it to θ_split).
  std::size_t gamma = 100;
  LevelWidth levelWidth = LevelWidth::kDims;
  /// Bits above the registration band (RST): nodes shallower than this
  /// never store data and queries never probe them.  On a level
  /// boundary; 0 (DST) registers from the root.
  std::size_t bandCeiling = 0;
  std::uint64_t seed = 44;
  std::string dhtNamespace = "dst/";
};

class DstIndex final : public mlight::index::IndexBase {
 public:
  using Label = mlight::common::BitString;
  using Point = mlight::common::Point;
  using Rect = mlight::common::Rect;
  using Record = mlight::index::Record;
  using CellNode = mlight::index::CellNode;

  DstIndex(mlight::dht::Network& net, DstConfig config);

  void insert(const Record& record) override;
  std::size_t erase(const Point& key, std::uint64_t id) override;
  mlight::index::RangeResult rangeQuery(const Rect& range) override;
  mlight::index::PointResult pointQuery(const Point& key) override;
  std::size_t size() const override { return size_; }

  /// Inserts whose level chain failed before the leaf level (fault
  /// injection): not counted in size().  Ancestors the chain reached
  /// before failing keep their replica.
  std::size_t failedInserts() const noexcept { return failedInserts_; }

  std::size_t nodeCount() const noexcept { return store_.bucketCount(); }
  /// Tree levels below the band ceiling: an insert visits levels() + 1
  /// nodes, the ceiling's through the leaf's.
  std::size_t levels() const noexcept {
    return (config_.maxDepth - config_.bandCeiling) / levelBits();
  }
  void checkInvariants() const;

  /// The canonical decomposition of a range into maximal tree cells at
  /// or below the band ceiling (computed locally; exposed for tests and
  /// the bandwidth analysis).
  std::vector<Label> decompose(const Rect& range) const;

  const mlight::store::DistributedStore<CellNode>& store() const noexcept {
    return store_;
  }

  /// Digest of every simulation-visible fact of this index (see
  /// MLightIndex::stateDigest; same contract).
  std::uint64_t stateDigest() const {
    mlight::common::Digest d;
    d.feed(size_);
    store_.digestState(d);
    return d.value();
  }

 private:
  std::size_t levelBits() const noexcept {
    return config_.levelWidth == LevelWidth::kDims ? config_.dims : 1;
  }
  mlight::dht::RingId randomPeer();
  void insertAtDepth(const Record& record, mlight::dht::RingId initiator,
                     const Label& path, std::size_t depth,
                     std::uint32_t round);
  /// Calls fn(childLabel, childCell) for the node's children one level
  /// down, in lexicographic label order.
  template <typename Fn>
  void forEachChild(const Label& node, const Rect& cell, Fn&& fn) const;
  void probeRange(const Rect& clipped, const Label& label,
                  mlight::dht::RingId source, std::uint32_t round,
                  std::vector<Record>& out);
  void decomposeInto(const Rect& range, const Label& node, const Rect& cell,
                     std::vector<Label>& out) const;

  mlight::dht::Network* net_;
  DstConfig config_;
  mlight::store::DistributedStore<CellNode> store_;
  mlight::common::Rng rng_;
  std::size_t size_ = 0;
  std::size_t failedInserts_ = 0;
};

}  // namespace mlight::dst
