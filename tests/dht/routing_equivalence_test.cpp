// Route equivalence: the overlay routes on ring indices, computing each
// greedy hop with one successor query on the ring-slot directory and
// costing links through a dense vnode -> physical array.  These tests
// pin it, exactly, to a reference RingId-keyed router that stores
// Chord finger tables (finger[k] = first peer at or after self + 2^k),
// scans them on every hop, and costs links through a vnode -> physical
// std::map.  Owner, hops and simulated ms (as exact doubles) must match
// on every lookup, before and after a seeded mix of joins, graceful
// leaves and crashes; so must physicalOf, linkMs and livePhysicalCount.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "dht/network.h"

namespace mlight::dht {
namespace {

/// Map-based model of the ring plus the RingId router, mirroring every
/// membership change applied to the Network under test.  Call freeze()
/// after the last change to build the ring and finger tables.
class ReferenceRing {
 public:
  ReferenceRing(std::size_t peerCount, std::size_t vnodesPerPeer,
                LatencyModel latency)
      : vnodesPerPeer_(vnodesPerPeer), latency_(latency) {
    for (std::size_t i = 0; i < peerCount; ++i) {
      add("node:" + std::to_string(i));
    }
  }

  void add(const std::string& name) {
    const std::size_t physical = physicalCount_++;
    for (std::size_t v = 0; v < vnodesPerPeer_; ++v) {
      RingId id = keyId("peer-id:" + name + "#" + std::to_string(v));
      while (vnodeToPhysical_.count(id) != 0) id.value += 1;
      vnodeToPhysical_[id] = physical;
    }
  }

  /// Drops every vnode of the physical peer owning `id`; false if `id`
  /// is not live or its peer is the last one.
  bool drop(RingId id) {
    const auto it = vnodeToPhysical_.find(id);
    if (it == vnodeToPhysical_.end()) return false;
    const std::size_t physical = it->second;
    if (livePhysicalCount() == 1) return false;
    std::erase_if(vnodeToPhysical_,
                  [&](const auto& e) { return e.second == physical; });
    return true;
  }

  void freeze() {
    peers_.clear();
    for (const auto& [vnode, physical] : vnodeToPhysical_) {
      peers_.push_back(vnode);
    }
    fingers_.assign(peers_.size(), {});
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const RingId p = peers_[i];
      RingId last{p.value};
      for (int k = 0; k < 64; ++k) {
        const RingId probe{p.value + (std::uint64_t{1} << k)};
        auto it = std::lower_bound(peers_.begin(), peers_.end(), probe);
        const RingId f = (it == peers_.end()) ? peers_.front() : *it;
        if (f != last && f != p) {
          fingers_[i].push_back(f);
          last = f;
        }
      }
    }
  }

  const std::vector<RingId>& peers() const { return peers_; }
  const std::map<RingId, std::size_t>& vnodeToPhysical() const {
    return vnodeToPhysical_;
  }

  std::size_t livePhysicalCount() const {
    std::set<std::size_t> live;
    for (const auto& [vnode, physical] : vnodeToPhysical_) {
      live.insert(physical);
    }
    return live.size();
  }

  RingId responsible(RingId h) const {
    auto it = std::upper_bound(peers_.begin(), peers_.end(), h);
    if (it == peers_.begin()) return peers_.back();
    return *std::prev(it);
  }

  double linkMs(RingId a, RingId b) const {
    if (a == b) return 0.0;
    const auto ia = vnodeToPhysical_.find(a);
    const auto ib = vnodeToPhysical_.find(b);
    if (ia != vnodeToPhysical_.end() && ib != vnodeToPhysical_.end() &&
        ia->second == ib->second) {
      return 0.0;
    }
    const std::uint64_t lo = std::min(a.value, b.value);
    const std::uint64_t hi = std::max(a.value, b.value);
    std::uint64_t h = lo * 0x9E3779B97F4A7C15ull ^ (hi + 0xD1B54A32D192ED03ull);
    h ^= h >> 32;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 29;
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    return latency_.minMs + (latency_.maxMs - latency_.minMs) * unit;
  }

  RouteResult lookup(RingId initiator, RingId key) const {
    const RingId target = responsible(key);
    std::size_t hops = 0;
    double ms = 0.0;
    RingId cur = initiator;
    while (cur != target) {
      const auto curIt = std::lower_bound(peers_.begin(), peers_.end(), cur);
      const auto& table =
          fingers_[static_cast<std::size_t>(curIt - peers_.begin())];
      const std::uint64_t want = clockwise(cur, target);
      RingId next = cur;
      std::uint64_t best = 0;
      for (RingId f : table) {
        const std::uint64_t d = clockwise(cur, f);
        if (d != 0 && d <= want && d > best) {
          best = d;
          next = f;
        }
      }
      if (next == cur) {
        auto it = std::upper_bound(peers_.begin(), peers_.end(), cur);
        next = (it == peers_.end()) ? peers_.front() : *it;
      }
      ms += linkMs(cur, next);
      cur = next;
      ++hops;
    }
    return RouteResult{target, hops, ms};
  }

 private:
  std::size_t vnodesPerPeer_;
  LatencyModel latency_;
  std::size_t physicalCount_ = 0;
  std::map<RingId, std::size_t> vnodeToPhysical_;
  std::vector<RingId> peers_;
  std::vector<std::vector<RingId>> fingers_;
};

struct RingShape {
  std::size_t peers;
  std::size_t vnodes;
  bool churn;
};

std::string shapeName(const RingShape& shape) {
  return std::to_string(shape.peers) + "x" + std::to_string(shape.vnodes) +
         (shape.churn ? "_churned" : "_fresh");
}

void PrintTo(const RingShape& shape, std::ostream* os) {
  *os << shapeName(shape);
}

class RoutingEquivalence : public ::testing::TestWithParam<RingShape> {};

// Joins (fresh names and rejoins of departed ones), graceful leaves and
// crashes, applied to both rings; the Network's answer to each removal
// must match the model's.  Appends the vnodes that left to `departed`.
void applyChurn(Network& net, ReferenceRing& ref, std::uint64_t seed,
                std::vector<RingId>& departed) {
  common::Rng rng(seed);
  std::vector<std::string> departedNames;
  for (int e = 0; e < 24; ++e) {
    const std::uint64_t dice = rng.below(4);
    if (dice == 0) {
      const std::string name = "churn-" + std::to_string(e);
      net.addPeer(name);
      ref.add(name);
    } else if (dice == 1 && !departedNames.empty()) {
      const std::string name = departedNames.back();  // rejoin
      departedNames.pop_back();
      net.addPeer(name);
      ref.add(name);
    } else {
      const RingId victim = net.peers()[rng.below(net.peerCount())];
      const std::string name = net.physicalNameOf(victim);
      const std::vector<RingId> before = net.peers();
      const bool dropped =
          dice == 2 ? net.removePeer(victim) : net.crashPeer(victim);
      ASSERT_EQ(dropped, ref.drop(victim));
      if (!dropped) continue;
      departedNames.push_back(name);
      for (const RingId p : before) {
        if (!std::binary_search(net.peers().begin(), net.peers().end(), p)) {
          departed.push_back(p);
        }
      }
    }
  }
}

// Keys aimed at the ring-slot directory's edges: 0 and 2^64 - 1 (the
// wrap), every peer id and its neighbours, and the first and last id of
// every directory bucket (2^b buckets, b = bit_width(n) + 1), which
// covers every empty bucket.  responsible() and the owner's physicalOf()
// must match the model, and so must each routed lookup's owner, hops
// and exact ms from the first, middle and last vnode.  Ownership is
// predecessor-based, so a key owns itself exactly when it is a live
// vnode; that checks liveness for every key without a throw.  An id that
// is not live must fail physicalOf(): checked on the wrap keys and the
// first 32 other such ids, since each thrown CheckFailure costs
// milliseconds under ASan's fake stack and the ring has thousands.
void checkAdversarialKeys(Network& net, const ReferenceRing& ref) {
  const std::vector<RingId>& peers = net.peers();
  std::vector<RingId> keys = {RingId{0}, RingId{~std::uint64_t{0}}};
  for (const RingId p : peers) {
    keys.push_back(RingId{p.value - 1});
    keys.push_back(p);
    keys.push_back(RingId{p.value + 1});
  }
  const int bits = static_cast<int>(std::bit_width(peers.size())) + 1;
  for (std::uint64_t j = 0; j < (std::uint64_t{1} << bits); ++j) {
    const std::uint64_t floor = j << (64 - bits);
    keys.push_back(RingId{floor});
    keys.push_back(RingId{floor - 1});
  }
  const RingId initiators[] = {peers.front(), peers[peers.size() / 2],
                               peers.back()};
  std::size_t thrownChecks = 0;
  for (const RingId key : keys) {
    const RingId owner = ref.responsible(key);
    ASSERT_EQ(net.responsible(key), owner) << toString(key);
    for (const RingId initiator : initiators) {
      const RouteResult got = net.lookup(initiator, key);
      const RouteResult want = ref.lookup(initiator, key);
      ASSERT_EQ(got.owner, owner) << toString(key);
      ASSERT_EQ(got.hops, want.hops) << toString(key);
      ASSERT_EQ(got.ms, want.ms) << toString(key);
    }
    ASSERT_EQ(net.physicalOf(owner), ref.vnodeToPhysical().at(owner));
    const bool live = ref.vnodeToPhysical().count(key) != 0;
    ASSERT_EQ(net.responsible(key) == key, live) << toString(key);
    if (live) {
      ASSERT_EQ(net.physicalOf(key), ref.vnodeToPhysical().at(key));
    } else if (key == keys[0] || key == keys[1] || thrownChecks++ < 32) {
      ASSERT_THROW(net.physicalOf(key), common::CheckFailure) << toString(key);
    }
  }
}

TEST_P(RoutingEquivalence, MatchesRingIdKeyedReference) {
  const RingShape shape = GetParam();
  const LatencyModel latency{};
  Network net(shape.peers, 3, shape.vnodes, latency);
  ReferenceRing ref(shape.peers, shape.vnodes, latency);
  std::vector<RingId> departed;
  if (shape.churn) {
    ASSERT_NO_FATAL_FAILURE(applyChurn(net, ref, 17 + shape.peers, departed));
  }
  ref.freeze();
  ASSERT_EQ(net.peers(), ref.peers());

  // Membership bookkeeping against the map.
  EXPECT_EQ(net.livePhysicalCount(), ref.livePhysicalCount());
  for (const auto& [vnode, physical] : ref.vnodeToPhysical()) {
    ASSERT_EQ(net.physicalOf(vnode), physical);
  }

  // Link costs: live pairs, co-located vnodes, departed and arbitrary ids.
  common::Rng rng(29 + shape.peers * shape.vnodes);
  const std::vector<RingId>& peers = net.peers();
  const auto anyId = [&]() -> RingId {
    const std::uint64_t dice = rng.below(8);
    if (dice == 0) return RingId{rng.next()};
    if (dice == 1 && !departed.empty()) {
      return departed[rng.below(departed.size())];
    }
    return peers[rng.below(peers.size())];
  };
  for (int i = 0; i < 4000; ++i) {
    const RingId a = anyId();
    const RingId b = i % 4 == 0 ? a : anyId();
    ASSERT_EQ(net.linkMs(a, b), ref.linkMs(a, b));
  }
  std::map<std::size_t, RingId> firstVnodeOf;
  for (const auto& [vnode, physical] : ref.vnodeToPhysical()) {
    const RingId first = firstVnodeOf.emplace(physical, vnode).first->second;
    ASSERT_EQ(net.linkMs(vnode, first), ref.linkMs(vnode, first));
  }
  for (std::size_t i = 0; i + 1 < peers.size(); ++i) {
    ASSERT_EQ(net.linkMs(peers[i], peers[i + 1]),
              ref.linkMs(peers[i], peers[i + 1]));
  }

  // Routed lookups: owner, hops and ms must be exactly equal.
  const CostMeter before = net.totalCost();
  std::uint64_t refHops = 0;
  for (int i = 0; i < 20000; ++i) {
    const RingId initiator = peers[rng.below(peers.size())];
    const RingId key = i % 16 == 0 ? peers[rng.below(peers.size())]
                                   : RingId{rng.next()};
    const RouteResult got = net.lookup(initiator, key);
    const RouteResult want = ref.lookup(initiator, key);
    ASSERT_EQ(got.owner, want.owner) << "lookup " << i;
    ASSERT_EQ(got.hops, want.hops) << "lookup " << i;
    ASSERT_EQ(got.ms, want.ms) << "lookup " << i;
    refHops += want.hops;
  }
  EXPECT_EQ(net.totalCost().lookups - before.lookups, 20000u);
  EXPECT_EQ(net.totalCost().hops - before.hops, refHops);

  ASSERT_NO_FATAL_FAILURE(checkAdversarialKeys(net, ref));
}

// A ring whose ids all share their top 10 bits: every peer lands in one
// directory bucket and every other bucket is empty, so each search runs
// over the whole ring and most keys wrap to the last slot.  Pinned
// before and after churn among the clustered peers.
TEST(RoutingEquivalenceClustered, DirectoryEdgesMatchReference) {
  constexpr std::size_t kPeers = 48;
  std::vector<std::string> names;
  for (std::uint64_t serial = 0; names.size() < kPeers; ++serial) {
    const std::string name = "cluster-" + std::to_string(serial);
    if (keyId("peer-id:" + name + "#0").value >> 54 == 0x2A5) {
      names.push_back(name);
    }
  }
  const LatencyModel latency{};
  Network net(1, 3, 1, latency);
  ReferenceRing ref(1, 1, latency);
  for (const std::string& name : names) {
    net.addPeer(name);
    ref.add(name);
  }
  const RingId seedPeer = keyId("peer-id:node:0#0");
  ASSERT_TRUE(net.removePeer(seedPeer));
  ASSERT_TRUE(ref.drop(seedPeer));
  ref.freeze();
  ASSERT_EQ(net.peers(), ref.peers());
  ASSERT_NO_FATAL_FAILURE(checkAdversarialKeys(net, ref));

  // Crashes and graceful leaves, with a departed peer rejoining under
  // its old name every third event.
  common::Rng rng(41);
  std::vector<std::string> departed;
  for (int e = 0; e < 12; ++e) {
    const RingId victim = net.peers()[rng.below(net.peerCount())];
    departed.push_back(net.physicalNameOf(victim));
    const bool dropped =
        e % 2 == 0 ? net.crashPeer(victim) : net.removePeer(victim);
    ASSERT_TRUE(dropped);
    ASSERT_TRUE(ref.drop(victim));
    if (e % 3 == 2) {
      net.addPeer(departed.front());
      ref.add(departed.front());
      departed.erase(departed.begin());
    }
  }
  ref.freeze();
  ASSERT_EQ(net.peers(), ref.peers());
  ASSERT_NO_FATAL_FAILURE(checkAdversarialKeys(net, ref));
}

INSTANTIATE_TEST_SUITE_P(
    Rings, RoutingEquivalence,
    ::testing::Values(RingShape{1, 1, false}, RingShape{2, 1, false},
                      RingShape{3, 4, true},
                      RingShape{128, 1, false}, RingShape{128, 1, true},
                      RingShape{128, 8, false}, RingShape{128, 8, true},
                      RingShape{10240, 1, false}, RingShape{10240, 1, true}),
    [](const ::testing::TestParamInfo<RingShape>& shapeInfo) {
      return shapeName(shapeInfo.param);
    });

}  // namespace
}  // namespace mlight::dht
