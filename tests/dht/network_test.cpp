#include "dht/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/check.h"
#include "common/rng.h"

namespace mlight::dht {
namespace {

TEST(RingId, ClockwiseWrapsModulo) {
  EXPECT_EQ(clockwise(RingId{10}, RingId{15}), 5u);
  EXPECT_EQ(clockwise(RingId{15}, RingId{10}),
            std::numeric_limits<std::uint64_t>::max() - 4);
  EXPECT_EQ(clockwise(RingId{7}, RingId{7}), 0u);
}

TEST(RingId, InArcHalfOpen) {
  EXPECT_TRUE(inArc(RingId{5}, RingId{0}, RingId{10}));
  EXPECT_TRUE(inArc(RingId{10}, RingId{0}, RingId{10}));
  EXPECT_FALSE(inArc(RingId{0}, RingId{0}, RingId{10}));
  // Wrapping arc.
  EXPECT_TRUE(inArc(RingId{2}, RingId{~0ull - 5}, RingId{10}));
  EXPECT_FALSE(inArc(RingId{100}, RingId{~0ull - 5}, RingId{10}));
}

TEST(Network, ConstructionPlacesDistinctSortedPeers) {
  Network net(128);
  EXPECT_EQ(net.peerCount(), 128u);
  const auto& peers = net.peers();
  for (std::size_t i = 1; i < peers.size(); ++i) {
    EXPECT_LT(peers[i - 1], peers[i]);
  }
}

TEST(Network, ResponsibleIsPredecessorMapping) {
  // Paper §3.1: key goes to the peer whose id is less than but closest
  // to hash(κ).
  Network net(16);
  const auto& peers = net.peers();
  // A key exactly on a peer id belongs to that peer.
  EXPECT_EQ(net.responsible(peers[3]), peers[3]);
  // A key just above a peer id belongs to that peer.
  EXPECT_EQ(net.responsible(RingId{peers[3].value + 1}), peers[3]);
  // A key below the smallest peer wraps to the largest.
  if (peers.front().value > 0) {
    EXPECT_EQ(net.responsible(RingId{peers.front().value - 1}),
              peers.back());
  }
  EXPECT_EQ(net.responsible(RingId{0}),
            peers.front().value == 0 ? peers.front() : peers.back());
}

TEST(Network, LookupReachesResponsibleWithBoundedHops) {
  Network net(128);
  mlight::common::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const RingId key{rng.next()};
    const RingId initiator = net.peers()[rng.below(net.peerCount())];
    const auto res = net.lookup(initiator, key);
    EXPECT_EQ(res.owner, net.responsible(key));
  }
  // Greedy finger routing is O(log n): with 128 peers, hops should stay
  // well below 2*log2(128) = 14.
  EXPECT_LE(net.maxHopsSeen(), 14u);
}

TEST(Network, LookupFromOwnerIsZeroHops) {
  Network net(32);
  const RingId key{12345};
  const RingId owner = net.responsible(key);
  const auto res = net.lookup(owner, key);
  EXPECT_EQ(res.hops, 0u);
}

TEST(Network, AverageHopsGrowLogarithmically) {
  mlight::common::Rng rng(7);
  auto avgHops = [&](std::size_t n) {
    Network net(n);
    std::uint64_t hops = 0;
    const int kLookups = 2000;
    for (int i = 0; i < kLookups; ++i) {
      const RingId key{rng.next()};
      hops += net.lookup(net.peers()[rng.below(n)], key).hops;
    }
    return static_cast<double>(hops) / kLookups;
  };
  const double h16 = avgHops(16);
  const double h256 = avgHops(256);
  EXPECT_GT(h256, h16);            // grows with n...
  EXPECT_LT(h256, 3.0 * h16);      // ...but far slower than linearly
  EXPECT_LT(h256, 10.0);           // ~log2(256)/2 + slack
}

TEST(Network, KeysSpreadOverPeers) {
  Network net(128);
  std::map<RingId, int> load;
  for (int i = 0; i < 20000; ++i) {
    load[net.responsibleForKey("key:" + std::to_string(i))]++;
  }
  // SHA-1 placement: most peers get something; no peer hoards.
  EXPECT_GT(load.size(), 100u);
  for (const auto& [peer, count] : load) {
    EXPECT_LT(count, 20000 / 10);
  }
}

TEST(Network, CostMeterCountsLookupsAndHops) {
  Network net(64);
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    net.lookupKey(net.peers()[0], "a");
    net.lookupKey(net.peers()[1], "b");
  }
  EXPECT_EQ(meter.lookups, 2u);
  EXPECT_GE(meter.hops, meter.lookups == 0 ? 0u : 0u);
  // Outside the scope nothing is metered into `meter`.
  net.lookupKey(net.peers()[2], "c");
  EXPECT_EQ(meter.lookups, 2u);
  EXPECT_EQ(net.totalCost().lookups, 3u);
}

TEST(Network, MeterScopesNest) {
  Network net(8);
  CostMeter outer;
  CostMeter inner;
  {
    MeterScope a(net, outer);
    {
      MeterScope b(net, inner);
      net.lookupKey(net.peers()[0], "x");
    }
    net.lookupKey(net.peers()[0], "y");
  }
  EXPECT_EQ(inner.lookups, 1u);
  EXPECT_EQ(outer.lookups, 2u);
}

TEST(Network, ShipPayloadIgnoresSamePeer) {
  Network net(4);
  net.shipPayload(net.peers()[0], net.peers()[0], 1000, 10);
  EXPECT_EQ(net.totalCost().bytesMoved, 0u);
  net.shipPayload(net.peers()[0], net.peers()[1], 1000, 10);
  EXPECT_EQ(net.totalCost().bytesMoved, 1000u);
  EXPECT_EQ(net.totalCost().recordsMoved, 10u);
}

TEST(Network, AddPeerChangesResponsibility) {
  Network net(8);
  std::map<std::string, RingId> before;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    before[key] = net.responsibleForKey(key);
  }
  const RingId added = net.addPeer("joiner:1");
  EXPECT_EQ(net.peerCount(), 9u);
  int changed = 0;
  for (const auto& [key, owner] : before) {
    const RingId now = net.responsibleForKey(key);
    if (now != owner) {
      ++changed;
      EXPECT_EQ(now, added);  // only the new peer can take keys
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(Network, RemovePeerHandsKeysToNeighbors) {
  Network net(8);
  const RingId victim = net.peers()[3];
  EXPECT_TRUE(net.removePeer(victim));
  EXPECT_EQ(net.peerCount(), 7u);
  for (const RingId p : net.peers()) EXPECT_NE(p, victim);
  // Lookups still resolve.
  const auto res = net.lookupKey(net.peers()[0], "anything");
  EXPECT_EQ(res.owner, net.responsibleForKey("anything"));
}

TEST(Network, RemoveUnknownOrLastPeerFails) {
  Network net(2);
  EXPECT_FALSE(net.removePeer(RingId{999999}));
  EXPECT_TRUE(net.removePeer(net.peers()[0]));
  EXPECT_FALSE(net.removePeer(net.peers()[0]));  // last one
}

TEST(Network, RebalanceCallbackFiresOnMembershipChange) {
  Network net(4);
  int calls = 0;
  const auto handle = net.registerStore(
      [&](const Network::MembershipChange&) { ++calls; });
  net.addPeer("x");
  EXPECT_EQ(calls, 1);
  net.removePeer(net.peers()[0]);
  EXPECT_EQ(calls, 2);
  net.unregisterStore(handle);
  net.addPeer("y");
  EXPECT_EQ(calls, 2);
}

TEST(Network, LookupFromDepartedInitiatorFailsCheck) {
  Network net(16);
  const RingId gone = net.peers()[5];
  ASSERT_TRUE(net.crashPeer(gone));
  EXPECT_THROW(net.lookup(gone, keyId("k")), mlight::common::CheckFailure);
  EXPECT_THROW(net.lookup(RingId{gone.value + 1}, keyId("k")),
               mlight::common::CheckFailure);
  EXPECT_EQ(net.totalCost().lookups, 0u);
}

TEST(Network, SlotHintedPhysicalOfSurvivesSlotShifts) {
  Network net(32, 3, /*vnodesPerPeer=*/4);
  // Hints learned on the initial ring, one per live vnode.
  std::map<RingId, std::uint32_t> hints;
  for (std::size_t i = 0; i < net.peers().size(); ++i) {
    const RingId v = net.peers()[i];
    std::uint32_t hint = 0;
    EXPECT_EQ(net.physicalOf(v, hint), net.physicalOf(v));
    EXPECT_EQ(hint, i);
    EXPECT_EQ(net.physicalOf(v, hint), net.physicalOf(v));  // hint hit
    hints[v] = hint;
  }

  // Each change removes or inserts ring positions below some surviving
  // vnodes, shifting their slots under the cached hints.
  std::map<RingId, std::uint32_t> departedHints;
  const auto dropOwnerOf = [&](RingId victim, bool crash) {
    const std::size_t gone = net.physicalOf(victim);
    for (const auto& [v, hint] : hints) {
      if (departedHints.count(v) == 0 && net.physicalOf(v) == gone) {
        departedHints[v] = hint;
      }
    }
    ASSERT_TRUE(crash ? net.crashPeer(victim) : net.removePeer(victim));
  };
  net.addPeer("joiner:1");
  dropOwnerOf(net.peers().front(), /*crash=*/false);
  dropOwnerOf(net.peers()[net.peers().size() / 2], /*crash=*/true);

  std::size_t stale = 0;
  for (auto& [v, hint] : hints) {
    if (departedHints.count(v) != 0) continue;
    const std::uint32_t before = hint;
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(net.peers().begin(), net.peers().end(), v) -
        net.peers().begin());
    stale += before != slot;
    EXPECT_EQ(net.physicalOf(v, hint), net.physicalOf(v));
    EXPECT_EQ(hint, slot) << "stale hint was not repaired";
  }
  EXPECT_GT(stale, 0u);

  // A departed vnode fails the liveness check whatever hint it carries.
  ASSERT_FALSE(departedHints.empty());
  for (auto [v, hint] : departedHints) {
    EXPECT_THROW(net.physicalOf(v, hint), mlight::common::CheckFailure);
  }
}

TEST(Network, SinglePeerNetworkRoutesTrivially) {
  Network net(1);
  const auto res = net.lookupKey(net.peers()[0], "k");
  EXPECT_EQ(res.owner, net.peers()[0]);
  EXPECT_EQ(res.hops, 0u);
}

TEST(Network, RandomPeerIsAMember) {
  Network net(16, 9);
  std::set<RingId> seen;
  for (int i = 0; i < 300; ++i) seen.insert(net.randomPeer());
  EXPECT_GT(seen.size(), 10u);
  for (const RingId p : seen) {
    EXPECT_TRUE(std::binary_search(net.peers().begin(), net.peers().end(),
                                   p));
  }
}

}  // namespace
}  // namespace mlight::dht
