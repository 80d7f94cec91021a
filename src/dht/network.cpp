#include "dht/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/invariants.h"

namespace mlight::dht {

std::uint64_t faultSeedFromEnv(std::uint64_t fallback) {
  return strictDecimalEnv("MLIGHT_FAULT_SEED", fallback);
}

namespace {

// sendQueueFree_ value of a sender with nothing queued: any departure
// time beats it, and no busy queue ever holds it.
constexpr double kIdleQueue = -std::numeric_limits<double>::infinity();

}  // namespace

std::string toString(RingId id) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id.value));
  return buf;
}

std::string bulkPeerName(std::size_t i) {
  return "node:" + std::to_string(i);
}

RingId vnodeId(std::string_view peerName, std::size_t v) {
  return keyId("peer-id:" + std::string(peerName) + "#" + std::to_string(v));
}

std::vector<BulkVnode> bulkRing(std::size_t peerCount,
                                std::size_t vnodesPerPeer) {
  std::vector<BulkVnode> ring;
  ring.reserve(peerCount * vnodesPerPeer);
  for (std::size_t i = 0; i < peerCount; ++i) {
    const std::string name = bulkPeerName(i);
    for (std::size_t v = 0; v < vnodesPerPeer; ++v) {
      ring.push_back(BulkVnode{vnodeId(name, v), i, v});
    }
  }
  std::sort(ring.begin(), ring.end(),
            [](const BulkVnode& a, const BulkVnode& b) {
              if (a.id != b.id) return a.id < b.id;
              return a.physical < b.physical;  // total order on collision
            });
  // Resolve the (astronomically unlikely) id collision deterministically,
  // mirroring addPeer's bump-until-free.
  for (std::size_t k = 1; k < ring.size(); ++k) {
    if (ring[k].id == ring[k - 1].id) ring[k].id.value += 1;
  }
  return ring;
}

Network::Network(std::size_t peerCount, std::uint64_t seed,
                 std::size_t vnodesPerPeer, LatencyModel latency)
    : vnodesPerPeer_(vnodesPerPeer), latency_(latency), rng_(seed) {
  assert(peerCount >= 1);
  assert(vnodesPerPeer >= 1);
  // Bulk construction: generate every vnode id, sort the ring once, and
  // build the ring-slot directory once.  The incremental path (addPeer)
  // inserts into the sorted ring and reindexes per join — fine for churn,
  // quadratic for a 10k-peer ring bootstrap (n sorted inserts, each
  // followed by an O(n) reindex); this is O(n log n).
  physicalNames_.reserve(peerCount);
  for (std::size_t i = 0; i < peerCount; ++i) {
    physicalNames_.push_back(bulkPeerName(i));
  }
  const std::vector<BulkVnode> ring = bulkRing(peerCount, vnodesPerPeer);
  peers_.reserve(ring.size());
  physicalOfIdx_.reserve(ring.size());
  for (const BulkVnode& v : ring) {
    peers_.push_back(v.id);
    physicalOfIdx_.push_back(static_cast<std::uint32_t>(v.physical));
  }
  reindexRing();
}

std::size_t Network::livePhysicalCount() const {
  std::vector<bool> live(physicalNames_.size(), false);
  std::size_t count = 0;
  for (const std::uint32_t physical : physicalOfIdx_) {
    if (!live[physical]) {
      live[physical] = true;
      ++count;
    }
  }
  return count;
}

std::uint32_t Network::lowerIndexOf(RingId h) const noexcept {
  // Every slot before h's directory bucket holds a smaller id and every
  // slot after it a larger one, so the bucket's lower bound is the ring's.
  const std::size_t j = h.value >> ringDirShift_;
  const auto it = std::lower_bound(peers_.begin() + ringDir_[j],
                                   peers_.begin() + ringDir_[j + 1], h);
  return static_cast<std::uint32_t>(it - peers_.begin());
}

std::size_t Network::ringIndexOf(RingId id) const noexcept {
  const std::size_t i = lowerIndexOf(id);
  return i < peers_.size() && peers_[i] == id ? i : peers_.size();
}

std::uint32_t Network::ownerIndexOf(RingId h) const noexcept {
  assert(!peers_.empty());
  // Greatest peer id <= h; wrap to the overall greatest if h precedes all.
  // Every slot before h's bucket holds a smaller id and every slot after
  // it a larger one, so the bucket's upper bound is the ring's.
  const std::size_t j = h.value >> ringDirShift_;
  const auto it = std::upper_bound(peers_.begin() + ringDir_[j],
                                   peers_.begin() + ringDir_[j + 1], h);
  const auto above = static_cast<std::size_t>(it - peers_.begin());
  return static_cast<std::uint32_t>((above == 0 ? peers_.size() : above) - 1);
}

std::size_t Network::physicalOf(RingId vnode) const {
  const std::size_t idx = ringIndexOf(vnode);
  MLIGHT_CHECK(idx < peers_.size(),
               "physicalOf: " + toString(vnode) + " is not a live vnode");
  return physicalOfIdx_[idx];
}

RingId Network::responsible(RingId h) const noexcept {
  return peers_[ownerIndexOf(h)];
}

RingId Network::firstVnodeOf(std::size_t physical) const {
  MLIGHT_CHECK(physical < physicalNames_.size(),
               "firstVnodeOf: unknown peer " + std::to_string(physical));
  // A collision-bumped id would resolve to its neighbour: the check
  // below fails loudly on that as on a departed peer.
  const std::uint32_t idx = ownerIndexOf(vnodeId(physicalNames_[physical], 0));
  MLIGHT_CHECK(physicalOfIdx_[idx] == physical,
               "firstVnodeOf: " + physicalNames_[physical] + " is not live");
  return peers_[idx];
}

namespace {

// Deterministic symmetric draw from [minMs, maxMs] for the link a <-> b.
double drawLinkMs(const LatencyModel& latency, RingId a, RingId b) noexcept {
  const std::uint64_t lo = std::min(a.value, b.value);
  const std::uint64_t hi = std::max(a.value, b.value);
  std::uint64_t h = lo * 0x9E3779B97F4A7C15ull ^ (hi + 0xD1B54A32D192ED03ull);
  h ^= h >> 32;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  const double unit =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return latency.minMs + (latency.maxMs - latency.minMs) * unit;
}

}  // namespace

double Network::linkMs(RingId a, RingId b) const noexcept {
  if (a == b) return 0.0;
  const std::size_t ia = ringIndexOf(a);
  const std::size_t ib = ringIndexOf(b);
  if (ia < peers_.size() && ib < peers_.size() &&
      physicalOfIdx_[ia] == physicalOfIdx_[ib]) {
    return 0.0;  // co-located virtual nodes
  }
  return drawLinkMs(latency_, a, b);
}

double Network::hopMs(std::uint32_t a, std::uint32_t b) const noexcept {
  if (physicalOfIdx_[a] == physicalOfIdx_[b]) return 0.0;  // also a == b
  return drawLinkMs(latency_, peers_[a], peers_[b]);
}

Network::Path Network::routePath(std::uint32_t from,
                                 std::uint32_t target) const noexcept {
  const std::uint32_t n = static_cast<std::uint32_t>(peers_.size());
  const std::uint64_t targetId = peers_[target].value;
  std::size_t hops = 0;
  double ms = 0.0;
  std::uint32_t cur = from;
  while (cur != target) {
    // Greedy Chord step: jump to the finger that gets clockwise-closest
    // to the target without passing it.  Finger k of cur is the first
    // vnode at or clockwise after cur + 2^k.  For clockwise distance d,
    // k = floor(log2 d) is that finger: the target itself lies in
    // [cur + 2^k, cur + d], so finger k does not pass it, every higher
    // finger starts at or beyond cur + 2^(k+1) > cur + d, and no lower
    // finger lies farther on.  So each hop is one successor query.
    const std::uint64_t curId = peers_[cur].value;
    const std::uint64_t want = targetId - curId;  // clockwise, mod 2^64
    const std::uint64_t reach = std::uint64_t{1}
                                << (63 - std::countl_zero(want));
    std::uint32_t next = lowerIndexOf(RingId{curId + reach});
    if (next == n) next = 0;  // wrapped past the largest id
    ms += hopMs(cur, next);
    cur = next;
    ++hops;
  }
  return Path{hops, ms};
}

RouteResult Network::routeKey(RingId initiator, RingId key,
                              RouteSlots& slots) {
  const std::size_t from = ringIndexOf(initiator);
  MLIGHT_CHECK(from < peers_.size(), "lookup: initiator " +
                                         toString(initiator) +
                                         " is not a live vnode");
  slots.from = static_cast<std::uint32_t>(from);
  slots.owner = ownerIndexOf(key);
  const Path path = routePath(slots.from, slots.owner);
  maxHops_ = std::max(maxHops_, path.hops);
  total_.lookups += 1;
  total_.hops += path.hops;
  return RouteResult{peers_[slots.owner], path.hops, path.ms};
}

RouteResult Network::lookup(RingId initiator, RingId key) {
  RouteSlots slots{};
  return routeKey(initiator, key, slots);
}

double Network::reserveDeparture(std::uint32_t from) {
  double& nextFree = sendQueueFree_[from];
  if (nextFree == kIdleQueue) {
    busySenders_.push_back(BusySender{peers_[from], from});
  }
  const double departure = std::max(sched_.now(), nextFree);
  nextFree = departure + latency_.sendOverheadMs;
  return departure;
}

void Network::shipPayload(RingId from, RingId to, std::size_t bytes,
                          std::size_t records) {
  if (from == to) return;
  total_.bytesMoved += bytes;
  total_.recordsMoved += records;
}

std::uint32_t Network::allocDeliverySlot() {
  if (freeDeliverySlots_.empty()) {
    deliverySlots_.emplace_back();
    return static_cast<std::uint32_t>(deliverySlots_.size() - 1);
  }
  const std::uint32_t slot = freeDeliverySlots_.back();
  freeDeliverySlots_.pop_back();
  return slot;
}

void Network::deliverSlot(std::uint32_t slot) {
  DeliverySlot& s = deliverySlots_[slot];
  if (s.guarded && ringIndexOf(s.env.to) == peers_.size()) {
    // Crash-while-in-flight: the addressee's vnode left the ring after
    // departure, so nobody is there to run the handler.  Drop the
    // delivery; the envelope waits in its slot for the attempt's
    // timeout, which retries against the current ring.
    ++ghostDrops_;
    armTimeout(slot);
    return;
  }
  RpcDelivery d;
  d.env = std::move(s.env);
  d.route = s.route;
  d.sentAt = s.departure;
  d.deliveredAt = sched_.now();
  // Free the slot *before* the handler runs: handlers routinely issue
  // follow-up RPCs, which allocate slots (possibly reallocating
  // deliverySlots_) and must be free to reuse this one.
  RpcHandler handler = std::move(s.handler);
  s.onFail = nullptr;
  freeDeliverySlots_.push_back(slot);

  timelineMaxRound_ = std::max(timelineMaxRound_, d.env.round);
  if (rpcTrace_) rpcTrace_(d);
  if (handler) handler(d);
  bufferPool_.release(std::move(d.env.payload));
}

namespace {

// Per-attempt fault randomness, derived as a pure function of the fault
// seed, the envelope's logical content, and the attempt number — NOT
// drawn from a shared sequential stream.  A shared stream is consumed in
// event-execution order, so two same-time events that both transmit
// would swap each other's loss outcomes when the schedule perturbation
// (MLIGHT_SCHED_SHUFFLE_SEED) reorders them.  Keying the draw on content
// attaches the outcome to the message itself: permuting deliveries
// permutes which draw happens first, but every envelope still sees the
// same loss/jitter it would have seen in any other order.  env.id is
// deliberately excluded — rpc ids are handed out in execution order and
// would re-introduce exactly the order-dependence this removes.  Two
// byte-identical concurrent envelopes share one outcome, which is fine:
// swapping indistinguishable messages is a no-op.
mlight::common::Rng attemptRng(const FaultModel& faults,
                               const RpcEnvelope& env, std::size_t attempt) {
  mlight::common::Digest d;
  d.feed(faults.seed);
  d.feed(env.from.value);
  d.feed(env.to.value);
  d.feed(static_cast<std::uint64_t>(env.kind));
  d.feed(env.round);
  d.feed(static_cast<std::uint64_t>(attempt));
  d.feedBytes(env.payload);
  return mlight::common::Rng(d.value());
}

}  // namespace

double Network::rpcTimeoutMs(std::size_t attempt,
                             double routeMs) const noexcept {
  const double floor =
      2.0 * routeMs + faults_.jitterMs + kTimeoutBaseMs;
  return retryBackoffMs(floor, attempt);
}

void Network::transmit(RingId key, const RouteResult& route,
                       std::uint32_t fromIdx, RpcEnvelope env,
                       RpcHandler handler, RpcFailFn onFail,
                       std::size_t attempt) {
  const double departure = reserveDeparture(fromIdx);
  // Only a timeout retransmits, so a retry's envelope was guarded at its
  // first send; it stays guarded even if faults were turned off since.
  const bool guarded = faults_.enabled || attempt > 0;
  double arrival = departure + route.ms;
  bool lost = false;
  if (guarded) {
    // Per-attempt fault draws, in a fixed order (loss first, then jitter
    // only for surviving transmissions) so each attempt's outcome is a
    // pure function of (fault seed, envelope content, attempt number) —
    // see attemptRng above for why this survives schedule perturbation.
    mlight::common::Rng draws = attemptRng(faults_, env, attempt);
    lost = draws.chance(faults_.lossProbability);
    if (!lost && faults_.jitterMs > 0.0) {
      arrival += draws.uniform() * faults_.jitterMs;
    }
  }

  const std::uint32_t slot = allocDeliverySlot();
  DeliverySlot& s = deliverySlots_[slot];
  s.env = std::move(env);
  s.route = route;
  s.departure = departure;
  s.handler = std::move(handler);
  s.onFail = std::move(onFail);
  s.key = key;
  s.attempt = attempt;
  s.guarded = guarded;
  if (lost) {
    armTimeout(slot);
  } else {
    sched_.schedule(arrival, [this, slot] { deliverSlot(slot); });
  }
}

void Network::armTimeout(std::uint32_t slot) {
  const DeliverySlot& s = deliverySlots_[slot];
  sched_.schedule(s.departure + rpcTimeoutMs(s.attempt, s.route.ms),
                  [this, slot] { onTimeout(slot); });
}

void Network::onTimeout(std::uint32_t slot) {
  DeliverySlot& s = deliverySlots_[slot];
  RpcEnvelope env = std::move(s.env);
  const RingId key = s.key;
  const std::size_t attempt = s.attempt;
  RpcHandler handler = std::move(s.handler);
  RpcFailFn onFail = std::move(s.onFail);
  freeDeliverySlots_.push_back(slot);

  // A sender that left the ring takes its timers with it: there is
  // nobody left to retransmit (or to route from), so the envelope
  // dead-letters now.
  const bool senderLive = ringIndexOf(env.from) < peers_.size();
  if (!senderLive || attempt + 1 >= faults_.maxAttempts) {
    deadLetterRing_.record(DeadLetter{env.id, env.kind, env.from, env.to,
                                      attempt + 1, sched_.now()});
    if (onFail) onFail(env, attempt + 1);
    bufferPool_.release(std::move(env.payload));
    return;
  }
  // Retransmit: re-route on the *current* ring (the owner may have
  // changed if the timeout was caused by a crash) — a fresh metered
  // lookup plus one retry tick.
  total_.retries += 1;
  RouteSlots slots{};
  const RouteResult retryRoute = routeKey(env.from, key, slots);
  env.to = retryRoute.owner;
  peerLoads_.note(physicalOfIdx_[slots.owner]);
  transmit(key, retryRoute, slots.from, std::move(env), std::move(handler),
           std::move(onFail), attempt + 1);
}

RouteResult Network::sendRpc(RingId key, RpcEnvelope env, RpcHandler handler,
                             RpcFailFn onFail) {
  // Route + meter at issue time: the multiset of (initiator, key)
  // resolutions an operation performs is determined by index structure,
  // not delivery timing, so counts stay bit-identical to the old
  // synchronous call sequence.
  RouteSlots slots{};
  const RouteResult route = routeKey(env.from, key, slots);
  env.to = route.owner;
  env.id = nextRpcId_++;
  total_.messages += 1;
  peerLoads_.note(physicalOfIdx_[slots.owner]);
  transmit(key, route, slots.from, std::move(env), std::move(handler),
           std::move(onFail), 0);
  return route;
}

double Network::beginTimeline() {
  // Anything still in flight belongs to a previous operation (e.g. a
  // fire-and-forget replica push); deliver it first so any follow-up
  // RPCs its handlers issue are not charged to this operation, then
  // start from a quiet network with idle send queues.
  sched_.run();
  for (const BusySender& s : busySenders_) {
    sendQueueFree_[s.slot] = kIdleQueue;
  }
  busySenders_.clear();
  timelineMaxRound_ = 0;
  return sched_.now();
}

RingId Network::randomPeer() {
  assert(!peers_.empty());
  return peers_[rng_.below(peers_.size())];
}

RingId Network::addPeer(std::string_view name) {
  const auto physical = static_cast<std::uint32_t>(physicalNames_.size());
  physicalNames_.emplace_back(name);
  RingId first{};
  for (std::size_t v = 0; v < vnodesPerPeer_; ++v) {
    RingId id = vnodeId(name, v);
    // Resolve the (astronomically unlikely) collision deterministically.
    while (std::binary_search(peers_.begin(), peers_.end(), id)) {
      id.value += 1;
    }
    const auto pos = std::upper_bound(peers_.begin(), peers_.end(), id);
    physicalOfIdx_.insert(physicalOfIdx_.begin() + (pos - peers_.begin()),
                          physical);
    peers_.insert(pos, id);
    if (v == 0) first = id;
  }
  reindexRing();
  const MembershipChange change{MembershipChange::Kind::kJoin, {}};
  for (const auto& [handle, fn] : stores_) fn(change);
  return first;
}

bool Network::dropPhysicalPeer(RingId id, MembershipChange::Kind kind) {
  const std::size_t idx = ringIndexOf(id);
  if (idx == peers_.size()) return false;
  const std::uint32_t physical = physicalOfIdx_[idx];
  const bool othersLive =
      std::any_of(physicalOfIdx_.begin(), physicalOfIdx_.end(),
                  [physical](std::uint32_t p) { return p != physical; });
  if (!othersLive) return false;  // last physical peer
  MembershipChange change;
  change.kind = kind;
  // Compact both ring-aligned arrays in one pass; removed vnodes come
  // out in ring order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (physicalOfIdx_[i] == physical) {
      change.removedVnodes.push_back(peers_[i]);
    } else {
      peers_[kept] = peers_[i];
      physicalOfIdx_[kept] = physicalOfIdx_[i];
      ++kept;
    }
  }
  peers_.resize(kept);
  physicalOfIdx_.resize(kept);
  reindexRing();
  for (const auto& [handle, fn] : stores_) fn(change);
  return true;
}

bool Network::removePeer(RingId id) {
  return dropPhysicalPeer(id, MembershipChange::Kind::kGracefulLeave);
}

bool Network::crashPeer(RingId id) {
  return dropPhysicalPeer(id, MembershipChange::Kind::kCrash);
}

void Network::reindexRing() {
  const bool audit =
      mlight::common::auditEnabled(mlight::common::AuditLevel::kBoundaries);
  std::vector<std::uint64_t> positions;
  if (audit) {
    // The directory, routing and the predecessor mapping all assume the
    // ring is sorted and duplicate-free; audit it at every membership
    // change (the only times the ring moves).
    positions.reserve(peers_.size());
    for (const RingId p : peers_) positions.push_back(p.value);
    mlight::common::auditRingOrder(positions);
  }
  MLIGHT_CHECK(peers_.size() < UINT32_MAX &&
                   physicalNames_.size() < UINT32_MAX,
               "ring and physical-peer indices are 32-bit");
  rebuildRingDirectory();
  if (audit) {
    mlight::common::auditRingDirectory(positions, ringDir_, ringDirShift_);
  }
  reindexSendQueues();
}

void Network::rebuildRingDirectory() {
  const std::size_t n = peers_.size();
  const int bits = static_cast<int>(std::bit_width(n)) + 1;
  ringDirShift_ = static_cast<unsigned>(64 - bits);
  const std::size_t buckets = std::size_t{1} << bits;
  ringDir_.resize(buckets + 1);
  std::size_t slot = 0;
  for (std::size_t j = 0; j < buckets; ++j) {
    const std::uint64_t floor = std::uint64_t{j} << ringDirShift_;
    while (slot < n && peers_[slot].value < floor) ++slot;
    ringDir_[j] = static_cast<std::uint32_t>(slot);
  }
  ringDir_[buckets] = static_cast<std::uint32_t>(n);
}

void Network::reindexSendQueues() {
  // A membership change inside a timeline shifts ring slots: carry each
  // busy sender's queue to its new slot by ring id.  A sender that left
  // drops its queue (routeKey rejects it as an initiator from now on).
  std::vector<double> pending;
  pending.reserve(busySenders_.size());
  for (const BusySender& s : busySenders_) {
    pending.push_back(sendQueueFree_[s.slot]);
  }
  sendQueueFree_.assign(peers_.size(), kIdleQueue);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < busySenders_.size(); ++i) {
    const std::size_t slot = ringIndexOf(busySenders_[i].id);
    if (slot == peers_.size()) continue;
    sendQueueFree_[slot] = pending[i];
    busySenders_[kept++] = BusySender{busySenders_[i].id,
                                      static_cast<std::uint32_t>(slot)};
  }
  busySenders_.resize(kept);
}

}  // namespace mlight::dht
