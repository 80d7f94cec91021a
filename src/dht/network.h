// Simulated Chord/Bamboo-style DHT overlay.
//
// The paper runs m-LIGHT over the Bamboo DHT ("a ring-like DHT") with more
// than one hundred logical peers on a LAN.  All reported metrics are
// counts of DHT operations, so a deterministic simulated overlay
// reproduces them exactly:
//
//  * peers sit on a 64-bit identifier ring (SHA-1 of their names);
//  * a key κ is owned by the peer whose identifier is *less than but
//    closest to* hash(κ) (predecessor mapping, paper §3.1);
//  * lookups route greedily along Chord fingers (finger[k] = first peer
//    at or after self + 2^k), giving the O(log n) hop counts a real
//    Chord/Bamboo deployment exhibits.  No table is stored: the one
//    useful finger of each hop is found by a successor query on the
//    sorted ring;
//  * membership can change (churn); registered stores are told to migrate
//    keys whose ownership moved.
//
// The Network keeps the one running CostMeter (totalCost()): each
// routed resolution counts one DHT-lookup plus its hops, and payload
// shipped between distinct peers counts bytes/records moved.  Every
// other meter is a window on that total (MeterScope, index::OpStats).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/digest.h"
#include "common/rng.h"
#include "dht/cost.h"
#include "dht/id.h"
#include "dht/rpc.h"
#include "dht/sim.h"

namespace mlight::dht {

/// Result of a routed lookup.
struct RouteResult {
  RingId owner;        ///< Peer responsible for the key.
  std::size_t hops;    ///< Overlay hops from the initiator.
  double ms;           ///< Simulated network time along the hop path.
};

/// What an RPC handler receives when its envelope arrives at the owner.
/// `env` is the envelope the sender handed to sendRpc, moved along with
/// every attempt (a retry only re-addresses `to`); the sender gave it
/// up, so handlers cannot share initiator state.  Its bytes meter as
/// RpcEnvelope::wireSize.
struct RpcDelivery {
  RpcEnvelope env;
  RouteResult route;      ///< How the envelope was routed.
  double sentAt = 0.0;    ///< Departure time (after send-queue delay).
  double deliveredAt = 0.0;
};

/// Pairwise link latencies: deterministic per ordered peer pair, drawn
/// uniformly from [minMs, maxMs] by hashing the pair (symmetric).  The
/// default range loosely models a wide-area overlay; a LAN would be
/// {0.1, 1.0}.
struct LatencyModel {
  double minMs = 10.0;
  double maxMs = 100.0;
  /// Per-message send/serialization overhead at the issuing peer: the
  /// i-th message a peer sends in one burst departs i*sendOverheadMs
  /// late.  This is what makes a 10^5-message fan-out latency-bound at
  /// the sender even with parallel links (cf. DST's large-range
  /// queries, EXPERIMENTS.md).
  double sendOverheadMs = 1.0;
};

/// Seeded fault injection for the RPC layer.  Disabled by default; with
/// `enabled == false` a send makes no RNG draws and schedules exactly one
/// event, its delivery, so count metrics *and* the event timeline are
/// identical to a network without the fault layer — the replay and
/// bit-identical-metrics contracts depend on this.
///
/// With `enabled == true` every transmission attempt may be lost (per
/// attempt, i.i.d. with probability `lossProbability`), every delivery
/// gains uniform jitter in [0, jitterMs), and a crash while an envelope
/// is in flight suppresses the delivery (no ghost handlers).  The
/// reliable layer on top times out an attempt that was lost or
/// ghost-dropped and retransmits with capped exponential backoff,
/// re-routing on the current ring; envelopes that exhaust `maxAttempts`
/// become dead letters.  A delivered attempt schedules no timeout.
struct FaultModel {
  bool enabled = false;
  /// Probability a single transmission attempt is lost in flight.
  double lossProbability = 0.0;
  /// Max additive delivery jitter (uniform in [0, jitterMs); 0 = none).
  double jitterMs = 0.0;
  /// Total transmissions per envelope, including the first.
  std::size_t maxAttempts = 6;
  /// Seed of the fault randomness.  Loss and jitter are not drawn from a
  /// shared stream: each attempt's outcome is a pure function of this
  /// seed, the envelope's content, and the attempt number (see
  /// attemptRng in network.cpp), so enabling faults never perturbs the
  /// network's auxiliary RNG and the fault timeline is invariant under
  /// schedule-tie perturbation.
  std::uint64_t seed = 1;
};

/// Reads `MLIGHT_FAULT_SEED` from the environment (decimal), falling
/// back to `fallback` when unset/empty — how CI points the whole fault
/// matrix at one seed without touching code.  A *malformed* value
/// (non-digit characters, trailing garbage, or a number that overflows
/// 64 bits) fails loudly via MLIGHT_CHECK instead of silently running
/// the fallback seed: a seed-matrix job that typos its seed must go
/// red, not green-under-the-wrong-seed.
std::uint64_t faultSeedFromEnv(std::uint64_t fallback = 1);

/// One ring position of a bulk-built overlay.
struct BulkVnode {
  RingId id;
  std::size_t physical;  ///< peer index; the peer is bulkPeerName(physical)
  std::size_t vnode;     ///< position among the peer's vnodes
};

/// Name of physical peer `i` of a bulk-built overlay: "node:<i>".
std::string bulkPeerName(std::size_t i);

/// Ring id of vnode `v` of the peer named `peerName`, before collision
/// resolution: keyId("peer-id:" + peerName + "#" + v).
RingId vnodeId(std::string_view peerName, std::size_t v);

/// The ring of `peerCount` bulk-built peers with `vnodesPerPeer` vnodes
/// each, in ring order: vnode v of peer i at
/// vnodeId(bulkPeerName(i), v), sorted ascending with the peer index
/// breaking ties, each colliding id bumped one past its predecessor.
/// Network's bulk constructor builds from it; the TCP transport resolves
/// owners on such a Network, so the simulated and the wire world agree
/// on every key's owner.
std::vector<BulkVnode> bulkRing(std::size_t peerCount,
                                std::size_t vnodesPerPeer);

class Network {
 public:
  /// Builds an overlay with `peerCount` physical peers named "node:<i>",
  /// each owning `vnodesPerPeer` ring positions (virtual nodes — the
  /// classic Chord remedy for consistent-hashing arc imbalance; Bamboo
  /// and OpenDHT deployments do the same).  `seed` feeds only auxiliary
  /// choices (e.g. initiator picking).
  explicit Network(std::size_t peerCount, std::uint64_t seed = 1,
                   std::size_t vnodesPerPeer = 1,
                   LatencyModel latency = LatencyModel{});

  /// Number of ring positions (virtual nodes).
  std::size_t peerCount() const noexcept { return peers_.size(); }

  /// Size of the physical-peer index space (peers ever added; indices
  /// from physicalOf() are stable across churn, so departed peers keep
  /// their slot).
  std::size_t physicalCount() const noexcept { return physicalNames_.size(); }

  /// Number of physical peers currently in the overlay.
  std::size_t livePhysicalCount() const;

  /// All ring positions in ring order.
  const std::vector<RingId>& peers() const noexcept { return peers_; }

  /// Index of the physical peer owning ring position `vnode` (which must
  /// be a live position — checked).  Stable across churn of *other* peers.
  std::size_t physicalOf(RingId vnode) const;

  /// physicalOf() through a caller-held ring-slot cache (any initial
  /// value is safe).  While `slotHint` still names `vnode`'s slot this is
  /// one array read — ring positions are unique, so the slot test is
  /// itself an exact liveness check.  Once churn has shifted the slot it
  /// falls back to the checked physicalOf() (a departed vnode still
  /// fails) and repairs the hint.
  std::size_t physicalOf(RingId vnode, std::uint32_t& slotHint) const {
    if (slotHint < peers_.size() && peers_[slotHint] == vnode) {
      return physicalOfIdx_[slotHint];
    }
    const std::size_t physical = physicalOf(vnode);
    slotHint = static_cast<std::uint32_t>(ringIndexOf(vnode));
    return physical;
  }

  /// Ring position of vnode 0 of physical peer `physical` (which must be
  /// live — checked): the one anchor a broadcast addresses to reach each
  /// peer once, on the simulated and on the wire ring alike.
  RingId firstVnodeOf(std::size_t physical) const;

  /// Name of the physical peer owning ring position `vnode` (which must
  /// be a live position).  Names are stable across crash/rejoin — a peer
  /// re-added under the same name reclaims the same ring positions — so
  /// they key state that must survive a crash (the per-peer WAL).
  const std::string& physicalNameOf(RingId vnode) const {
    return physicalNames_[physicalOf(vnode)];
  }

  /// Peer owning ring position `h`: greatest id <= h, wrapping.
  RingId responsible(RingId h) const noexcept;

  /// Peer owning application key `key`.
  RingId responsibleForKey(std::string_view key) const noexcept {
    return responsible(keyId(key));
  }

  /// Routes a lookup for `key` from `initiator` (which must be a live
  /// ring position — checked); meters one DHT-lookup and the hops taken.
  RouteResult lookup(RingId initiator, RingId key);
  RouteResult lookupKey(RingId initiator, std::string_view key) {
    return lookup(initiator, keyId(key));
  }

  /// Accounts payload moving from `from` to `to` (no cost if same peer).
  void shipPayload(RingId from, RingId to, std::size_t bytes,
                   std::size_t records);

  // --- Event-driven RPC core -------------------------------------------
  //
  // sendRpc() is the async counterpart of lookup(): it routes the
  // envelope to the owner of `key` (metering one DHT-lookup, its hops,
  // and one message — all at issue time, so meter scopes see costs in
  // program order), pushes the envelope through the sender's send
  // queue, and schedules `handler` to run "at" the owner when the
  // message arrives.  Count metrics are therefore identical to an
  // equivalent sequence of lookup() calls; only the *timeline* differs.

  using RpcHandler = std::function<void(const RpcDelivery&)>;

  /// Invoked when an envelope exhausts its transmission attempts under
  /// fault injection (never with faults disabled).  Receives the final
  /// envelope (with its last routed `to`) and the attempt count.
  using RpcFailFn = std::function<void(const RpcEnvelope&, std::size_t)>;

  /// Issues `env` from env.from toward the owner of `key`.  Returns the
  /// route immediately (counts are synchronous); the handler runs when
  /// the scheduler reaches the arrival time.  Departure is serialized
  /// per sender: the i-th envelope a peer issues in a burst departs
  /// i * sendOverheadMs late, so wide fan-outs are latency-bound at the
  /// sender even though links are parallel.
  ///
  /// Under fault injection the send becomes reliable-with-retries:
  /// every attempt draws a loss/jitter outcome, and an attempt that is
  /// lost, or ghost-dropped because its addressee left the ring while it
  /// was in flight, times out at departure + rpcTimeoutMs(attempt,
  /// route.ms).  A timed-out envelope is re-routed on the *current* ring
  /// (fresh metered lookup + one CostMeter::retries) and retransmitted
  /// with exponential backoff.  After FaultModel::maxAttempts the
  /// envelope is recorded as a dead letter and `onFail` (if any) runs
  /// instead of `handler`.  A sender that left the ring takes its
  /// timers with it: a timeout that fires after env.from's vnode is gone
  /// dead-letters the envelope at once instead of retransmitting.
  RouteResult sendRpc(RingId key, RpcEnvelope env, RpcHandler handler,
                      RpcFailFn onFail = nullptr);

  /// Current simulated time (ms since the network was built).
  double now() const noexcept { return sched_.now(); }

  /// Delivers every pending message (the synchronous facade's pump).
  void run() { sched_.run(); }

  std::size_t pendingEvents() const noexcept { return sched_.pending(); }

  // --- Determinism certification ---------------------------------------
  //
  // Same-time event ties must be order-free: the schedule-perturbation
  // suite re-runs workloads with a shuffled tie-break
  // (MLIGHT_SCHED_SHUFFLE_SEED / setScheduleShuffleSeed) and asserts
  // state digests match the unshuffled run bit-for-bit.  See the
  // "Determinism contract" section of docs/THEORY.md.

  /// Installs a same-time tie-break shuffle on the scheduler (0 = off).
  /// Call on a quiet network, before issuing traffic.
  void setScheduleShuffleSeed(std::uint64_t seed) noexcept {
    sched_.setTieShuffleSeed(seed);
  }
  std::uint64_t scheduleShuffleSeed() const noexcept {
    return sched_.tieShuffleSeed();
  }
  /// Same-time delivery pairs observed so far (perturbation witness).
  std::uint64_t schedulerTieDeliveries() const noexcept {
    return sched_.tieDeliveries();
  }

  /// Feeds every simulation-visible network-level fact into `d`: the
  /// ring membership, total cost meter, fault-layer outcomes, and the
  /// simulated clock.  Pointer values, host memory, and pooled-buffer
  /// bookkeeping are deliberately excluded.
  void digestState(mlight::common::Digest& d) const {
    d.feed(peers_.size());
    for (const RingId p : peers_) d.feed(p.value);  // ring order: sorted
    d.feed(physicalNames_.size());
    for (const std::string& n : physicalNames_) d.feed(std::string_view(n));
    total_.digestTo(d);
    peerLoads_.digestTo(d);
    d.feed(maxHops_);
    d.feed(deadLetterRing_.total());
    d.feed(ghostDrops_);
    d.feed(sched_.now());
  }

  /// Marks the start of a measured operation: drains messages still in
  /// flight from prior operations, clears per-sender send backlogs, and
  /// resets the round high-water mark.  Returns now() — the operation's
  /// t0 for emergent latencyMs.
  double beginTimeline();

  /// Deepest RPC round delivered since beginTimeline() — the paper's
  /// "rounds of DHT-lookups" for the operation.
  std::uint32_t timelineMaxRound() const noexcept { return timelineMaxRound_; }

  /// Observes every delivery (replay/trace tests).  Null disables.
  using RpcTraceFn = std::function<void(const RpcDelivery&)>;
  void setRpcTrace(RpcTraceFn fn) { rpcTrace_ = std::move(fn); }

  // --- Pooled message buffers ------------------------------------------
  //
  // Per-message transient vectors (envelope payloads, store bucket
  // bodies) cycle through one BufferPool per Network: a delivered
  // payload returns to it once its handler is done.
  // Host-side only: buffers are cleared on acquire, so pooling is
  // invisible to the simulation (see the pooling on/off replay test).

  /// A cleared scratch buffer, recycled when available.  Callers that
  /// serialize transient bodies (e.g. the store) should round-trip
  /// their buffers through here instead of allocating per message.
  std::vector<std::uint8_t> acquireBuffer() { return bufferPool_.acquire(); }
  void releaseBuffer(std::vector<std::uint8_t>&& b) noexcept {
    bufferPool_.release(std::move(b));
  }

  /// A/B switch for the pooling-transparency tests; on by default.
  void setBufferPooling(bool on) { bufferPool_.setEnabled(on); }
  bool bufferPooling() const noexcept { return bufferPool_.enabled(); }
  /// Buffers currently parked in the free list (introspection).
  std::size_t pooledBufferCount() const noexcept {
    return bufferPool_.pooledCount();
  }

  // --- Fault injection -------------------------------------------------

  /// Installs (or replaces) the fault model and reseeds the fault RNG.
  /// Call before issuing traffic.  Swapping models mid-flight is legal:
  /// attempts already sent keep their loss and jitter outcomes, and an
  /// envelope first sent with faults on stays guarded (ghost check,
  /// timeout, retries) until it is delivered or dead-lettered, even if
  /// the new model is disabled.  Its later attempts draw from the new
  /// model, and a timeout reads the model installed when it is armed.
  void setFaultModel(const FaultModel& faults) { faults_ = faults; }

  /// Envelopes that exhausted FaultModel::maxAttempts transmissions:
  /// total() is the all-time count the digests and goldens pin, the
  /// bounded log keeps the most recent in full (see dht::DeadLetterRing).
  const DeadLetterRing& deadLetters() const noexcept {
    return deadLetterRing_;
  }
  /// Deliveries suppressed because the addressee crashed while the
  /// envelope was in flight (fault injection only; each such attempt is
  /// recovered by its timeout).
  std::uint64_t ghostDrops() const noexcept { return ghostDrops_; }

  /// A uniformly random live peer (deterministic via the network's RNG).
  RingId randomPeer();

  /// How a membership change happened: graceful departures hand their
  /// data to the new owners first; crashes take their copies with them.
  struct MembershipChange {
    enum class Kind { kJoin, kGracefulLeave, kCrash };
    Kind kind = Kind::kJoin;
    /// Ring positions that vanished (empty for joins).  For crashes,
    /// any data held only by these positions is gone.
    std::vector<RingId> removedVnodes;
  };

  /// Adds a physical peer named `name` (with this network's vnode count);
  /// migrates ownership via registered stores.  Returns its first vnode.
  RingId addPeer(std::string_view name);

  /// Removes the *physical* peer owning ring position `id` (all of its
  /// virtual nodes leave).  Keys are migrated to the new owners.
  /// Returns false if `id` is unknown or this is the last peer.
  bool removePeer(RingId id);

  /// Crash-fails the physical peer owning ring position `id`: its vnodes
  /// vanish *without* handing data off — registered stores decide what
  /// survives (replicas) and what is lost.
  bool crashPeer(RingId id);

  /// Stores register a migration callback invoked on membership changes.
  /// The callback must re-home (or mourn) every key whose responsible
  /// peer changed.  Returns a handle for unregisterStore (call it before
  /// the store dies).
  using RebalanceFn = std::function<void(const MembershipChange&)>;
  std::uint64_t registerStore(RebalanceFn fn) {
    stores_.emplace_back(nextStoreHandle_, std::move(fn));
    return nextStoreHandle_++;
  }
  void unregisterStore(std::uint64_t handle) {
    std::erase_if(stores_,
                  [handle](const auto& e) { return e.first == handle; });
  }

  /// The running total of every cost charged since the network was
  /// built — the one ledger; MeterScope and per-operation stats read
  /// differences of it.
  const CostMeter& totalCost() const noexcept { return total_; }

  /// Meters a hint probe that resolved the lookup in one shot.  The
  /// probe's lookup/hops/message were already counted by sendRpc; these
  /// note only the cache outcome, so cacheHits/staleHints never double
  /// into `lookups`.
  void noteCacheHit() noexcept { ++total_.cacheHits; }
  /// Meters a hint probe that found its leaf gone (repair follows).
  void noteStaleHint() noexcept { ++total_.staleHints; }
  /// Meters a hint-cache LRU eviction (a learn() that dropped the
  /// coldest hint to make room).
  void noteHintEviction() noexcept { ++total_.hintEvictions; }

  /// Per-physical-peer query load: requests (RPC envelopes, including
  /// retransmissions) addressed to each peer since the network was
  /// built.  Always on — reading it is free and the counters are
  /// commutative sums, so they perturb nothing.  Index with
  /// physicalOf()/physicalCount(); scope deltas by snapshotting
  /// counts() around the phase of interest.
  const PeerLoadMeter& peerLoads() const noexcept { return peerLoads_; }

  /// Maximum hops observed over all lookups so far (sanity: O(log n)).
  std::size_t maxHopsSeen() const noexcept { return maxHops_; }

  /// Simulated one-way latency of the overlay link a -> b (0 for a == b;
  /// links between two vnodes of one physical peer are local too).
  double linkMs(RingId a, RingId b) const noexcept;

  /// Per-message send overhead of the latency model.
  double sendOverheadMs() const noexcept { return latency_.sendOverheadMs; }

 private:
  /// The membership-change hook: audits the ring order, rebuilds the
  /// ring-slot directory, and moves busy send queues to their senders'
  /// new slots.
  void reindexRing();
  void rebuildRingDirectory();
  void reindexSendQueues();
  bool dropPhysicalPeer(RingId id, MembershipChange::Kind kind);
  /// Ring index of the first vnode with id >= h, or peers_.size() if
  /// every id is smaller (one directory bucket searched).
  std::uint32_t lowerIndexOf(RingId h) const noexcept;
  /// Ring index of live vnode `id`, or peers_.size() if it is not live.
  std::size_t ringIndexOf(RingId id) const noexcept;
  /// Ring index of the peer owning position `h` (see responsible()).
  std::uint32_t ownerIndexOf(RingId h) const noexcept;
  /// Ring slots of a routed lookup's initiator and owner.
  struct RouteSlots {
    std::uint32_t from;
    std::uint32_t owner;
  };
  /// lookup() that also hands back the initiator's and owner's slots.
  RouteResult routeKey(RingId initiator, RingId key, RouteSlots& slots);
  /// Departure time of the next message from ring slot `from`: the i-th
  /// message a sender issues in one timeline departs i * sendOverheadMs
  /// after the first.
  double reserveDeparture(std::uint32_t from);
  struct Path {
    std::size_t hops;
    double ms;
  };
  Path routePath(std::uint32_t from, std::uint32_t target) const noexcept;
  /// linkMs() between two live ring slots.
  double hopMs(std::uint32_t a, std::uint32_t b) const noexcept;

  /// One transmission attempt (attempt 0 = the original send), parked in
  /// a pooled slot from send until it is handled, dead-lettered or
  /// retransmitted, so every scheduled closure is {this, slot} — small
  /// enough for std::function's inline buffer, which keeps the
  /// scheduler's event nodes allocation-free (see SimScheduler::
  /// schedule).  The slot holds the envelope itself: delivery moves it
  /// to the handler, and a lost or ghost-dropped attempt keeps it until
  /// its timeout moves it out to dead-letter or retransmit.  An attempt
  /// is `guarded` (ghost check, timeout) when faults were on at its
  /// envelope's first send; `onFail`, `key` and `attempt` serve its
  /// timeout.
  struct DeliverySlot {
    RpcEnvelope env;
    RouteResult route{};
    double departure = 0.0;
    RpcHandler handler;
    RpcFailFn onFail;
    RingId key{};
    std::size_t attempt = 0;
    bool guarded = false;
  };
  std::uint32_t allocDeliverySlot();
  /// Sends one attempt of `env` (already routed to `route`, from ring
  /// slot `fromIdx`) by moving it into a slot.  An unguarded attempt
  /// makes no draws and schedules its delivery.  A guarded one first
  /// draws loss and jitter from the envelope's content, then schedules
  /// its delivery, or, if lost, its timeout.
  void transmit(RingId key, const RouteResult& route, std::uint32_t fromIdx,
                RpcEnvelope env, RpcHandler handler, RpcFailFn onFail,
                std::size_t attempt);
  /// Schedules the slot's timeout at departure + rpcTimeoutMs.
  void armTimeout(std::uint32_t slot);
  /// Runs the slot's handler at the owner; a guarded attempt whose
  /// addressee left the ring is ghost-dropped and arms its timeout.
  void deliverSlot(std::uint32_t slot);
  /// A lost or ghost-dropped attempt's timeout, "at" the sender:
  /// dead-letters the envelope or re-routes and retransmits it.
  void onTimeout(std::uint32_t slot);
  /// Timeout for the given attempt: twice the routed path latency plus
  /// worst-case jitter plus kTimeoutBaseMs grace, doubled per attempt
  /// (capped exponential backoff).
  double rpcTimeoutMs(std::size_t attempt, double routeMs) const noexcept;

  std::vector<RingId> peers_;                       // vnodes, ring order
  /// Ring-slot directory over the top b = bit_width(n) + 1 id bits:
  /// ringDir_[j] is the first slot whose id is >= j << ringDirShift_, and
  /// the last of its 2^b + 1 entries is n.  Ids in bucket j = id >>
  /// ringDirShift_ therefore sit in peers_[ringDir_[j], ringDir_[j + 1]),
  /// with two to four buckets per vnode.  Rebuilt on membership change.
  /// Serves owner lookups, liveness checks and every routing hop.
  std::vector<std::uint32_t> ringDir_;
  unsigned ringDirShift_ = 63;
  /// Physical peer of each ring slot, aligned with peers_ — the only
  /// vnode -> peer mapping; kept in lockstep by every membership change.
  std::vector<std::uint32_t> physicalOfIdx_;
  std::vector<std::string> physicalNames_;          // by peer index
  std::size_t vnodesPerPeer_ = 1;
  LatencyModel latency_;
  std::vector<std::pair<std::uint64_t, RebalanceFn>> stores_;
  std::uint64_t nextStoreHandle_ = 0;
  mlight::common::Rng rng_;
  CostMeter total_;
  PeerLoadMeter peerLoads_;
  std::size_t maxHops_ = 0;

  SimScheduler sched_;
  /// Next free departure time of each sender, by ring slot (aligned with
  /// peers_ like physicalOfIdx_); -infinity while idle.
  std::vector<double> sendQueueFree_;
  /// Senders whose queue left idle since the last beginTimeline(), which
  /// resets only these.  The ring id re-indexes them on membership change.
  struct BusySender {
    RingId id;
    std::uint32_t slot;
  };
  std::vector<BusySender> busySenders_;
  BufferPool bufferPool_;
  std::vector<DeliverySlot> deliverySlots_;
  std::vector<std::uint32_t> freeDeliverySlots_;
  std::uint64_t nextRpcId_ = 0;
  std::uint32_t timelineMaxRound_ = 0;
  RpcTraceFn rpcTrace_;

  FaultModel faults_;
  std::uint64_t ghostDrops_ = 0;
  DeadLetterRing deadLetterRing_;
};

/// RAII window on the network's running total: on destruction adds the
/// cost charged while in scope to `into`.  Scopes nest by construction;
/// `into` is complete once the scope closes (read totalCost()
/// differences to watch an open window).
class MeterScope {
 public:
  MeterScope(const Network& net, CostMeter& into) noexcept
      : net_(net), into_(into), start_(net.totalCost()) {}
  ~MeterScope() { into_ += net_.totalCost() - start_; }

  MeterScope(const MeterScope&) = delete;
  MeterScope& operator=(const MeterScope&) = delete;

 private:
  const Network& net_;
  CostMeter& into_;
  CostMeter start_;
};

}  // namespace mlight::dht
