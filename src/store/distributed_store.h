// Typed key→bucket storage co-located with DHT ownership.
//
// Over-DHT indexes store application buckets (label store + record store in
// m-LIGHT, trie nodes in PHT, tree nodes in DST) under DHT keys.  The
// DistributedStore keeps each bucket together with the peer currently
// responsible for its key, meters every routed access through the Network,
// ships serialized payload when buckets move between peers, and re-homes
// buckets when membership changes (churn).
//
// Replication (OpenDHT-style key salting): with replication factor R > 1,
// every bucket also lives at the owners of R-1 salted keys.  Graceful
// churn re-homes all copies; a *crash* loses exactly the copies the dead
// peer held — a bucket survives iff some copy-holder survives, in which
// case missing copies are re-created from a survivor (repair traffic,
// eager by default or deferred to the first read — see RepairPolicy).
// With R = 1 a crash loses the bucket outright; lostBuckets() reports it
// so upper layers can detect the damage, and reads of a mourned label
// fail (failedReads()) instead of answering NULL.
//
// Reads fail over: when the primary never answers (RPC dead letter under
// fault injection) or reports no copy after a crash, the request walks
// the copy-target list to the next holder; a successful failover
// read-repairs the bucket back to R copies on the current ring.
//
// Bucket requirements (checked by concept): byteSize() — serialized size
// used for data-movement accounting; recordCount() — number of records,
// used for load statistics and record-movement accounting.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/digest.h"
#include "common/invariants.h"
#include "common/label_table.h"
#include "common/replica_copy.h"
#include "common/serde.h"
#include "dht/network.h"
#include "wal/wal.h"

namespace mlight::store {

template <typename B>
concept StorableBucket =
    requires(const B& b, mlight::common::Writer& w,
             mlight::common::Reader& r) {
      { b.byteSize() } -> std::convertible_to<std::size_t>;
      { b.recordCount() } -> std::convertible_to<std::size_t>;
      { b.serialize(w) };
      { B::deserialize(r) } -> std::same_as<B>;
    };

/// When crash repair happens.  kEager (default, the classic behavior)
/// re-replicates every degraded bucket synchronously inside the
/// membership-change callback, so repair traffic is metered at crash
/// time.  kOnRead defers crash repair: the membership callback only
/// prunes the dead copies, and the first read that fails over to a
/// surviving holder triggers read-repair for that bucket (restoring R
/// copies on the current ring).  Joins and graceful departures always
/// re-home eagerly — their data handoff is part of the protocol.
enum class RepairPolicy { kEager, kOnRead };

/// Query-load balancing: hot-leaf read replication (docs/COST_MODEL.md
/// "Query-load balancing").  The owner of every bucket counts the reads
/// it serves per label in a rolling window of simulated time; a label
/// whose in-window count reaches `promoteReads` is *promoted* — granted
/// `boostCopies` extra replicas through the regular copyTargets()
/// placement walk, shipped like any repair — and read traffic then
/// spreads over the enlarged copy set (least-loaded routing, ties broken
/// by lowest replica index).  A boosted label whose full window closes
/// below `kDemoteReads` is demoted back to the base replication factor.
/// Promotion/demotion side effects are deferred to quiescent points
/// (drainLoadBalance(), called from the index-operation tails) and
/// applied in sorted label order, so handler execution order never
/// shapes placement — the determinism contract of docs/THEORY.md.
/// Off by default: the disabled path must stay byte-identical to a
/// build without the subsystem.
struct LoadBalancePolicy {
  bool enabled = false;
  /// In-window reads at which a leaf is promoted (read-hot).
  std::uint32_t promoteReads = 16;
  /// Full-window reads below which a boosted leaf is demoted.
  static constexpr std::uint32_t kDemoteReads = 2;
  /// Heat window length, simulated milliseconds.
  double windowMs = 5000.0;
  /// Extra copies granted to a hot leaf (total = replication + boost).
  std::size_t boostCopies = 7;
  /// Cap on simultaneously boosted leaves (bounds replica storage).
  std::size_t maxHotLeaves = 64;
};

template <StorableBucket Bucket>
class DistributedStore {
 public:
  using Label = mlight::common::BitString;
  using RingId = mlight::dht::RingId;

  /// One replica placement: the peer holding the copy and the key salt
  /// it was placed under.  Tracking the salt matters because salts that
  /// collide on an already-chosen peer are *skipped*, so holder index
  /// and salt index need not coincide — replica envelopes must target
  /// the salt, not the index, to actually reach the holder.
  struct CopyTarget {
    RingId holder;
    std::size_t salt = 0;
    /// Host-side cache of `holder`'s ring slot for the hinted
    /// Network::physicalOf (see refreshReadRouting).  Never digested or
    /// compared; a stale value only costs one ring search.
    mutable std::uint32_t slotHint = 0;
  };

  /// `ns` namespaces this index's keys inside the shared DHT key space
  /// (multiple indexes can share one overlay without colliding).
  /// `replication` >= 1 is the total number of copies per bucket.
  DistributedStore(mlight::dht::Network& net, std::string ns,
                   std::size_t replication = 1,
                   RepairPolicy repair = RepairPolicy::kEager)
      : net_(&net), ns_(std::move(ns)), replication_(replication),
        repair_(repair) {
    storeHandle_ = net_->registerStore(
        [this](const mlight::dht::Network::MembershipChange& change) {
          onMembershipChange(change);
        });
  }

  ~DistributedStore() { net_->unregisterStore(storeHandle_); }

  DistributedStore(const DistributedStore&) = delete;
  DistributedStore& operator=(const DistributedStore&) = delete;

  std::size_t replication() const noexcept { return replication_; }

  // --- Query-load balancing (hot-leaf read replication) -----------------

  /// Installs the balancing policy.  Call on a quiet store (before
  /// traffic) — the disabled default leaves every path byte-identical
  /// to a build without the subsystem.
  void setLoadBalance(const LoadBalancePolicy& policy) noexcept {
    loadBalance_ = policy;
  }
  const LoadBalancePolicy& loadBalance() const noexcept {
    return loadBalance_;
  }

  /// Applies the promotions/demotions the owner-side heat counters
  /// decided since the last drain.  Must be called at a quiescent point
  /// (no events in flight) — index operations call it from their tails —
  /// because promotion re-resolves copyTargets() and ships replica
  /// payload, which may not happen mid-operation (it would race the
  /// failover walk's captured target list under tie shuffling; see the
  /// determinism contract).  Labels are processed in sorted order after
  /// dedup, so the drain's effect is independent of the handler
  /// execution order that queued them.
  void drainLoadBalance() {
    if (!loadBalance_.enabled) return;
    if (pendingDemotions_.empty() && pendingPromotions_.empty()) return;
    std::sort(pendingDemotions_.begin(), pendingDemotions_.end());
    pendingDemotions_.erase(
        std::unique(pendingDemotions_.begin(), pendingDemotions_.end()),
        pendingDemotions_.end());
    for (const Label& label : pendingDemotions_) {
      const std::uint32_t slot = labels_.find(label);
      if (slot == kNoSlot || labels_[slot].boost == kNotBoosted) continue;
      releaseBoost(slot);
      if (labels_[slot].entry == nullptr) continue;
      // Shedding copies is free: the enlarged set simply stops being
      // maintained, and the next installed copy set is the base one.
      installCopies(slot, copyTargets(label));
      ++hotDemotions_;
    }
    pendingDemotions_.clear();
    std::sort(pendingPromotions_.begin(), pendingPromotions_.end());
    pendingPromotions_.erase(
        std::unique(pendingPromotions_.begin(), pendingPromotions_.end()),
        pendingPromotions_.end());
    for (const Label& label : pendingPromotions_) {
      if (boosted_.size() >= loadBalance_.maxHotLeaves) break;
      const std::uint32_t slot = labels_.find(label);
      if (slot == kNoSlot || labels_[slot].boost != kNotBoosted) continue;
      const Entry* entry = labels_[slot].entry.get();
      if (entry == nullptr) continue;
      labels_[slot].boost = static_cast<std::uint32_t>(boosted_.size());
      boosted_.push_back(Boost{slot, loadBalance_.boostCopies});
      // Ship the bucket to the new holders from the primary — the same
      // metered repair primitive crash recovery uses.
      ensureReplicated(label, slot, entry->copies[0].holder);
      ++hotPromotions_;
    }
    pendingPromotions_.clear();
  }

  /// Brings, at a quiescent point, the frozen read route of every
  /// boosted label up to date: the copy with the least per-peer query
  /// load on the current meter, ties broken by lowest replica index (the
  /// order of the copy-target walk).  Handlers issuing reads
  /// mid-operation consult only this frozen table — never the live
  /// counters — so the routing decision is identical under any same-time
  /// delivery order.
  ///
  /// Runs before every read, so a label is re-picked only when its route
  /// can have changed: when the copy-set epoch moved (a copy set was
  /// installed, a bucket erased, or membership changed) or the last
  /// winner's load moved.  Skipping is exact: the meter only counts up,
  /// so a rise on a copy that is not the winner cannot displace the
  /// first minimum, and the copy set and vnode→physical map change only
  /// at epoch bumps (docs/COST_MODEL.md "Query-load balancing").
  void refreshReadRouting() {
    if (!loadBalance_.enabled) return;
    const auto& loads = net_->peerLoads();
    for (Boost& boost : boosted_) {
      if (boost.pickedEpoch == copyEpoch_ &&
          loads.countOf(boost.winner) == boost.winnerLoad) {
        ++skippedReadRoutes_;
        continue;
      }
      // Boosted labels are stored: erasure and crash loss release the
      // boost (and bump the epoch, so a skipped label's entry is intact).
      const Entry* entry = labels_[boost.slot].entry.get();
      MLIGHT_CHECK(entry != nullptr, "boosted label has no stored bucket");
      const ReadPick pick = pickLeastLoaded(entry->copies);
      boost.readSalt = pick.salt;
      boost.pickedEpoch = copyEpoch_;
      boost.winner = pick.physical;
      boost.winnerLoad = pick.load;
    }
    if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
      auditFrozenReadRoutes();
    }
  }

  /// Route refreshes that kept a boosted label's frozen route without a
  /// re-pick (host-side introspection; never digested).
  std::uint64_t skippedReadRoutes() const noexcept {
    return skippedReadRoutes_;
  }

  /// Replica route of `label` for hint piggybacking: one {salt, load}
  /// pair per copy-holder, in copy-target order, the load a coarse signal
  /// of the holder's traffic.  Empty unless the label is currently
  /// boosted.
  std::vector<mlight::common::ReplicaCopy> replicaReadInfo(
      const Label& label) const {
    std::vector<mlight::common::ReplicaCopy> route;
    if (!loadBalance_.enabled || boosted_.empty()) return route;
    const std::uint32_t slot = labels_.find(label);
    if (slot == kNoSlot || labels_[slot].boost == kNotBoosted) return route;
    const Entry* entry = labels_[slot].entry.get();
    if (entry == nullptr) return route;
    const auto& loads = net_->peerLoads();
    route.reserve(entry->copies.size());
    for (const CopyTarget& t : entry->copies) {
      const std::uint64_t load =
          loads.countOf(net_->physicalOf(t.holder, t.slotHint));
      route.push_back({static_cast<std::uint32_t>(t.salt),
                       static_cast<std::uint32_t>(
                           std::min<std::uint64_t>(load, 0xFFFFFFFFu))});
    }
    return route;
  }

  /// Leaves currently holding boosted (read-hot) copy sets.
  std::size_t boostedLeafCount() const noexcept { return boosted_.size(); }
  bool isBoosted(const Label& label) const {
    const std::uint32_t slot = labels_.find(label);
    return slot != kNoSlot && labels_[slot].boost != kNotBoosted;
  }
  /// Monotone promotion/demotion event counters.
  std::uint64_t hotPromotions() const noexcept { return hotPromotions_; }
  std::uint64_t hotDemotions() const noexcept { return hotDemotions_; }

  /// Attaches a per-peer write-ahead log set (durable write path): from
  /// now on every bucket placement *applied* at a peer — the primary
  /// store of an asyncPut at delivery, and every placeLocal — appends a
  /// committed kPlace frame to that peer's log, keyed by the peer's
  /// stable name.  The WalSet is owned by the caller (it must outlive
  /// simulated crashes of the peers it logs, since it models their
  /// disks, not their memory).  Detach with nullptr.
  void attachWal(mlight::wal::WalSet* walSet) noexcept { wal_ = walSet; }

  /// True when every copy of `label` died in a crash and nothing
  /// re-placed it since — reads of it fail; recovery layers use this to
  /// restore exactly what was lost and nothing else.
  bool isMourned(const Label& label) const {
    const std::uint32_t slot = labels_.find(label);
    return slot != kNoSlot && labels_[slot].mourned;
  }

  /// Hard cap on distinct labels memoized by ringKey() below.  Workloads
  /// with mostly-unique labels (DST leaf cells under a deep static tree)
  /// would otherwise grow the memo without bound: the hash table's
  /// rehash and teardown costs come to dominate the run while the hit
  /// rate approaches zero.  Hot label sets (bucket labels, trie probe
  /// prefixes) are orders of magnitude smaller than this cap, so the
  /// workloads that benefit from the memo keep their hits.
  static constexpr std::size_t kRingKeyCacheCap = std::size_t{1} << 17;

  /// Ring position of a label's DHT key (salt 0 = primary key; higher
  /// salts are candidate replica keys).  Labels are immutable and the
  /// naming function is pure, so the label→id mapping is computed once
  /// per (label, salt) and cached (up to kRingKeyCacheCap labels) — the
  /// hot path of every locate probe and forwarding step no longer
  /// rebuilds strings and rehashes.  Ids for uncached labels are
  /// computed directly; caching is invisible to the simulation either
  /// way (the naming function is pure).
  RingId ringKey(const Label& label, std::size_t salt = 0) const {
    std::uint32_t slot = labels_.find(label);
    if (slot == kNoSlot || !labels_[slot].memo) {
      if (ringKeysMemoized_ >= kRingKeyCacheCap) {
        return computeRingKey(label, salt);
      }
      if (slot == kNoSlot) slot = labels_.insert(label);
      labels_[slot].memo = true;
      labels_[slot].key0 = computeRingKey(label, 0);
      ++ringKeysMemoized_;
    }
    LabelState& st = labels_[slot];
    if (salt == 0) return st.key0;
    while (st.saltKeys.size() < salt) {
      st.saltKeys.push_back(computeRingKey(label, st.saltKeys.size() + 1));
    }
    return st.saltKeys[salt - 1];
  }

  /// Peer currently responsible for `label`'s primary key (no cost).
  RingId ownerOf(const Label& label) const {
    return net_->responsible(ringKey(label));
  }

  /// The copy placements of `label` on the current ring: targets[0] is
  /// the primary (salt 0); replicas land at successive salted keys,
  /// skipping salts whose owner was already chosen so copies are
  /// failure-independent (salts are probed in order, so the set is
  /// deterministic for a given ring).  This is the single
  /// holder-resolution point — placement, replica fan-out, crash repair
  /// and read failover all consume it, so no path can disagree about
  /// where the copies live.
  std::vector<CopyTarget> copyTargets(const Label& label) const {
    // Boosted labels (read-hot, see LoadBalancePolicy) want extra copies
    // on top of the durability replication factor; resolving the boost
    // here means placement, replica fan-out, crash repair, and read
    // failover all maintain the enlarged set without knowing about it.
    const std::size_t want = replication_ + boostOf(label);
    std::vector<CopyTarget> targets = placementWalk(label, want);
    if (targets.size() < replication_) {
      // Degraded mode: the overlay has fewer distinct peers reachable
      // within the probe budget than the requested copies.  The bucket
      // is stored under-replicated (crash tolerance drops accordingly);
      // count it and warn once so small-overlay configurations are not
      // silently fragile.
      ++underReplicated_;
      if (!warnedUnderReplicated_ &&
          mlight::common::auditEnabled(
              mlight::common::AuditLevel::kBoundaries)) {
        warnedUnderReplicated_ = true;
        std::fprintf(stderr,
                     "mlight: WARNING: store '%s' placed only %zu of %zu "
                     "copies (probe budget %zu exhausted) — overlay too "
                     "small for the replication factor\n",
                     ns_.c_str(), targets.size(), replication_,
                     8 * want);
      }
    }
    if (mlight::common::auditEnabled(
            mlight::common::AuditLevel::kBoundaries)) {
      // Copies must land on pairwise-distinct peers (failure
      // independence) and never exceed the wanted copy count
      // (replication factor plus any hot-leaf boost).
      std::vector<std::uint64_t> positions;
      positions.reserve(targets.size());
      for (const CopyTarget& t : targets) positions.push_back(t.holder.value);
      mlight::common::auditReplicaHolders(positions, want);
    }
    return targets;
  }

  struct Found {
    RingId owner;
    std::size_t hops;
    double ms;       ///< simulated routing latency of this lookup
    Bucket* bucket;  ///< nullptr when no bucket is stored under the key.
    /// True when the read produced no answer at all — every candidate
    /// holder timed out or reported no copy (fault injection / crash
    /// loss).  Distinct from an authoritative NULL (`bucket == nullptr`
    /// with `failed == false`), which means the key is known empty.
    bool failed = false;
  };

  // --- Async RPC API ---------------------------------------------------
  //
  // The owner-side half of every store operation runs as an RPC handler
  // scheduled by the network: the initiator issues a typed envelope
  // (costing one DHT-lookup + one message at issue time, exactly where
  // the old synchronous code metered its lookup), and the continuation
  // executes "at" the owning peer when the message arrives, working from
  // the delivered envelope's payload.  The synchronous methods below are
  // thin drivers that issue the RPC and pump the event loop dry.
  //
  // The owner side has two handlers: one for every access kind
  // (asyncAccess) and one for puts (asyncPut).

  /// Continuation invoked at the owner: the bucket stored under the
  /// requested label (nullptr if none) plus the delivery metadata
  /// (route, timestamps, round).
  using VisitFn =
      std::function<void(Bucket*, const mlight::dht::RpcDelivery&)>;

  /// Pure reads: kGet (search probes, range cascades) and kHintProbe
  /// (a cached hint's direct probe).  Reads may start at any copy and
  /// feed the owner-side heat counters; every other kind may mutate the
  /// bucket (kVisit read-modify-write, kBatchPut group append) and
  /// starts at the primary.
  static constexpr bool isRead(mlight::dht::RpcKind kind) noexcept {
    return kind == mlight::dht::RpcKind::kGet ||
           kind == mlight::dht::RpcKind::kHintProbe;
  }

  /// The one access verb: routes a `kind` envelope carrying `label`,
  /// followed by `extra` opaque bytes (a kBatchPut's record group,
  /// re-read from `d.env.payload` past the leading label; every other
  /// kind carries the label alone), and runs `fn` at the holder that
  /// answers with the bucket stored there.  `round` is the RPC chain
  /// depth — handlers issuing follow-ups pass their delivery's round + 1.
  /// The kind only tells traces and dead letters the verbs apart, and
  /// picks the starting copy (see isRead).
  ///
  /// A read starts at copy `salt` when one is given (the initiator's
  /// hint remembers a boosted leaf's replica route), else at the store's
  /// frozen read route for the label (the primary unless balancing
  /// boosted it).  A salt that stopped being a copy (demotion, churn) is
  /// caught by the owner-side holds-copy check and fails over — never a
  /// wrong answer.
  ///
  /// Failover: an access is answered by the owner of the starting key
  /// when it holds a copy.  If that owner reports no copy after a crash
  /// (repair not yet caught up) or never answers (timeout dead letter
  /// under fault injection), the request is re-issued — one round
  /// deeper — to the next holder from the copy-target walk, until some
  /// holder answers or every candidate was tried (a failed access; the
  /// continuation never runs).  A successful failover read-repairs the
  /// bucket back to R copies on the current ring.
  void asyncAccess(mlight::dht::RpcKind kind, RingId initiator,
                   const Label& label, std::uint32_t round, VisitFn fn,
                   std::vector<std::uint8_t> extra = {},
                   std::size_t salt = 0) {
    const std::uint32_t at = acquireAccessState();
    AccessState& state = accessStates_[at];
    state.kind = kind;
    state.label = label;
    state.extra = std::move(extra);
    state.fn = std::move(fn);
    if (!isRead(kind)) {
      salt = 0;
    } else if (salt == 0) {
      salt = frozenSaltFor(label);
    }
    issueAccess(at, initiator, round, salt);
  }

  /// Async DHT-put: serializes the bucket, ships it (and its replica
  /// copies) toward the owners, and stores the decoded copy when the
  /// primary envelope arrives.  Payload bytes are metered at issue, like
  /// the old synchronous put; replica envelopes are fire-and-forget.  A
  /// primary envelope that dead-letters stored the bucket nowhere: its
  /// label is mourned like a bucket whose every holder crashed.
  void asyncPut(RingId source, const Label& label, Bucket bucket,
                std::uint32_t round = 1) {
    // The bucket crosses the (simulated) wire: serialize for real, both
    // to keep the byte accounting exact and so the wire format is
    // exercised on every put; the owner stores what comes out of the
    // decoder at delivery.  The image is written once, straight into the
    // envelope body, framed like writeBytes (u32 length + bytes).
    const std::size_t bytes = bucket.byteSize();
    mlight::common::Writer body(net_->acquireBuffer());
    body.writeBitString(label);
    body.writeU32(static_cast<std::uint32_t>(bytes));
    const std::size_t imageAt = body.size();
    bucket.serialize(body);
    MLIGHT_CHECK(body.size() - imageAt == bytes,
                 "byteSize() disagrees with the wire format");
    const std::vector<CopyTarget> targets = copyTargets(label);

    mlight::dht::RpcEnvelope env;
    env.kind = mlight::dht::RpcKind::kPut;
    env.from = source;
    env.round = round;
    env.payload = std::move(body).take();

    net_->sendRpc(
        ringKey(label), env,
        [this](const mlight::dht::RpcDelivery& d) {
          mlight::common::Reader r(d.env.payload);
          const Label wireLabel = r.readBitString();
          const std::span<const std::uint8_t> image = r.readBytesView();
          mlight::common::Reader br(image);
          // Resolve the holders on the ring as it is *now*: churn between
          // issue and delivery would otherwise record peers that no
          // longer own the salted keys, sending later replica updates to
          // the wrong peers.
          std::vector<CopyTarget> copies = copyTargets(wireLabel);
          Bucket decoded = Bucket::deserialize(br);
          MLIGHT_CHECK(br.atEnd(), "wire format left trailing bytes");
          // Append-on-apply: the stored image is durably framed at the
          // peer that applied it (the wire bytes just decoded).
          walAppendPlace(d.route.owner, wireLabel, image);
          storeEntry(wireLabel, std::move(copies), std::move(decoded));
        },
        [this](const mlight::dht::RpcEnvelope& deadEnv,
               std::size_t /*attempts*/) {
          mlight::common::Reader r(deadEnv.payload);
          mourn(labels_.insert(r.readBitString()));
        });
    net_->shipPayload(source, targets[0].holder, bytes, bucket.recordCount());
    pushToReplicas(source, label, targets, bytes, bucket.recordCount(), &env);
  }

  /// Synchronous facade over asyncAccess: issues the RPC and pumps the
  /// event loop to completion, so the simulated clock advances by the
  /// routing latency.
  Found accessAndFind(mlight::dht::RpcKind kind, RingId initiator,
                      const Label& label, std::uint32_t round = 1,
                      std::vector<std::uint8_t> extra = {},
                      std::size_t salt = 0) {
    Found out{};
    out.failed = true;  // cleared iff some holder actually answers
    asyncAccess(
        kind, initiator, label, round,
        [&out](Bucket* bucket, const mlight::dht::RpcDelivery& d) {
          out = Found{d.route.owner, d.route.hops, d.route.ms, bucket};
        },
        std::move(extra), salt);
    net_->run();
    return out;
  }

  /// One DHT-lookup: routes from `initiator` to the key's owner and
  /// returns the bucket stored there, if any (accessAndFind for kGet).
  Found routeAndFind(RingId initiator, const Label& label,
                     std::uint32_t round = 1) {
    return accessAndFind(mlight::dht::RpcKind::kGet, initiator, label,
                         round);
  }

  /// DHT-put: routes from `source`, ships the bucket payload to the owner
  /// of every copy (no bytes for copies the source itself owns), and
  /// stores/replaces it.  Returns the primary owner.
  RingId place(RingId source, const Label& label, Bucket bucket) {
    const RingId owner = ownerOf(label);
    asyncPut(source, label, std::move(bucket));
    net_->run();
    return owner;
  }

  /// Stores a bucket whose primary copy is created on the peer that
  /// already owns the key (e.g. the split child that keeps its parent's
  /// DHT key, Theorem 5) — no primary routing or shipping.  Replica
  /// copies, if configured, still cost a put each (from the primary,
  /// fire-and-forget).  The primary copy is stored immediately: this is
  /// a local operation at the owner, safe to call from RPC handlers.
  void placeLocal(const Label& label, Bucket bucket) {
    std::vector<CopyTarget> copies = copyTargets(label);
    if (wal_ != nullptr) {
      // Local application still crosses the durability boundary: frame
      // the image at the owning peer before it becomes the stored state.
      mlight::common::Writer w(net_->acquireBuffer());
      bucket.serialize(w);
      walAppendPlace(copies[0].holder, label, w.bytes());
      net_->releaseBuffer(std::move(w).take());
    }
    if (copies.size() > 1) {
      pushToReplicas(copies[0].holder, label, copies, bucket.byteSize(),
                     bucket.recordCount());
    }
    storeEntry(label, std::move(copies), std::move(bucket));
  }

  /// Accounts the cost of propagating an in-place bucket mutation (e.g.
  /// one appended record) to the replicas: one routed update envelope
  /// plus the payload per replica, fire-and-forget.  No-op when
  /// replication == 1.
  void shipToReplicas(RingId source, const Label& label, std::size_t bytes,
                      std::size_t records) {
    if (replication_ <= 1) return;
    const std::uint32_t slot = labels_.find(label);
    if (slot == kNoSlot || labels_[slot].entry == nullptr) return;
    // Resolve the replica set on the *current* ring (a cached holder
    // list can be stale across churn); any holder found missing gets
    // the full bucket first, then everyone receives the delta.
    ensureReplicated(label, slot, source);
    pushToReplicas(source, label, labels_[slot].entry->copies, bytes,
                   records);
  }

  /// Removes the bucket under `label`; returns true if one existed.  A
  /// boosted label gives its boost back (it will never be read again, so
  /// no demotion would ever free the slot); that is not a demotion.
  bool erase(const Label& label) {
    const std::uint32_t slot = labels_.find(label);
    if (slot == kNoSlot) return false;
    const bool existed = labels_[slot].entry != nullptr;
    dropEntry(slot);
    releaseIfIdle(slot);
    return existed;
  }

  /// Local (unmetered) bucket access for assertions and statistics.  The
  /// pointer stays valid until the label itself is erased or lost:
  /// placements and erasures of other labels never move a bucket.
  Bucket* peek(const Label& label) {
    Entry* entry = entryOf(label);
    return entry == nullptr ? nullptr : &entry->bucket;
  }
  const Bucket* peek(const Label& label) const {
    const Entry* entry = entryOf(label);
    return entry == nullptr ? nullptr : &entry->bucket;
  }

  std::size_t bucketCount() const noexcept { return entryCount_; }

  /// Buckets irrecoverably lost to crashes (all copy-holders died).
  std::size_t lostBuckets() const noexcept { return lostBuckets_; }

  /// Buckets whose copies were re-created from a survivor after a crash
  /// (eager repair, metered inside the membership callback).
  std::size_t repairedBuckets() const noexcept { return repairedBuckets_; }

  /// Reads that produced no answer at all: every candidate holder either
  /// timed out (dead letter) or reported no copy, or the bucket was
  /// mourned (all copies crashed).  The continuation is *not* invoked
  /// for these — indexes surface the per-operation delta as
  /// QueryStats::failedProbes.
  std::size_t failedReads() const noexcept { return failedReads_; }

  /// Reads answered by a non-primary holder after the primary timed out
  /// or reported no copy.
  std::size_t failoverReads() const noexcept { return failoverReads_; }

  /// Successful failovers that re-replicated the bucket back to R copies
  /// (read-repair).
  std::size_t readRepairs() const noexcept { return readRepairs_; }

  /// placements that came up short of `replication` copies because the
  /// probe budget ran out (degraded mode — see copyTargets()).  A
  /// monotone event counter; for the *current* degradation level see
  /// underReplicatedBuckets().
  std::size_t underReplicatedPlacements() const noexcept {
    return underReplicated_;
  }

  /// Buckets currently stored with fewer than `replication` copies
  /// (level-triggered, unlike the monotone placement counter above):
  /// degradation inserts the label once, and any path that re-achieves R
  /// copies — eager crash repair, read-repair, or a replayed WAL batch
  /// re-placing the bucket — removes it.  Empty means fully replicated.
  std::size_t underReplicatedBuckets() const noexcept {
    return underReplicatedCount_;
  }

  /// Access states the store has ever created.  Each access takes one
  /// from a free list and gives it back when it resolves (answered,
  /// mourned, or out of candidates), so this equals the peak number of
  /// accesses in flight at once, and a steady workload stops growing it
  /// (host-side introspection; never digested).
  std::size_t accessStatePoolSize() const noexcept {
    return accessStates_.size();
  }
  /// Accesses issued and not yet resolved.
  std::size_t accessesInFlight() const noexcept {
    return accessStates_.size() - freeAccessStates_.size();
  }

  /// Labels with memoized ring keys (the ringKey() cache).  Bounded by
  /// the labels ever probed minus those mourned after a crash — the
  /// stats dump watches this for unbounded growth across churn epochs.
  std::size_t ringKeyCacheSize() const noexcept {
    return ringKeysMemoized_;
  }

  /// Current holder set recorded for `label` (empty if absent) — test
  /// and audit accessor.
  std::vector<RingId> holdersOf(const Label& label) const {
    std::vector<RingId> out;
    const Entry* entry = entryOf(label);
    if (entry == nullptr) return out;
    out.reserve(entry->copies.size());
    for (const CopyTarget& t : entry->copies) out.push_back(t.holder);
    return out;
  }

  /// True when a read of `label` finds its bucket at `holder`: the
  /// primary owner, or, while crash repair waits for a read (kOnRead),
  /// any member of the current copy set, to which a read that misses at
  /// the primary fails over.  Meters and counts nothing (audit helper).
  bool readableAt(const Label& label, RingId holder) const {
    if (holder == ownerOf(label)) return true;
    if (repair_ != RepairPolicy::kOnRead) return false;
    const std::vector<CopyTarget> targets =
        placementWalk(label, replication_ + boostOf(label));
    return std::any_of(targets.begin(), targets.end(),
                       [&](const CopyTarget& t) { return t.holder == holder; });
  }

  /// Visits every bucket in ascending label order (a sorted slot list,
  /// not slot or hash order — see the determinism contract in
  /// docs/THEORY.md: consumers feed logs, stats dumps, and digests, so
  /// the visit order must not leak table layout).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const std::uint32_t slot : sortedSlots(&LabelState::hasEntry)) {
      const Entry& entry = *labels_[slot].entry;
      fn(labels_.label(slot), entry.bucket, entry.copies[0].holder);
    }
  }

  /// Records held by each peer via its *primary* copies (replicas are
  /// excluded so load figures stay comparable across replication
  /// factors; peers with no bucket are absent).
  std::map<RingId, std::size_t> perPeerRecords() const {
    std::map<RingId, std::size_t> load;
    forEach([&](const Label&, const Bucket& bucket, RingId owner) {
      load[owner] += bucket.recordCount();
    });
    return load;
  }

  /// Feeds every simulation-visible fact of this store into `d`: labels
  /// and serialized buckets in ascending label order, replica
  /// placements, mourned labels, and the loss/repair/failover counters.
  /// The ringKey memo is excluded — it is a pure function of its keys
  /// (host-side cache, never an answer source).
  void digestState(mlight::common::Digest& d) const {
    d.feed(std::string_view(ns_));
    d.feed(replication_);
    d.feed(entryCount_);
    for (const std::uint32_t slot : sortedSlots(&LabelState::hasEntry)) {
      const Entry& entry = *labels_[slot].entry;
      mlight::common::Writer w;
      w.writeBitString(labels_.label(slot));
      entry.bucket.serialize(w);
      d.feedBytes(w.bytes());
      d.feed(entry.copies.size());
      for (const CopyTarget& t : entry.copies) {
        d.feed(t.holder.value);
        d.feed(t.salt);
      }
    }
    d.feed(mournedCount_);
    for (const std::uint32_t slot : sortedSlots(&LabelState::mourned)) {
      d.feed(labels_.label(slot));
    }
    d.feed(lostBuckets_);
    d.feed(repairedBuckets_);
    d.feed(failedReads_);
    d.feed(failoverReads_);
    d.feed(readRepairs_);
    d.feed(underReplicated_);
    d.feed(underReplicatedCount_);
    for (const std::uint32_t slot :
         sortedSlots(&LabelState::underReplicated)) {
      d.feed(labels_.label(slot));
    }
    // Query-load balancing state (all empty with balancing off, so the
    // disabled digest matches a build without the subsystem's state —
    // the counters still feed, as constants).  Boosted and heated labels
    // feed in sorted label order; the pending vectors are queued in
    // handler order, so they feed through a sorted+deduped copy (exactly
    // the view the drain will consume).
    const std::vector<std::uint32_t> boosted =
        sortedSlots(&LabelState::isBoosted);
    d.feed(boosted.size());
    std::size_t routed = 0;
    for (const std::uint32_t slot : boosted) {
      const Boost& boost = boosted_[labels_[slot].boost];
      d.feed(labels_.label(slot));
      d.feed(boost.extra);
      routed += boost.routed();
    }
    d.feed(heatCount_);
    for (const std::uint32_t slot : sortedSlots(&LabelState::hasHeat)) {
      d.feed(labels_.label(slot));
      d.feed(labels_[slot].heat.startMs);
      d.feed(labels_[slot].heat.reads);
    }
    d.feed(routed);
    for (const std::uint32_t slot : boosted) {
      const Boost& boost = boosted_[labels_[slot].boost];
      if (!boost.routed()) continue;
      d.feed(labels_.label(slot));
      d.feed(boost.readSalt);
    }
    const auto feedPendingSorted = [&d](std::vector<Label> pending) {
      std::sort(pending.begin(), pending.end());
      pending.erase(std::unique(pending.begin(), pending.end()),
                    pending.end());
      d.feed(pending.size());
      for (const Label& label : pending) d.feed(label);
    };
    feedPendingSorted(pendingPromotions_);
    feedPendingSorted(pendingDemotions_);
    d.feed(hotPromotions_);
    d.feed(hotDemotions_);
  }

 private:
  static constexpr std::uint32_t kNoSlot = mlight::common::kNoLabelSlot;
  static constexpr std::uint32_t kNotBoosted = ~std::uint32_t{0};
  static constexpr std::uint64_t kNeverPicked = ~std::uint64_t{0};

  struct Entry {
    std::vector<CopyTarget> copies;  // copies[0] = primary placement
    Bucket bucket;
  };

  /// Owner-side windowed read counters per label.
  struct HeatWindow {
    double startMs = 0.0;
    std::uint32_t reads = 0;
  };

  /// Everything the store keeps about one label: the payload of the
  /// label's slot in labels_ (docs/COST_MODEL.md "Label-keyed store
  /// state").  A slot is freed once no facet holds it (see held()).
  struct LabelState {
    /// The stored bucket, on the heap so that its address survives table
    /// growth: continuations receive Bucket*, split/merge code holds it
    /// across placements of other labels, and range harvests keep record
    /// pointers until quiescence.
    std::unique_ptr<Entry> entry;
    /// Memoized ring keys (valid iff `memo`): salt 0 inline, salts 1..n
    /// in order behind it.
    std::vector<RingId> saltKeys;
    RingId key0{};
    /// Valid iff `hasHeat`.  Erased labels keep their window (the digest
    /// feeds every window ever opened).
    HeatWindow heat;
    /// Index into boosted_, or kNotBoosted.
    std::uint32_t boost = kNotBoosted;
    bool memo = false;
    bool hasHeat = false;
    /// Every copy died in a crash and nothing re-placed the label since.
    bool mourned = false;
    /// Stored with fewer than `replication` copies.
    bool underReplicated = false;

    bool hasEntry() const noexcept { return entry != nullptr; }
    bool isBoosted() const noexcept { return boost != kNotBoosted; }
    bool held() const noexcept {
      return entry != nullptr || memo || hasHeat || isBoosted() ||
             mourned || underReplicated;
    }
  };

  /// A boosted label's state: promotion installs it, demotion (or the
  /// label's erasure or loss) removes it.  `readSalt` is the salt of the
  /// least-loaded copy, frozen by the last refreshReadRouting()
  /// (read-only between quiescent points); until a refresh has picked a
  /// route the label is unrouted and reads from the primary (salt 0).
  /// The last three fields are the inputs of the last full pick, which
  /// decide whether the next refresh may skip it.
  struct Boost {
    std::uint32_t slot = 0;
    std::size_t extra = 0;  // extra copies granted
    std::size_t readSalt = 0;
    std::uint64_t pickedEpoch = kNeverPicked;
    std::size_t winner = 0;  ///< physical peer of the picked copy
    std::uint64_t winnerLoad = 0;

    bool routed() const noexcept { return pickedEpoch != kNeverPicked; }
  };

  /// The least-loaded copy of a copy set and the load that won.
  struct ReadPick {
    std::size_t salt = 0;
    std::size_t physical = ~std::size_t{0};
    std::uint64_t load = ~std::uint64_t{0};
  };

  /// Frees `slot` once no facet holds it any more.
  void releaseIfIdle(std::uint32_t slot) {
    if (!labels_[slot].held()) labels_.erase(slot);
  }

  Entry* entryOf(const Label& label) const {
    const std::uint32_t slot = labels_.find(label);
    return slot == kNoSlot ? nullptr : labels_[slot].entry.get();
  }

  /// Live slots whose state satisfies `facet` (a LabelState predicate or
  /// flag), in ascending label order.
  template <typename Facet>
  std::vector<std::uint32_t> sortedSlots(Facet facet) const {
    std::vector<std::uint32_t> slots;
    for (std::uint32_t s = 0; s < labels_.slotLimit(); ++s) {
      if (labels_.live(s) && std::invoke(facet, labels_[s])) {
        slots.push_back(s);
      }
    }
    std::sort(slots.begin(), slots.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return labels_.less(a, b);
              });
    return slots;
  }

  /// Stores (or overwrites in place) the bucket under `label` with the
  /// copy set it was placed on; clears any mourning.
  void storeEntry(const Label& label, std::vector<CopyTarget> copies,
                  Bucket bucket) {
    const std::uint32_t slot = labels_.insert(label);
    LabelState& st = labels_[slot];
    if (st.mourned) {
      st.mourned = false;
      --mournedCount_;
    }
    if (st.entry == nullptr) {
      st.entry = std::make_unique<Entry>(Entry{{}, std::move(bucket)});
      ++entryCount_;
    } else {
      st.entry->bucket = std::move(bucket);
    }
    installCopies(slot, std::move(copies));
  }

  /// The single copy-install path: every copy set an entry takes goes
  /// through here, so the copy-set epoch (which lets refreshReadRouting
  /// skip unchanged routes) and the under-replication level stay exact.
  void installCopies(std::uint32_t slot, std::vector<CopyTarget> copies) {
    labels_[slot].entry->copies = std::move(copies);
    noteCopyHealth(slot);
    ++copyEpoch_;
  }

  /// Checks every boosted label's frozen route against a from-scratch
  /// re-pick on the current meter; refreshReadRouting runs it right
  /// after a refresh at the paranoid audit level (routes stay frozen
  /// while loads move on).
  void auditFrozenReadRoutes() const {
    for (const Boost& boost : boosted_) {
      const Entry* entry = labels_[boost.slot].entry.get();
      const std::size_t fresh =
          entry == nullptr ? 0 : pickLeastLoaded(entry->copies).salt;
      mlight::common::auditFrozenReadRoute(labels_.label(boost.slot),
                                           boost.routed(), boost.readSalt,
                                           entry != nullptr, fresh);
    }
  }

  /// Removes `slot`'s boost, if any (keeps boosted_ dense).
  void releaseBoost(std::uint32_t slot) {
    const std::uint32_t at = labels_[slot].boost;
    if (at == kNotBoosted) return;
    if (at + 1 != boosted_.size()) {
      boosted_[at] = boosted_.back();
      labels_[boosted_[at].slot].boost = at;
    }
    boosted_.pop_back();
    labels_[slot].boost = kNotBoosted;
  }

  /// copyTargets() without its degraded-mode count and audits: up to
  /// `want` copies on distinct peers, primary first.
  std::vector<CopyTarget> placementWalk(const Label& label,
                                        std::size_t want) const {
    std::vector<CopyTarget> targets{CopyTarget{ownerOf(label), 0}};
    std::size_t salt = 1;
    // On tiny overlays there may be fewer peers than copies; stop after
    // a bounded number of attempts rather than spinning.
    std::size_t attempts = 0;
    while (targets.size() < want && attempts < 8 * want) {
      const RingId candidate = net_->responsible(ringKey(label, salt));
      const bool taken =
          std::find_if(targets.begin(), targets.end(),
                       [&](const CopyTarget& t) {
                         return t.holder == candidate;
                       }) != targets.end();
      if (!taken) targets.push_back(CopyTarget{candidate, salt});
      ++salt;
      ++attempts;
    }
    return targets;
  }

  /// The naming function behind ringKey(): "<ns><label bits>" for the
  /// primary key, with "#r<salt>" appended for replica keys.  Built into
  /// a reusable scratch buffer — on cache-miss-heavy workloads this runs
  /// once per RPC, and the string temporaries of the naive
  /// concatenation were a measurable share of the run.
  RingId computeRingKey(const Label& label, std::size_t salt) const {
    std::string& key = keyScratch_;
    key.assign(ns_);
    for (std::size_t i = 0; i < label.size(); ++i) {
      key.push_back(label.bit(i) ? '1' : '0');
    }
    if (salt != 0) {
      key += "#r";
      key += std::to_string(salt);
    }
    return mlight::dht::keyId(key);
  }

  /// Extra copies currently granted to `label` (0 for cold leaves, and
  /// for everything when balancing is off — boosted_ stays empty then).
  std::size_t boostOf(const Label& label) const {
    const Boost* boost = boostRecordOf(label);
    return boost == nullptr ? 0 : boost->extra;
  }

  /// The frozen read route for `label` (see refreshReadRouting): 0 —
  /// the primary — unless a refresh chose a less-loaded copy.  Safe to
  /// call from RPC handlers: the route is only written at quiescence.
  std::size_t frozenSaltFor(const Label& label) const {
    const Boost* boost = boostRecordOf(label);
    return boost == nullptr ? 0 : boost->readSalt;
  }

  const Boost* boostRecordOf(const Label& label) const {
    if (boosted_.empty()) return nullptr;
    const std::uint32_t slot = labels_.find(label);
    if (slot == kNoSlot || labels_[slot].boost == kNotBoosted) return nullptr;
    return &boosted_[labels_[slot].boost];
  }

  /// Least-loaded copy by the peer-load meter; ties break toward the
  /// lowest replica index (strict < keeps the first minimum), which is
  /// the deterministic rule the shuffle-seed suites rely on.  Paranoid
  /// audits cross-check every slot-hinted holder against a ring search.
  ReadPick pickLeastLoaded(const std::vector<CopyTarget>& copies) const {
    ReadPick best;
    const auto& loads = net_->peerLoads();
    const bool paranoid =
        mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid);
    for (const CopyTarget& t : copies) {
      const std::size_t physical = net_->physicalOf(t.holder, t.slotHint);
      MLIGHT_CHECK(!paranoid || physical == net_->physicalOf(t.holder),
                   "slot hint resolved " + mlight::dht::toString(t.holder) +
                       " to the wrong physical peer");
      const std::uint64_t load = loads.countOf(physical);
      if (load < best.load) best = ReadPick{t.salt, physical, load};
    }
    return best;
  }

  /// Owner-side heat accounting, called from the read-serving handler.
  /// Only counters and pending-decision sets are touched here — reads
  /// at equal simulated time commute (each adds one; whether a label
  /// crossed `promoteReads` within the window is a property of the
  /// count, not of the order), so this is handler-safe under tie
  /// shuffling.  The placement side effects happen in
  /// drainLoadBalance(), at quiescence, in sorted label order.
  void noteHeat(const Label& label, std::uint32_t slot) {
    if (!loadBalance_.enabled) return;
    LabelState& st = labels_[slot];
    if (!st.hasHeat) {
      st.hasHeat = true;
      ++heatCount_;
    }
    HeatWindow& h = st.heat;
    const double now = net_->now();
    const bool boosted = st.isBoosted();
    if (now - h.startMs >= loadBalance_.windowMs) {
      if (boosted && h.reads < LoadBalancePolicy::kDemoteReads) {
        pendingDemotions_.push_back(label);
      }
      h.startMs = now;
      h.reads = 0;
    }
    ++h.reads;
    if (!boosted && h.reads == loadBalance_.promoteReads &&
        boosted_.size() < loadBalance_.maxHotLeaves) {
      pendingPromotions_.push_back(label);
    }
  }

  static bool holdsCopy(const Entry& entry, RingId vnode) {
    return std::find_if(entry.copies.begin(), entry.copies.end(),
                        [&](const CopyTarget& t) {
                          return t.holder == vnode;
                        }) != entry.copies.end();
  }

  /// The one copy-shipping loop, shared by repair, promotion and
  /// re-homing: recomputes the copy set on the current ring, ships the
  /// full bucket (from `source`) to every wanted holder that lacks a
  /// copy — a copy on a `dead` vnode counts as missing — and installs
  /// the fresh set on the entry.  Returns true when at least one copy
  /// had to be shipped.
  bool ensureReplicated(const Label& label, std::uint32_t slot,
                        RingId source, std::span<const RingId> dead = {}) {
    std::vector<CopyTarget> want = copyTargets(label);
    const Entry& entry = *labels_[slot].entry;
    bool shipped = false;
    for (const CopyTarget& t : want) {
      if (!holdsCopy(entry, t.holder) ||
          std::find(dead.begin(), dead.end(), t.holder) != dead.end()) {
        net_->shipPayload(source, t.holder, entry.bucket.byteSize(),
                          entry.bucket.recordCount());
        shipped = true;
      }
    }
    installCopies(slot, std::move(want));
    return shipped;
  }

  /// The one replica fan-out: a fire-and-forget kPut envelope to every
  /// non-primary copy, plus its payload (`bytes`, `records`) shipped from
  /// `source`.  Each envelope is a copy of `full` (asyncPut's body and
  /// round) when given, else carries the label alone at the default
  /// round; the fault model draws each attempt's loss from that content.
  void pushToReplicas(RingId source, const Label& label,
                      const std::vector<CopyTarget>& copies,
                      std::size_t bytes, std::size_t records,
                      const mlight::dht::RpcEnvelope* full = nullptr) {
    for (std::size_t i = 1; i < copies.size(); ++i) {
      mlight::dht::RpcEnvelope env;
      if (full != nullptr) {
        env = *full;
      } else {
        mlight::common::Writer body(net_->acquireBuffer());
        body.writeBitString(label);
        env.kind = mlight::dht::RpcKind::kPut;
        env.from = source;
        env.payload = std::move(body).take();
      }
      net_->sendRpc(ringKey(label, copies[i].salt), std::move(env),
                    [](const mlight::dht::RpcDelivery&) {});
      net_->shipPayload(source, copies[i].holder, bytes, records);
    }
  }

  /// The one mourning routine: `slot`'s bucket is stored nowhere (every
  /// holder crashed, or its put dead-lettered), so reads of the label
  /// fail instead of answering NULL until something re-places it.
  void mourn(std::uint32_t slot) {
    dropEntry(slot);
    LabelState& st = labels_[slot];
    if (!st.mourned) {
      st.mourned = true;
      ++mournedCount_;
    }
    // A mourned label will never be probed through the cache again
    // (reads fail fast); dropping its memoized ring keys keeps the
    // cache from growing without bound across churn epochs.
    if (st.memo) {
      st.memo = false;
      st.saltKeys = {};
      --ringKeysMemoized_;
    }
    ++lostBuckets_;
  }

  /// The one entry-drop path (erase and mourning): `slot` keeps no
  /// bucket, no under-replication flag (nothing stored to be degraded)
  /// and no boost (the label is never read again, so no demotion would
  /// ever free it; that is not a demotion).
  void dropEntry(std::uint32_t slot) {
    LabelState& st = labels_[slot];
    if (st.entry != nullptr) {
      st.entry.reset();
      --entryCount_;
      ++copyEpoch_;
    }
    clearUnderReplicated(st);
    releaseBoost(slot);
  }

  /// Level-triggered under-replication bookkeeping, updated by
  /// installCopies: a short set flags the label (idempotent —
  /// re-degrading never double-counts), a full set clears it, and when
  /// the last degraded label recovers the one-time warning latch resets
  /// so a *new* degradation epoch warns again.
  void noteCopyHealth(std::uint32_t slot) {
    LabelState& st = labels_[slot];
    if (st.entry->copies.size() < replication_) {
      if (!st.underReplicated) {
        st.underReplicated = true;
        ++underReplicatedCount_;
      }
      return;
    }
    clearUnderReplicated(st);
  }

  /// Unflags a degraded label; when the last one goes, the one-time
  /// warning latch resets so a new degradation epoch warns again.
  void clearUnderReplicated(LabelState& st) {
    if (!st.underReplicated) return;
    st.underReplicated = false;
    if (--underReplicatedCount_ == 0) warnedUnderReplicated_ = false;
  }

  /// Frames a committed kPlace record in the applying peer's WAL (no-op
  /// without an attached WalSet).
  void walAppendPlace(RingId atVnode, const Label& label,
                      std::span<const std::uint8_t> image) {
    if (wal_ == nullptr) return;
    wal_->forPeer(net_->physicalNameOf(atVnode))
        .appendCommitted(mlight::wal::FrameKind::kPlace, label, image);
  }

  /// Failover bookkeeping shared by the attempts of one logical access:
  /// which holders already missed (or went dark), and the copy-target
  /// list (resolved lazily — the fault-free fast path never computes
  /// it).  States live in a store-owned pool and are named by index, so
  /// the network's handler and dead-letter closures capture {this,
  /// index} and fit std::function's inline buffer: an access allocates
  /// nothing once the pool and the states' vectors have warmed up.
  struct AccessState {
    mlight::dht::RpcKind kind{};
    Label label;
    /// Opaque bytes appended after the label (a kBatchPut's record
    /// group); empty for every other kind.  Kept in the state so
    /// failover retransmits carry the same wire body as the original
    /// attempt.
    std::vector<std::uint8_t> extra;
    VisitFn fn;
    std::vector<RingId> tried;
    std::vector<CopyTarget> targets;
    bool failedOver = false;
    bool live = false;
  };

  std::uint32_t acquireAccessState() {
    std::uint32_t at;
    if (freeAccessStates_.empty()) {
      at = static_cast<std::uint32_t>(accessStates_.size());
      accessStates_.emplace_back();
    } else {
      at = freeAccessStates_.back();
      freeAccessStates_.pop_back();
    }
    accessStates_[at].live = true;
    return at;
  }

  /// Resolves access `at`: returns its continuation and puts the state
  /// back on the free list (capacities kept).  The caller runs the
  /// continuation afterwards, so follow-up accesses it issues may reuse
  /// this very state.
  VisitFn releaseAccessState(std::uint32_t at) {
    AccessState& state = accessStates_[at];
    VisitFn fn = std::move(state.fn);
    state.fn = nullptr;
    state.extra.clear();
    state.tried.clear();
    state.targets.clear();
    state.failedOver = false;
    state.live = false;
    freeAccessStates_.push_back(at);
    return fn;
  }

  /// Sends one attempt of access `at` toward the holder of copy `salt`.
  void issueAccess(std::uint32_t at, RingId initiator, std::uint32_t round,
                   std::size_t salt) {
    const AccessState& state = accessStates_[at];
    mlight::common::Writer body(net_->acquireBuffer());
    body.writeBitString(state.label);
    if (!state.extra.empty()) body.writeBytes(state.extra);
    mlight::dht::RpcEnvelope env;
    env.kind = state.kind;
    env.from = initiator;
    env.round = round;
    env.payload = std::move(body).take();
    net_->sendRpc(
        ringKey(state.label, salt), std::move(env),
        [this, at](const mlight::dht::RpcDelivery& d) {
          onAccessDelivered(at, d);
        },
        [this, at](const mlight::dht::RpcEnvelope& deadEnv,
                   std::size_t /*attempts*/) {
          // The target never answered despite retries (dead letter):
          // treat it as unreachable and fail over from the initiator.
          MLIGHT_CHECK(accessStates_[at].live,
                       "dead letter of a resolved access");
          accessStates_[at].tried.push_back(deadEnv.to);
          failoverNext(at, deadEnv.from, deadEnv.round + 1);
        });
  }

  /// The owner-side access handler: the label travels in the envelope;
  /// the handler re-reads it from the payload and resolves the bucket in
  /// owner-side state at delivery time (see asyncAccess for failover).
  void onAccessDelivered(std::uint32_t at, const mlight::dht::RpcDelivery& d) {
    MLIGHT_CHECK(accessStates_[at].live, "delivery of a resolved access");
    mlight::common::Reader r(d.env.payload);
    const Label wireLabel = r.readBitString();
    const std::uint32_t slot = labels_.find(wireLabel);
    Entry* entry = slot == kNoSlot ? nullptr : labels_[slot].entry.get();
    if (entry == nullptr) {
      if (slot != kNoSlot && labels_[slot].mourned) {
        // Every copy died with its holders: nobody can answer.
        ++failedReads_;
        releaseAccessState(at);
        return;
      }
      // Authoritative NULL: the key was never stored.
      releaseAccessState(at)(nullptr, d);
      return;
    }
    if (!holdsCopy(*entry, d.route.owner)) {
      // The owner of this salted key holds no copy (a crash moved
      // ownership before repair caught up): fail over to the next
      // holder, forwarding from this peer one round deeper.
      accessStates_[at].tried.push_back(d.route.owner);
      failoverNext(at, d.route.owner, d.env.round + 1);
      return;
    }
    if (accessStates_[at].failedOver) {
      ++failoverReads_;
      if (ensureReplicated(wireLabel, slot, d.route.owner)) {
        ++readRepairs_;
      }
    }
    if (isRead(accessStates_[at].kind)) noteHeat(wireLabel, slot);
    releaseAccessState(at)(&entry->bucket, d);
  }

  void failoverNext(std::uint32_t at, RingId from, std::uint32_t round) {
    AccessState& state = accessStates_[at];
    state.failedOver = true;
    if (state.targets.empty()) state.targets = copyTargets(state.label);
    for (const CopyTarget& t : state.targets) {
      if (std::find(state.tried.begin(), state.tried.end(), t.holder) !=
          state.tried.end()) {
        continue;
      }
      issueAccess(at, from, round, t.salt);
      return;
    }
    ++failedReads_;  // every candidate holder missed or went dark
    releaseAccessState(at);
  }

  void onMembershipChange(
      const mlight::dht::Network::MembershipChange& change) {
    using Kind = mlight::dht::Network::MembershipChange::Kind;
    const auto isDead = [&](RingId id) {
      return std::find(change.removedVnodes.begin(),
                       change.removedVnodes.end(),
                       id) != change.removedVnodes.end();
    };

    // Walk a sorted slot list, not the table: the loop feeds metered
    // repair traffic and (under kEager) replica fan-out, and the mourned
    // set below feeds failed-read accounting — none of which may depend
    // on table layout (determinism contract, docs/THEORY.md).
    ++copyEpoch_;  // the vnode→physical map moved under every route
    std::vector<std::uint32_t> lost;
    for (const std::uint32_t slot : sortedSlots(&LabelState::hasEntry)) {
      const Label label = labels_.label(slot);
      Entry& entry = *labels_[slot].entry;
      RingId source = entry.copies[0].holder;
      if (change.kind == Kind::kCrash) {
        // A crash destroys the copies the dead peer held; the bucket
        // survives iff some holder is still alive and becomes the
        // repair source.
        bool survived = false;
        for (const CopyTarget& copy : entry.copies) {
          if (!isDead(copy.holder)) {
            survived = true;
            source = copy.holder;
            break;
          }
        }
        if (!survived) {
          lost.push_back(slot);
          continue;
        }
        if (repair_ == RepairPolicy::kOnRead) {
          // Deferred repair: drop the dead copies and leave the bucket
          // degraded — the first read that misses at the new owner
          // fails over to a survivor and read-repairs it.
          std::vector<CopyTarget> alive = entry.copies;
          std::erase_if(alive, [&](const CopyTarget& copy) {
            return isDead(copy.holder);
          });
          installCopies(slot, std::move(alive));
          continue;
        }
        if (isDead(entry.copies[0].holder)) ++repairedBuckets_;
      }
      // Bring every copy to the peers now responsible on the new ring,
      // shipping from the (surviving) source.
      ensureReplicated(label, slot, source, change.removedVnodes);
    }
    for (const std::uint32_t slot : lost) mourn(slot);
  }

  mlight::dht::Network* net_;
  std::string ns_;
  std::size_t replication_ = 1;
  RepairPolicy repair_ = RepairPolicy::kEager;

  std::uint64_t storeHandle_ = 0;
  std::size_t lostBuckets_ = 0;
  std::size_t repairedBuckets_ = 0;
  std::size_t failedReads_ = 0;
  std::size_t failoverReads_ = 0;
  std::size_t readRepairs_ = 0;
  mutable std::size_t underReplicated_ = 0;
  mutable bool warnedUnderReplicated_ = false;
  mlight::wal::WalSet* wal_ = nullptr;
  // --- Query-load balancing state (all empty when disabled) -----------
  LoadBalancePolicy loadBalance_;
  /// The boosted labels, at most maxHotLeaves, in no particular order
  /// (every order-sensitive walk sorts by label).
  std::vector<Boost> boosted_;
  /// Decisions queued by noteHeat (handler context), applied by
  /// drainLoadBalance (quiescence) in sorted order.
  std::vector<Label> pendingPromotions_;
  std::vector<Label> pendingDemotions_;
  std::uint64_t hotPromotions_ = 0;
  std::uint64_t hotDemotions_ = 0;
  /// Bumped whenever a copy set is installed, a bucket is erased, or
  /// membership changes — the events that can move a frozen read route
  /// other than its winner's load (see refreshReadRouting).
  std::uint64_t copyEpoch_ = 0;
  std::uint64_t skippedReadRoutes_ = 0;
  // --- Label-keyed state: one directory, one LabelState per slot -------
  // Mutable because ringKey() memoizes (it is a pure function of the
  // label).  Inserting a label may move LabelStates (never Entries), so
  // no LabelState reference is held across a call that can insert.
  mutable mlight::common::LabelTable<LabelState> labels_;
  mutable std::size_t ringKeysMemoized_ = 0;
  std::size_t entryCount_ = 0;
  std::size_t heatCount_ = 0;
  std::size_t mournedCount_ = 0;
  std::size_t underReplicatedCount_ = 0;
  /// Scratch for computeRingKey() — reused so uncached key derivations
  /// allocate nothing in steady state.
  mutable std::string keyScratch_;
  /// The access-state pool (see AccessState) and its free list.
  std::vector<AccessState> accessStates_;
  std::vector<std::uint32_t> freeAccessStates_;
};

}  // namespace mlight::store
