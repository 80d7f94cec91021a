// m-LIGHT: multi-dimensional Lightweight Hash Tree over a DHT.
//
// Public entry point of the library: implements the full index of the
// paper — space kd-tree decomposition into leaf buckets (§3.3), the
// m-dimensional naming function placement (§3.4), incremental tree
// maintenance with threshold or data-aware splitting (§4), binary-search
// lookup (§5), and recursive-forwarding range queries with the optional
// parallel lookahead variant (§6).
//
// All DHT traffic flows through the shared dht::Network so costs are
// metered in the paper's units (DHT-lookups, rounds, payload moved).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hint_cache.h"
#include "common/bitstring.h"
#include "common/digest.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "dht/network.h"
#include "index/index_base.h"
#include "index/prefix_locate.h"
#include "index/region.h"
#include "mlight/bucket.h"
#include "mlight/split.h"
#include "store/distributed_store.h"
#include "wal/wal.h"

namespace mlight::core {

struct MLightConfig {
  std::size_t dims = 2;
  /// Maximum edge depth D of the index tree (paper §5; §7 uses D = 28).
  std::size_t maxEdgeDepth = 28;
  SplitStrategy strategy = SplitStrategy::kThreshold;
  std::size_t thetaSplit = 100;
  /// Merge when two sibling leaves hold fewer than this many records
  /// combined (θ_merge < θ_split for split/merge consistency).
  std::size_t thetaMerge = 50;
  /// Expected per-bucket load ε for the data-aware strategy.
  double epsilon = 70.0;
  /// Range-query lookahead h (§6): 1 = basic algorithm; h >= 2 forwards up
  /// to h speculative subqueries per branch node, trading bandwidth for
  /// latency.
  std::size_t lookahead = 1;
  /// Total copies of every bucket in the DHT (1 = no replication).
  /// Replication multiplies maintenance traffic but lets the index
  /// survive peer *crashes* (ungraceful departures) — see
  /// store::DistributedStore.
  std::size_t replication = 1;
  /// When crash repair runs: eagerly at the membership change (default)
  /// or deferred to the first read that fails over to a surviving
  /// replica (read-repair) — see store::RepairPolicy.
  mlight::store::RepairPolicy repair = mlight::store::RepairPolicy::kEager;
  /// Seed for initiator-peer choices (determinism).
  std::uint64_t seed = 42;
  /// Namespace for this index's keys in the shared DHT key space.
  std::string dhtNamespace = "mlight/";
  /// Durable write path: when true the index owns a per-peer write-ahead
  /// log set (src/wal) — every bucket placement and every acknowledged
  /// insert batch applied at a peer is framed into that peer's log, and
  /// recoverFromWal() replays a crashed peer's acknowledged writes after
  /// it rejoins under the same name.  Off by default; the off path is
  /// bit-identical to a build without the WAL.
  bool wal = false;
  /// Per-peer label-hint cache (src/cache): with `cache.enabled` every
  /// point operation first probes the last leaf observed for the query's
  /// cell (1 DHT-lookup on a hit) and falls back to the §5 binary
  /// search, seeded from the hint, when the hint went stale.  Disabled
  /// by default (unless MLIGHT_CACHE is set) — the disabled path is
  /// bit-identical to a build without the cache.
  mlight::cache::CachePolicy cache;
  /// Query-load balancing (src/store LoadBalancePolicy): with
  /// `loadBalance.enabled` the store promotes read-hot leaves to extra
  /// replicas and point/range reads route to the least-loaded live copy
  /// (hints carry the replica set; range probes use the store's frozen
  /// read routes).  Disabled by default — the off path is byte-identical
  /// to a build without the subsystem.
  mlight::store::LoadBalancePolicy loadBalance;
};

class MLightIndex final : public mlight::index::IndexBase {
 public:
  using Label = mlight::common::BitString;
  using Point = mlight::common::Point;
  using Rect = mlight::common::Rect;
  using Record = mlight::index::Record;

  MLightIndex(mlight::dht::Network& net, MLightConfig config);

  // --- IndexBase -------------------------------------------------------
  void insert(const Record& record) override;

  /// Bulk-loads an *empty* index: the initiating peer partitions the
  /// whole batch locally into the final leaf layout (using the
  /// configured splitting strategy) and issues one DHT-put per bucket —
  /// O(#buckets) DHT-lookups instead of O(N log D), and every record
  /// crosses the wire exactly once instead of being re-shipped by later
  /// splits.  Throws std::logic_error if the index already holds data.
  void bulkLoad(std::span<const Record> records);
  /// Batched durable insert path (ROADMAP item 5): splits `records` into
  /// chunks of `batchSize`, and within each chunk groups records by
  /// destination leaf — the first record of a group pays the §5 locate
  /// (through the hint cache), every other member joins by a local
  /// prefix test, and a call-local memo of located leaves carries over
  /// between chunks so a leaf is located once per call, not once per
  /// chunk (stale memo entries are detected by the owner-side apply and
  /// re-located, never silently dropped) — then ships each group as ONE
  /// pooled kBatchPut envelope.  The owner-side apply dedups by (id, key) so a replayed
  /// group is idempotent, appends the fresh records, runs ONE split-
  /// planning pass for the whole group (a single data-aware plan instead
  /// of N sequential per-record splits), propagates the delta to
  /// replicas, and — with the WAL enabled — frames the applied group in
  /// the owner's log, committing the frame exactly when the batch is
  /// acknowledged.  Records whose group ultimately fails (unreachable
  /// leaf, exhausted retries) count into failedInserts() and are NOT
  /// acknowledged.
  struct BatchResult {
    std::size_t acked = 0;    ///< records applied and acknowledged
    std::size_t failed = 0;   ///< records abandoned (never acknowledged)
    std::size_t groups = 0;   ///< kBatchPut envelopes issued
    std::size_t batches = 0;  ///< client-side chunks processed
  };
  BatchResult insertBatched(std::span<const Record> records,
                            std::size_t batchSize = 64,
                            std::vector<std::uint64_t>* ackedIds = nullptr);

  /// Crash recovery for the durable write path: scans the committed
  /// frames of `peerName`'s WAL (the peer must have rejoined the overlay
  /// — same name, hence same ring positions — as `rejoined`), rebuilds
  /// the last acknowledged state of every bucket the log covers (kPlace
  /// snapshots superseded by later kBatch appends, deduped by id), and
  /// re-places exactly the buckets the crash actually lost (mourned
  /// keys) in sorted key order.  Surviving buckets are left to the
  /// replica-repair machinery — replaying them would resurrect stale
  /// content.  Idempotent: a second replay finds nothing mourned and
  /// restores nothing.  Recovery traffic is metered like any placement;
  /// `ms` is the simulated time the replay took.
  struct RecoveryStats {
    std::size_t framesScanned = 0;
    std::size_t bucketsRestored = 0;
    std::size_t recordsRestored = 0;
    double ms = 0.0;
  };
  RecoveryStats recoverFromWal(std::string_view peerName,
                               mlight::dht::RingId rejoined);

  /// The write-ahead log set (nullptr unless config.wal) — test/bench
  /// hook: benches read per-peer frame counts, tests inject torn tails.
  mlight::wal::WalSet* walSet() noexcept { return wal_.get(); }
  const mlight::wal::WalSet* walSet() const noexcept { return wal_.get(); }

  std::size_t erase(const Point& key, std::uint64_t id) override;
  mlight::index::RangeResult rangeQuery(const Rect& range) override;
  mlight::index::PointResult pointQuery(const Point& key) override;
  std::size_t size() const override { return size_; }

  // --- m-LIGHT-specific operations -------------------------------------

  /// The lookup operation of §5: returns the label of the leaf bucket
  /// covering δ plus the cost of the binary search.
  struct LookupResult {
    Label leaf;
    mlight::index::QueryStats stats;
  };
  LookupResult lookup(const Point& key);

  /// Range query over an arbitrarily shaped region (§6: "the queried
  /// region can be of an arbitrary shape") — forwarding prunes on the
  /// region's cell-overlap test, results filter on exact containment.
  /// rangeQuery(Rect) is the RectRegion special case.
  mlight::index::RangeResult regionQuery(
      const mlight::index::QueryRegion& region);

  /// Aggregate range query: COUNT of records in `range` without shipping
  /// the records themselves back to the initiator — same DHT-lookups as
  /// rangeQuery, but the result traffic is a fixed few bytes per visited
  /// bucket instead of the full payload.
  struct CountResult {
    std::size_t count = 0;
    mlight::index::QueryStats stats;
  };
  CountResult rangeCount(const Rect& range);

  /// k-nearest-neighbour query (extension beyond the paper, built on the
  /// index's own primitives): finds the k records closest to `q` in
  /// Euclidean distance by expanding-range search — start from the leaf
  /// covering q, then grow a box until the k-th candidate's distance is
  /// certified.  Ties broken by record id.  Cost includes every range
  /// probe issued along the way.
  struct KnnResult {
    std::vector<Record> records;  ///< up to k records, nearest first
    mlight::index::QueryStats stats;
  };
  KnnResult knnQuery(const Point& q, std::size_t k);

  /// Linear-probing lookup used only by the lookup ablation benchmark:
  /// probes candidate prefixes top-down (deduplicating consecutive
  /// candidates that share a name) instead of binary searching.
  LookupResult lookupLinear(const Point& key);

  /// Logical maintenance traffic breakdown (counted even when a bucket
  /// happens to land on the same peer, unlike the network meter, so the
  /// ablation numbers do not depend on hashing luck).
  const mlight::index::MaintenanceBreakdown& maintenanceBreakdown()
      const noexcept {
    return breakdown_;
  }

  /// Adjusts the range-query lookahead h at runtime (benchmarks sweep h
  /// over one loaded index instead of rebuilding per variant).
  void setLookahead(std::size_t h) noexcept { config_.lookahead = h; }

  /// One probe of a lookup or range query, in issue order (the key is
  /// f_md of the probed node).  Rounds start at 1; sequential
  /// binary-search probes each get their own round.
  using TraceEvent = mlight::index::TraceEvent;

  /// Installs a probe trace sink (nullptr to disable).  Used by tests to
  /// verify the paper's worked probe sequences and by the shell's
  /// `trace` mode; negligible overhead when disabled.
  void setTracer(std::vector<TraceEvent>* sink) noexcept { trace_ = sink; }

  // --- introspection (tests, benchmarks) -------------------------------
  const MLightConfig& config() const noexcept { return config_; }
  std::size_t bucketCount() const noexcept { return store_.bucketCount(); }
  std::size_t emptyBucketCount() const;

  /// Inserts abandoned because the target leaf (or a probe on the way to
  /// it) was unreachable — crash loss with too little replication, or
  /// every RPC retry exhausted under fault injection.  Always 0 in a
  /// fault-free run.
  std::size_t failedInserts() const noexcept { return failedInserts_; }

  /// Deepest leaf currently in the tree (edge depth; global scan — a
  /// simulator-only convenience).
  std::size_t treeDepth() const;

  /// §5's distributed D estimation: "the maximum possible height of the
  /// index tree ... can be estimated by apriori knowledge or by probing
  /// certain values before query processing [8], [11]".  Performs
  /// `samples` lookups of random points (normal metered DHT traffic) and
  /// returns the deepest leaf seen plus `headroom` levels of slack — a
  /// working upper bound a client can use as its D.
  std::size_t estimateDepthByProbing(std::size_t samples,
                                     std::size_t headroom = 4);

  /// Invariant check (test hook): every bucket is stored under
  /// key == f_md(label), labels tile the space, record keys lie inside
  /// their leaf region.  Aborts via assertion text on violation.
  void checkInvariants() const;

  /// Test/bench hook: replaces the current (empty) index with exactly the
  /// given tree shape — `leaves` must be the leaf set of a full binary
  /// space kd-tree (validated).  Used to reproduce the paper's worked
  /// examples (§5 lookup trace, §6 range trace) against the exact trees
  /// of Figs 1 and 4.  Precondition: size() == 0.
  void installTreeForTesting(const std::vector<Label>& leaves);

  const mlight::store::DistributedStore<LeafBucket>& store() const noexcept {
    return store_;
  }

  /// The per-peer hint caches (test/bench hook: poisoned-hint negative
  /// tests inject wrong labels here; benches read hint counts).
  mlight::cache::HintCacheSet& hintCaches() noexcept { return hintCaches_; }

  /// Digest of every simulation-visible fact of this index: record
  /// count, failure/maintenance counters, the full bucket store (sorted
  /// labels, serialized buckets, replica placements), and the hint
  /// caches.  The schedule-perturbation suite asserts this value is
  /// bit-identical across tie-break shuffle seeds (determinism
  /// contract, docs/THEORY.md).
  std::uint64_t stateDigest() const {
    mlight::common::Digest d;
    d.feed(size_);
    d.feed(failedInserts_);
    breakdown_.digestTo(d);
    store_.digestState(d);
    hintCaches_.digestState(d);
    if (wal_ != nullptr) wal_->digestState(d);
    return d.value();
  }

 private:
  using Located = mlight::index::Located;

  /// Point location: the §5 search (index/prefix_locate.h, through the
  /// hint cache when enabled) over edge depths [0, min(D, hiCap)].
  /// `hiCap` bounds the initial upper edge-depth when the caller already
  /// knows the leaf is shallow (the range query's NULL-at-LCA fallback);
  /// `roundBase` is the RPC round of the first probe.
  Located locate(mlight::dht::RingId initiator, const Point& p,
                 std::size_t hiCap = static_cast<std::size_t>(-1),
                 std::uint32_t roundBase = 1);

  mlight::dht::RingId randomPeer();

  void thresholdSplitLoop(Label key);
  void dataAwareAdjust(const Label& key);
  void thresholdMergeLoop(Label key);

  /// One range-query forwarding step (Algorithm 3 body).
  struct Task {
    Rect range;
    Rect cell;       ///< region of `target`, threaded down by Rect::halved
    Label target;    ///< node whose f_md key is probed (may be speculative)
    Label fallback;  ///< in-tree node to re-probe if speculation missed
    mlight::dht::RingId source;
    /// Edge depth of the last leaf seen on this chain: speculative pieces
    /// never descend past depthHint - 1, which keeps overshoots (wasted
    /// rounds) rare on trees of roughly uniform local depth.
    std::size_t depthHint = 0;
  };
  /// Consecutive records of one owner bucket that belong to an answer.
  struct HarvestRun {
    const Record* first;
    std::size_t n;
  };
  /// One visited bucket's share of an answer: its runs end at `runEnd`
  /// (they start where the previous bucket's ended), and `data`/`size`
  /// snapshot its storage for the paranoid stable-storage audit.
  struct Harvested {
    const LeafBucket* bucket;
    const Record* data;
    std::size_t size;
    mlight::dht::RingId owner;
    std::size_t runEnd;
  };
  /// A speculative piece of a forwarded subrange (parallel variant).
  struct Piece {
    Rect range;
    Rect cell;
    Label node;
  };
  /// Storage the range cascade reuses from query to query: cleared at
  /// the start of each query, capacities kept, so a warmed-up cascade
  /// allocates nothing but its answer.
  struct RangeScratch {
    std::vector<Task> tasks;  ///< the query's task arena
    std::vector<HarvestRun> runs;
    std::vector<Harvested> harvested;
    std::vector<Piece> kept;
    std::vector<Piece> queue;
    std::vector<Label> learned;
  };
  /// One query's cascade (index_query.cpp).
  struct RangeCascade;

  /// Shared engine behind regionQuery/rangeCount: when `collectRecords`
  /// is false only counts flow back (8 bytes per visited bucket).
  mlight::index::RangeResult regionQueryCore(
      const mlight::index::QueryRegion& region, bool collectRecords,
      std::size_t& countOut);

  mlight::dht::Network* net_;
  MLightConfig config_;
  /// Owned here, attached to the store: models the peers' disks, so it
  /// must survive simulated crashes of the peers it logs.
  std::unique_ptr<mlight::wal::WalSet> wal_;
  mlight::store::DistributedStore<LeafBucket> store_;
  mlight::common::Rng rng_;
  mlight::cache::HintCacheSet hintCaches_;
  std::size_t failedInserts_ = 0;
  mlight::index::MaintenanceBreakdown breakdown_;
  std::vector<TraceEvent>* trace_ = nullptr;
  std::size_t size_ = 0;
  RangeScratch rangeScratch_;
};

}  // namespace mlight::core
