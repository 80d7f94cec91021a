// Batched durable write path (ROADMAP item 5).
//
// insertBatched: the client-side batcher.  One chunk = one initiating
// peer; records group per destination leaf (the first member pays the §5
// locate through the hint cache, the rest join by a local prefix test),
// and each group crosses the DHT as ONE pooled kBatchPut envelope — the
// per-record envelope overhead that dominates BM_MLightInsert is paid
// once per group.  Across chunks of the same call, located leaves are
// remembered in a client-side memo: later chunks hitting the same leaf
// skip the locate entirely, and a stale memo entry (the leaf split since
// it was located) is detected by the owner-side apply and re-queued for
// a real locate — never silently dropped.
//
// The owner-side apply dedups, appends, runs one group split-planning
// pass, and frames the applied records in the owner's write-ahead log;
// the frame commits exactly when the batch is acknowledged to the
// caller.
//
// recoverFromWal: the other half of durability.  A crashed peer that
// rejoins under its old name (hence the same ring positions) replays its
// committed frames and re-places exactly the buckets the crash lost —
// acknowledged batched writes survive an owner crash even at R = 1.

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/invariants.h"
#include "mlight/index.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"

namespace mlight::core {

namespace {

bool holdsRecord(const std::vector<mlight::index::Record>& records,
                 const mlight::index::Record& r) {
  return std::find_if(records.begin(), records.end(),
                      [&](const mlight::index::Record& have) {
                        return have.id == r.id && have.key == r.key;
                      }) != records.end();
}

}  // namespace

MLightIndex::BatchResult MLightIndex::insertBatched(
    std::span<const Record> records, std::size_t batchSize,
    std::vector<std::uint64_t>* ackedIds) {
  MLIGHT_CHECK(batchSize > 0, "insertBatched: batchSize must be positive");
  const std::size_t m = config_.dims;
  for (const Record& r : records) {
    mlight::index::requireIndexableKey(r.key, m, "insertBatched");
  }
  BatchResult out;

  struct Group {
    Located loc;
    std::vector<const Record*> recs;
    /// Full tree path of each record, parallel to `recs` — computed once
    /// in the grouping phase and reused for the apply-time coverage
    /// check (building a D*m-bit label is the single most expensive
    /// per-record host operation on this path).
    std::vector<Label> fulls;
    /// True when `loc` came from the cross-chunk memo instead of a real
    /// locate: a missing bucket then means "stale memo" (the leaf split
    /// since it was located), and the group is re-queued for a real
    /// locate instead of being failed.
    bool fromMemo = false;
  };

  // Cross-chunk locate memo.  The whole call shares one worklist of
  // destination leaves: once a leaf is located, every later chunk that
  // touches it pays a local prefix test instead of a §5 binary search
  // (the dominant per-group cost).  Entries are only ever hints — the
  // owner-side apply re-validates coverage, so a stale entry costs one
  // extra round trip, never correctness.  Bounded and scanned newest-
  // first so a deep tree cannot turn the memo itself into a linear-scan
  // tax.
  constexpr std::size_t kMemoCap = 128;
  std::vector<Located> memo;
  const auto memoEvict = [&memo](const Label& leaf) {
    std::erase_if(memo, [&](const Located& e) { return e.leaf == leaf; });
  };
  const auto memoRemember = [&memo, kMemoCap](const Located& loc) {
    for (const Located& e : memo) {
      if (e.leaf == loc.leaf) return;  // already known
    }
    if (memo.size() == kMemoCap) memo.erase(memo.begin());
    memo.push_back(loc);
  };

  for (std::size_t base = 0; base < records.size(); base += batchSize) {
    const std::size_t chunkEnd = std::min(records.size(), base + batchSize);
    ++out.batches;
    const auto initiator = randomPeer();

    std::vector<const Record*> pending;
    pending.reserve(chunkEnd - base);
    for (std::size_t i = base; i < chunkEnd; ++i) {
      pending.push_back(&records[i]);
    }

    // A group applied earlier in the chunk can split the leaf a later
    // group was located at; records the split moved out of the located
    // leaf are re-queued and re-located next round, so the worklist
    // shrinks by at least the covered records of one group per round.
    // The round bound is a safety valve against pathological ping-pong,
    // not a budget any sane workload reaches.
    for (std::size_t round = 0; round < 32 && !pending.empty(); ++round) {
      // Phase 1 — group the worklist per destination leaf: one locate
      // per distinct leaf, local prefix tests for the rest.
      std::vector<Group> groups;
      std::vector<const Record*> failed;
      for (const Record* r : pending) {
        Label full = pointPathLabel(r->key, m, config_.maxEdgeDepth);
        bool joined = false;
        for (Group& g : groups) {
          if (g.loc.leaf.isPrefixOf(full)) {
            g.recs.push_back(r);
            g.fulls.push_back(std::move(full));
            joined = true;
            break;
          }
        }
        if (joined) continue;
        // Memo hit: a leaf located by an earlier chunk (or round) covers
        // this record — skip the binary search.  Newest-first: recent
        // locates reflect the current tree best.
        bool fromMemo = false;
        Located loc;
        for (auto it = memo.rbegin(); it != memo.rend(); ++it) {
          if (it->leaf.isPrefixOf(full)) {
            loc = *it;
            fromMemo = true;
            break;
          }
        }
        if (!fromMemo) {
          loc = locate(initiator, r->key);
          if (loc.failed) {
            // Unreachable leaf (crash loss / exhausted retries): the
            // record is not inserted and never acknowledged.
            failed.push_back(r);
            continue;
          }
          memoRemember(loc);
        }
        groups.push_back(Group{std::move(loc), {r}, {std::move(full)},
                               fromMemo});
      }
      pending.clear();
      failedInserts_ += failed.size();
      out.failed += failed.size();

      // Phase 2 — one kBatchPut per group.
      for (Group& g : groups) {
        ++out.groups;
        // Assemble the group payload in a pooled buffer: u32 count +
        // records — the bytes that would have been N separate puts.
        mlight::common::Writer groupWire(net_->acquireBuffer());
        groupWire.writeU32(static_cast<std::uint32_t>(g.recs.size()));
        std::size_t groupBytes = 0;
        for (const Record* r : g.recs) {
          r->serialize(groupWire);
          groupBytes += r->byteSize();
        }

        bool answered = false;
        bool present = false;
        mlight::dht::RingId answeredBy{};
        std::vector<Record> wireRecs;
        store_.asyncAccess(
            mlight::dht::RpcKind::kBatchPut, initiator, g.loc.key,
            /*round=*/1,
            [&](LeafBucket* bucket, const mlight::dht::RpcDelivery& d) {
              answered = true;
              present = bucket != nullptr;
              answeredBy = d.route.owner;
              if (bucket == nullptr) return;
              // Decode the group from the delivered payload (past the
              // leading label) — the apply below works from the bytes
              // the envelope carried, like every other handler.
              mlight::common::Reader r(d.env.payload);
              r.readBitString();
              mlight::common::Reader body(r.readBytesView());
              const std::uint32_t n = body.readCount(16);
              wireRecs.reserve(n);
              for (std::uint32_t k = 0; k < n; ++k) {
                wireRecs.push_back(Record::deserialize(body));
              }
            },
            std::move(groupWire).take());
        net_->run();

        LeafBucket* bucket =
            answered && present ? store_.peek(g.loc.key) : nullptr;
        if (bucket == nullptr) {
          if (g.fromMemo) {
            // Stale memo: the leaf split (or moved) since it was
            // located.  Evict the hint and re-queue the group for a
            // real locate next round — a memo must never turn a
            // transient staleness into a lost write.
            memoEvict(g.loc.leaf);
            pending.insert(pending.end(), g.recs.begin(), g.recs.end());
            continue;
          }
          // Dead letter on every holder, or the bucket vanished between
          // locate and delivery (crash): nothing was applied.
          failedInserts_ += g.recs.size();
          out.failed += g.recs.size();
          continue;
        }

        // Apply: records the located leaf still covers are deduped by
        // (id, key) — so a replayed or retransmitted group is idempotent
        // — and appended; records a concurrent split moved out of this
        // leaf go back to the worklist for relocation.  The wire round
        // trip preserves record order, so wireRecs[k] pairs with
        // g.recs[k]: the coverage test reuses the grouping-phase label
        // and the dedup probes an id set instead of rescanning the
        // bucket per record.
        MLIGHT_CHECK(wireRecs.size() == g.recs.size(),
                     "insertBatched: group count changed on the wire");
        // Duplicate prefilter: if the incoming id range and the bucket's
        // id range are disjoint, no (id, key) can repeat and the dedup
        // set is never built — fresh inserts (the overwhelmingly common
        // case) pay two integer min/max sweeps instead of hashing every
        // bucket record per group.
        std::uint64_t inMin = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t inMax = 0;
        for (const Record& wr : wireRecs) {
          inMin = std::min(inMin, wr.id);
          inMax = std::max(inMax, wr.id);
        }
        std::uint64_t haveMin = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t haveMax = 0;
        for (const Record& have : bucket->records()) {
          haveMin = std::min(haveMin, have.id);
          haveMax = std::max(haveMax, have.id);
        }
        const bool mayDup =
            !bucket->records().empty() && inMin <= haveMax && inMax >= haveMin;
        std::unordered_set<std::uint64_t> heldIds;
        if (mayDup) {
          heldIds.reserve(bucket->recordCount());
          for (const Record& have : bucket->records()) heldIds.insert(have.id);
        }
        std::vector<std::size_t> fresh;
        std::vector<bool> requeued(wireRecs.size(), false);
        for (std::size_t k = 0; k < wireRecs.size(); ++k) {
          const Record& wr = wireRecs[k];
          if (!bucket->label.isPrefixOf(g.fulls[k])) {
            pending.push_back(g.recs[k]);
            requeued[k] = true;
            continue;
          }
          if (mayDup && heldIds.count(wr.id) != 0 &&
              holdsRecord(bucket->records(), wr)) {
            continue;
          }
          fresh.push_back(k);
        }

        // Append-on-apply: frame what is about to be applied in the
        // answering peer's log, still uncommitted — a crash between
        // apply and acknowledgment must not replay an unacked batch.
        std::uint64_t lsn = 0;
        mlight::wal::PeerWal* log = nullptr;
        if (wal_ != nullptr && !fresh.empty()) {
          mlight::common::Writer frame(net_->acquireBuffer());
          frame.writeU32(static_cast<std::uint32_t>(fresh.size()));
          for (const std::size_t k : fresh) wireRecs[k].serialize(frame);
          log = &wal_->forPeer(net_->physicalNameOf(answeredBy));
          lsn = log->append(mlight::wal::FrameKind::kBatch, g.loc.key,
                            frame.bytes());
          net_->releaseBuffer(std::move(frame).take());
        }

        for (const std::size_t k : fresh) {
          breakdown_.insertShipBytes += wireRecs[k].byteSize();
          bucket->append(std::move(wireRecs[k]));
          ++size_;
        }
        // The group delta reaches the replicas as one update, like the
        // single-record path — but amortized over the whole group.
        store_.shipToReplicas(answeredBy, g.loc.key, groupBytes,
                              g.recs.size());

        // ONE split-planning pass for the whole group: an oversized
        // batch triggers a single data-aware plan (Algorithm 1) or one
        // threshold cascade, instead of N sequential per-record splits.
        if (config_.strategy == SplitStrategy::kThreshold) {
          thresholdSplitLoop(g.loc.key);
        } else {
          dataAwareAdjust(g.loc.key);
        }
        net_->run();
        // Refresh the memo against the post-apply, post-split tree.  A
        // split does not free the DHT key: §4 naming keeps one child on
        // the parent's key, so the key often survives with a NARROWER
        // label — repair the entry in place (same key, new leaf) so the
        // re-queued sibling records miss it and re-locate, instead of
        // ping-ponging off the stale parent entry forever.
        LeafBucket* after = store_.peek(g.loc.key);
        if (after == nullptr) {
          memoEvict(g.loc.leaf);
        } else if (after->label != g.loc.leaf) {
          memoEvict(g.loc.leaf);
          Located repaired = g.loc;
          repaired.leaf = after->label;
          memoRemember(repaired);
        }

        // Commit = acknowledgment: from here the batch must survive a
        // crash of the peer that applied it.
        if (log != nullptr) log->commit(lsn);
        std::size_t ackedHere = 0;
        for (std::size_t k = 0; k < g.recs.size(); ++k) {
          if (requeued[k]) continue;
          ++ackedHere;
          if (ackedIds != nullptr) ackedIds->push_back(g.recs[k]->id);
        }
        out.acked += ackedHere;
      }
    }
    // Safety-valve leftovers (see the round bound above): never applied,
    // never acknowledged.
    failedInserts_ += pending.size();
    out.failed += pending.size();
  }

  if (mlight::common::auditEnabled(mlight::common::AuditLevel::kParanoid)) {
    checkInvariants();
  }
  return out;
}

MLightIndex::RecoveryStats MLightIndex::recoverFromWal(
    std::string_view peerName, mlight::dht::RingId rejoined) {
  RecoveryStats out;
  if (wal_ == nullptr) return out;
  const mlight::wal::PeerWal* log = wal_->findPeer(peerName);
  if (log == nullptr) return out;
  const double t0 = net_->now();

  // Rebuild, per key, the last acknowledged state this peer durably
  // held: a kPlace frame snapshots the whole bucket (superseding every
  // earlier frame for the key); later kBatch frames append their
  // records, deduped by (id, key) so double replay is idempotent.
  std::map<Label, LeafBucket> rebuilt;
  for (const mlight::wal::Frame& f : log->scanCommitted()) {
    ++out.framesScanned;
    mlight::common::Reader r(f.payload);
    if (f.kind == mlight::wal::FrameKind::kPlace) {
      rebuilt.insert_or_assign(f.key, LeafBucket::deserialize(r));
      continue;
    }
    const auto it = rebuilt.find(f.key);
    if (it == rebuilt.end()) {
      // A batch against a bucket whose placement predates this log —
      // cannot happen when the WAL was attached from index construction
      // (every placement is framed), but a scan must not trust that.
      continue;
    }
    const std::uint32_t n = r.readCount(16);
    for (std::uint32_t k = 0; k < n; ++k) {
      Record rec = Record::deserialize(r);
      if (!holdsRecord(it->second.records(), rec)) {
        it->second.append(std::move(rec));
      }
    }
  }

  // Re-place exactly the buckets the crash actually lost: mourned keys.
  // Surviving buckets keep their replica-repaired state — replaying
  // them would resurrect stale content.  std::map iteration = sorted
  // keys (determinism contract).  The rejoined peer owns its old keys
  // again (same name → same ring positions), so most placements resolve
  // to itself and recovery traffic is dominated by the lookups.
  for (auto& [key, bucket] : rebuilt) {
    if (!store_.isMourned(key)) continue;
    ++out.bucketsRestored;
    out.recordsRestored += bucket.recordCount();
    store_.place(rejoined, key, std::move(bucket));
  }
  net_->run();
  out.ms = net_->now() - t0;
  return out;
}

}  // namespace mlight::core
