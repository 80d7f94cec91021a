// Theorem-level invariant audits (structured contracts).
//
// m-LIGHT's correctness rests on structural theorems — the naming
// bijection (Thm 2/4), corner preservation (Thm 1/3), incremental split
// (Thm 5), and variance-minimizing data-aware splits (Thm 6); see
// docs/THEORY.md.  This module turns the ad-hoc MLIGHT_CHECK spot checks
// into named, counted audit functions shared by every index backend
// (mlight, pht, dst, rst) and the store/network layers, so refactors can
// be aggressive without silently breaking the tiling/bijection contracts.
//
// Layering: this lives in mlight_common, below the indexes, so audits are
// phrased over BitString labels, Rect regions, and raw ring positions.
// Callers pass precomputed naming-function values; the audits check the
// *relations* the theorems assert.
//
// Gating: audits always execute when called.  Call sites gate expensive
// audits on the runtime level (MLIGHT_AUDIT_LEVEL environment variable,
// overridable via setAuditLevel):
//   off        — no optional audits (O(1) theorem checks stay on);
//   boundaries — audit at structural boundaries: splits, merges, bulk
//                loads, replica placement, membership changes (default);
//   paranoid   — additionally re-audit the whole structure after every
//                mutating operation (tests, fuzzing, debugging).
// Counters make audits observable: tests assert both that audits ran and
// that corruption makes them fire.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/geometry.h"

namespace mlight::common {

enum class AuditLevel : int {
  kOff = 0,
  kBoundaries = 1,
  kParanoid = 2,
};

/// Audit violations derive from CheckFailure so existing catch sites
/// keep working; the what() string names the audit that fired.
class AuditFailure : public CheckFailure {
 public:
  using CheckFailure::CheckFailure;
};

/// Current level: the programmatic override if set, else the
/// MLIGHT_AUDIT_LEVEL environment variable ("off" | "boundaries" |
/// "paranoid", or 0/1/2), else kBoundaries.
AuditLevel auditLevel() noexcept;

/// Programmatic override (tests, benchmarks); wins over the environment.
void setAuditLevel(AuditLevel level) noexcept;

const char* auditLevelName(AuditLevel level) noexcept;

/// Observability: how many audits executed, passed, failed, and how many
/// call sites were skipped because the level was below their threshold.
struct AuditCounters {
  std::uint64_t run = 0;
  std::uint64_t passed = 0;
  std::uint64_t failed = 0;
  std::uint64_t skipped = 0;
};

/// Snapshot of the process-wide counters.
AuditCounters auditCounters() noexcept;
void resetAuditCounters() noexcept;

/// Gate helper for call sites: true iff the current level enables audits
/// of the given threshold.  Counts a skip when disabled so coverage holes
/// are visible in the counters.
bool auditEnabled(AuditLevel needed) noexcept;

namespace detail {
/// Counter bookkeeping shared by every audit function: constructed on
/// entry (counts `run`), `pass()` on success; a failure path calls
/// `fail()` (counts `failed`) and throws AuditFailure.
void beginAudit() noexcept;
void passAudit() noexcept;
[[noreturn]] void failAudit(const char* audit, const std::string& detail);
}  // namespace detail

// --- Theorem 2/4: the naming function is a bijection ---------------------
//
// `leafToKey` holds (leaf label λ, DHT key f_md(λ)) for every bucket.
// Checks: every key is a proper prefix of its leaf of length >= dims
// (F1 in docs/THEORY.md) and keys are pairwise distinct (injectivity;
// onto follows by counting, |leaves| == |internal nodes incl. virtual
// root| in a full binary tree).  O(n log n).
void auditNamingBijection(
    std::span<const std::pair<BitString, BitString>> leafToKey,
    std::size_t dims);

// --- Theorem 1/3 corollary: leaves tile the space ------------------------
//
// `leaves` are tree-node labels whose cells must partition the data
// space: pairwise prefix-free and total volume 1, where a label at edge
// depth d (= size() - rootPrefixBits) covers volume 2^-d.  Pass
// rootPrefixBits = dims + 1 for m-LIGHT labels (virtual-root prefix + #),
// 0 for plain trie/SFC paths (PHT).  O(n log n).
void auditSpaceTiling(std::span<const BitString> leaves,
                      std::size_t rootPrefixBits);

// --- Theorem 5: incremental split / merge ------------------------------
//
// Splitting leaf λ stored under key k = f_md(λ) yields children whose
// keys are exactly {k, λ}: one child keeps the parent's DHT key (no
// transfer), the other is re-assigned to λ.  The same relation read
// backwards governs merges.  `childKeyA/B` are the precomputed names of
// the two children (order irrelevant).  O(1).
void auditIncrementalSplit(const BitString& parent, const BitString& parentKey,
                           const BitString& childKeyA,
                           const BitString& childKeyB);

// Generalization to whole split subtrees (data-aware adjustment, §4.2):
// of the plan's leaf keys exactly one equals the parent's old key, and
// all keys are pairwise distinct.  O(n log n).
void auditIncrementalSplitPlan(const BitString& parentKey,
                               std::span<const BitString> leafKeys);

// --- Theorem 6: variance-minimizing data-aware split ---------------------
//
// A split plan targeting expected load ε is only taken when it lowers
// Σ (load − ε)²; in particular any multi-leaf plan must cost no more
// than leaving the bucket whole: Σ (lᵢ − ε)² <= (Σ lᵢ − ε)².  O(n).
void auditLoadVariance(std::span<const std::size_t> loads, double epsilon);

// --- Record placement (all four indexes) ---------------------------------
//
// Every record key must lie inside its bucket's region/cell/segment.
// Templated so index layers can pass their own record ranges without a
// copy (this header cannot see index::Record).
template <typename Records, typename KeyOf>
void auditRecordPlacement(const Rect& region, const Records& records,
                          KeyOf keyOf) {
  detail::beginAudit();
  std::size_t i = 0;
  for (const auto& r : records) {
    if (!region.contains(keyOf(r))) {
      detail::failAudit("auditRecordPlacement",
                        "record " + std::to_string(i) + " at " +
                            keyOf(r).toString() + " outside its bucket " +
                            region.toString());
    }
    ++i;
  }
  detail::passAudit();
}

// --- Leaf buckets: the key array matches the records --------------------
//
// A leaf bucket keeps each record's coordinates a second time, in a flat
// array with stride `dims`, which range harvests filter on.  The array
// must hold exactly records.size() * dims values, every record must have
// `dims` coordinates, and value d of record i must be bit-identical to
// coordinate d of its key.  O(n * dims); call sites gate on kParanoid.
template <typename Records, typename KeyOf>
void auditBucketKeys(const Records& records, std::span<const double> keys,
                     std::size_t dims, KeyOf keyOf) {
  detail::beginAudit();
  std::size_t i = 0;
  for (const auto& r : records) {
    const Point& key = keyOf(r);
    if (key.dims() != dims || keys.size() < (i + 1) * dims) {
      detail::failAudit("auditBucketKeys",
                        "record " + std::to_string(i) + " has no " +
                            std::to_string(dims) + "-wide key array entry");
    }
    for (std::size_t d = 0; d < dims; ++d) {
      if (std::bit_cast<std::uint64_t>(keys[i * dims + d]) !=
          std::bit_cast<std::uint64_t>(key[d])) {
        detail::failAudit("auditBucketKeys",
                          "record " + std::to_string(i) + " at " +
                              key.toString() + ": key array coordinate " +
                              std::to_string(d) + " is " +
                              std::to_string(keys[i * dims + d]));
      }
    }
    ++i;
  }
  if (keys.size() != i * dims) {
    detail::failAudit("auditBucketKeys",
                      std::to_string(keys.size()) + " key values for " +
                          std::to_string(i) + " records of " +
                          std::to_string(dims) + " dims");
  }
  detail::passAudit();
}

// --- Range harvest: gathered hits stay valid ----------------------------
//
// Range queries gather hits as pointers into the owners' record storage
// and copy them once the cascade quiesces.  Every harvested bucket's
// storage must be exactly where it was at harvest time: same data
// pointer, same record count.  O(1); call sites gate on kParanoid.
void auditStableStorage(const void* dataAtHarvest, std::size_t sizeAtHarvest,
                        const void* dataNow, std::size_t sizeNow);

// --- Store layer: replica placement --------------------------------------
//
// Copy-holders of one bucket must be pairwise distinct (failure
// independence) and never exceed the replication factor; pass RingId
// values.  O(n²) over a handful of holders.
void auditReplicaHolders(std::span<const std::uint64_t> holders,
                         std::size_t replication);

// --- Store layer: frozen read routes ------------------------------------
//
// refreshReadRouting re-picks a boosted label's read route only when the
// store's copy-set epoch or the last winner's load moved.  Every frozen
// route must equal a from-scratch least-loaded pick on the current meter:
// the same routed flag (the label is stored) and the same salt.  Call
// sites gate on kParanoid.  O(1) given both picks.
void auditFrozenReadRoute(const BitString& label, bool frozenRouted,
                          std::size_t frozenSalt, bool freshRouted,
                          std::size_t freshSalt);

// --- Network layer: ring soundness ---------------------------------------
//
// Ring positions must be strictly increasing (sorted, duplicate-free):
// the predecessor mapping, the directory and routing assume it.  O(n).
void auditRingOrder(std::span<const std::uint64_t> ringPositions);

// The ring-slot directory over sorted positions: it has 2^(64 - shift) + 1
// entries, entry j is the first index whose position is >= j << shift,
// and the last entry is the position count.  O(n + entries).
void auditRingDirectory(std::span<const std::uint64_t> ringPositions,
                        std::span<const std::uint32_t> directory,
                        unsigned shift);

// --- Lookup cache: hint coherence ----------------------------------------
//
// A cached lookup (direct hit or stale-hint repair) must resolve to the
// exact leaf the uncached §5 binary search would find — hints may only
// save probes, never change answers.  Call sites gate on kParanoid (the
// oracle search is a full extra walk per lookup).  O(1) given both
// labels.
void auditCacheCoherence(const BitString& cachedLeaf,
                         const BitString& uncachedLeaf);

// --- Lookup search: bound sanity -----------------------------------------
//
// The binary search over candidate edge depths maintains lo <= hi at
// every cut; losing the target means a probe's verdict contradicted the
// tree structure (or a hint repair mis-seeded the window).  Always-on
// O(1) — this replaces the old bare `assert`, so the guard survives
// release builds and reports through the audit counters.
void auditLookupSearchBounds(std::size_t lo, std::size_t hi);

}  // namespace mlight::common
