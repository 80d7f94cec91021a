#include "common/invariants.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <vector>

namespace mlight::common {

namespace {

std::atomic<std::uint64_t> g_run{0};
std::atomic<std::uint64_t> g_passed{0};
std::atomic<std::uint64_t> g_failed{0};
std::atomic<std::uint64_t> g_skipped{0};

constexpr int kLevelUnset = -1;
std::atomic<int> g_override{kLevelUnset};

AuditLevel parseLevel(std::string_view text) noexcept {
  if (text == "off" || text == "0") return AuditLevel::kOff;
  if (text == "paranoid" || text == "2") return AuditLevel::kParanoid;
  // "boundaries", "1", and anything unrecognized fall back to the
  // default: silently disabling audits on a typo would be the worst
  // failure mode for a correctness knob.
  return AuditLevel::kBoundaries;
}

AuditLevel envLevel() noexcept {
  static const AuditLevel level = [] {
    const char* env = std::getenv("MLIGHT_AUDIT_LEVEL");
    return env == nullptr ? AuditLevel::kBoundaries : parseLevel(env);
  }();
  return level;
}

}  // namespace

AuditLevel auditLevel() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  return forced == kLevelUnset ? envLevel() : static_cast<AuditLevel>(forced);
}

void setAuditLevel(AuditLevel level) noexcept {
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

const char* auditLevelName(AuditLevel level) noexcept {
  switch (level) {
    case AuditLevel::kOff:
      return "off";
    case AuditLevel::kBoundaries:
      return "boundaries";
    case AuditLevel::kParanoid:
      return "paranoid";
  }
  return "unknown";
}

AuditCounters auditCounters() noexcept {
  AuditCounters c;
  c.run = g_run.load(std::memory_order_relaxed);
  c.passed = g_passed.load(std::memory_order_relaxed);
  c.failed = g_failed.load(std::memory_order_relaxed);
  c.skipped = g_skipped.load(std::memory_order_relaxed);
  return c;
}

void resetAuditCounters() noexcept {
  g_run.store(0, std::memory_order_relaxed);
  g_passed.store(0, std::memory_order_relaxed);
  g_failed.store(0, std::memory_order_relaxed);
  g_skipped.store(0, std::memory_order_relaxed);
}

bool auditEnabled(AuditLevel needed) noexcept {
  if (auditLevel() >= needed) return true;
  g_skipped.fetch_add(1, std::memory_order_relaxed);
  return false;
}

namespace detail {

void beginAudit() noexcept { g_run.fetch_add(1, std::memory_order_relaxed); }

void passAudit() noexcept { g_passed.fetch_add(1, std::memory_order_relaxed); }

void failAudit(const char* audit, const std::string& what) {
  g_failed.fetch_add(1, std::memory_order_relaxed);
  throw AuditFailure(std::string(audit) + ": " + what);
}

}  // namespace detail

void auditNamingBijection(
    std::span<const std::pair<BitString, BitString>> leafToKey,
    std::size_t dims) {
  detail::beginAudit();
  std::vector<const BitString*> keys;
  keys.reserve(leafToKey.size());
  for (const auto& [leaf, key] : leafToKey) {
    if (key.size() < dims || key.size() >= leaf.size() ||
        !key.isPrefixOf(leaf)) {
      detail::failAudit("auditNamingBijection",
                        "key " + key.toString() +
                            " is not a proper prefix (length >= m) of leaf " +
                            leaf.toString());
    }
    keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(),
            [](const BitString* a, const BitString* b) { return *a < *b; });
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (*keys[i - 1] == *keys[i]) {
      detail::failAudit("auditNamingBijection",
                        "two leaves share DHT key " + keys[i]->toString());
    }
  }
  detail::passAudit();
}

void auditSpaceTiling(std::span<const BitString> leaves,
                      std::size_t rootPrefixBits) {
  detail::beginAudit();
  std::vector<const BitString*> sorted;
  sorted.reserve(leaves.size());
  double volume = 0.0;
  for (const BitString& leaf : leaves) {
    if (leaf.size() < rootPrefixBits) {
      detail::failAudit("auditSpaceTiling",
                        "label " + leaf.toString() +
                            " shorter than the root prefix");
    }
    volume += std::ldexp(
        1.0, -static_cast<int>(leaf.size() - rootPrefixBits));
    sorted.push_back(&leaf);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const BitString* a, const BitString* b) { return *a < *b; });
  // In lexicographic order (prefixes first) any prefix relation shows up
  // between adjacent elements, so one linear scan proves prefix-freeness.
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1]->isPrefixOf(*sorted[i])) {
      detail::failAudit("auditSpaceTiling",
                        "leaf " + sorted[i - 1]->toString() +
                            " overlaps leaf " + sorted[i]->toString() +
                            " (prefix)");
    }
  }
  if (std::abs(volume - 1.0) > 1e-9) {
    detail::failAudit("auditSpaceTiling",
                      "leaf volumes sum to " + std::to_string(volume) +
                          ", not 1 — leaves do not tile the space");
  }
  detail::passAudit();
}

void auditIncrementalSplit(const BitString& parent, const BitString& parentKey,
                           const BitString& childKeyA,
                           const BitString& childKeyB) {
  detail::beginAudit();
  const bool holds = (childKeyA == parentKey && childKeyB == parent) ||
                     (childKeyB == parentKey && childKeyA == parent);
  if (!holds) {
    detail::failAudit(
        "auditIncrementalSplit",
        "Theorem 5 violated at " + parent.toString() + ": child keys {" +
            childKeyA.toString() + ", " + childKeyB.toString() +
            "} != {parent key " + parentKey.toString() + ", parent label " +
            parent.toString() + "}");
  }
  detail::passAudit();
}

void auditIncrementalSplitPlan(const BitString& parentKey,
                               std::span<const BitString> leafKeys) {
  detail::beginAudit();
  std::size_t keepers = 0;
  std::vector<const BitString*> sorted;
  sorted.reserve(leafKeys.size());
  for (const BitString& key : leafKeys) {
    if (key == parentKey) ++keepers;
    sorted.push_back(&key);
  }
  if (keepers != 1) {
    detail::failAudit("auditIncrementalSplitPlan",
                      std::to_string(keepers) +
                          " plan leaves keep the old key " +
                          parentKey.toString() + " (want exactly 1)");
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const BitString* a, const BitString* b) { return *a < *b; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (*sorted[i - 1] == *sorted[i]) {
      detail::failAudit("auditIncrementalSplitPlan",
                        "duplicate plan key " + sorted[i]->toString());
    }
  }
  detail::passAudit();
}

void auditLoadVariance(std::span<const std::size_t> loads, double epsilon) {
  detail::beginAudit();
  if (loads.size() > 1) {
    double splitCost = 0.0;
    double total = 0.0;
    for (const std::size_t load : loads) {
      const double l = static_cast<double>(load);
      splitCost += (l - epsilon) * (l - epsilon);
      total += l;
    }
    const double wholeCost = (total - epsilon) * (total - epsilon);
    // Strictly-better is the algorithm's rule; allow equality headroom
    // for floating-point accumulation order.
    if (splitCost > wholeCost + 1e-6) {
      detail::failAudit(
          "auditLoadVariance",
          "split plan cost " + std::to_string(splitCost) +
              " exceeds the unsplit cost " + std::to_string(wholeCost) +
              " for epsilon " + std::to_string(epsilon) +
              " — Theorem 6 minimality violated");
    }
  }
  detail::passAudit();
}

void auditReplicaHolders(std::span<const std::uint64_t> holders,
                         std::size_t replication) {
  detail::beginAudit();
  if (holders.empty()) {
    detail::failAudit("auditReplicaHolders", "bucket has no copy-holders");
  }
  if (holders.size() > replication) {
    detail::failAudit("auditReplicaHolders",
                      std::to_string(holders.size()) +
                          " copy-holders exceed replication factor " +
                          std::to_string(replication));
  }
  for (std::size_t i = 0; i < holders.size(); ++i) {
    for (std::size_t j = i + 1; j < holders.size(); ++j) {
      if (holders[i] == holders[j]) {
        detail::failAudit("auditReplicaHolders",
                          "copy-holders are not failure-independent: ring "
                          "position " +
                              std::to_string(holders[i]) + " holds two copies");
      }
    }
  }
  detail::passAudit();
}

void auditFrozenReadRoute(const BitString& label, bool frozenRouted,
                          std::size_t frozenSalt, bool freshRouted,
                          std::size_t freshSalt) {
  detail::beginAudit();
  if (frozenRouted != freshRouted || frozenSalt != freshSalt) {
    detail::failAudit(
        "auditFrozenReadRoute",
        "boosted label " + label.toString() + " reads " +
            (frozenRouted ? "salt " + std::to_string(frozenSalt)
                          : std::string("unrouted")) +
            " but a full re-pick gives " +
            (freshRouted ? "salt " + std::to_string(freshSalt)
                         : std::string("unrouted")));
  }
  detail::passAudit();
}

void auditRingOrder(std::span<const std::uint64_t> ringPositions) {
  detail::beginAudit();
  for (std::size_t i = 1; i < ringPositions.size(); ++i) {
    if (ringPositions[i - 1] >= ringPositions[i]) {
      detail::failAudit(
          "auditRingOrder",
          "ring positions not strictly increasing at index " +
              std::to_string(i) + " (" + std::to_string(ringPositions[i - 1]) +
              " then " + std::to_string(ringPositions[i]) + ")");
    }
  }
  detail::passAudit();
}

void auditRingDirectory(std::span<const std::uint64_t> ringPositions,
                        std::span<const std::uint32_t> directory,
                        unsigned shift) {
  detail::beginAudit();
  const std::size_t n = ringPositions.size();
  const std::size_t buckets =
      shift != 0 && shift < 64 ? std::size_t{1} << (64 - shift) : 0;
  if (buckets == 0 || directory.size() != buckets + 1) {
    detail::failAudit("auditRingDirectory",
                      "directory has " + std::to_string(directory.size()) +
                          " entries for shift " + std::to_string(shift));
  }
  if (directory[buckets] != n) {
    detail::failAudit("auditRingDirectory",
                      "last entry " + std::to_string(directory[buckets]) +
                          " is not the ring size " + std::to_string(n));
  }
  for (std::size_t j = 0; j < buckets; ++j) {
    const std::uint64_t floor = std::uint64_t{j} << shift;
    const std::size_t slot = directory[j];
    // slot is the first position >= floor: nothing before it reaches
    // floor, and it does (or it is the end).
    const bool first = slot <= n &&
                       (slot == n || ringPositions[slot] >= floor) &&
                       (slot == 0 || ringPositions[slot - 1] < floor);
    if (!first) {
      detail::failAudit("auditRingDirectory",
                        "entry " + std::to_string(j) + " = " +
                            std::to_string(slot) +
                            " is not the first slot at or above " +
                            std::to_string(floor));
    }
  }
  detail::passAudit();
}

void auditCacheCoherence(const BitString& cachedLeaf,
                         const BitString& uncachedLeaf) {
  detail::beginAudit();
  if (cachedLeaf != uncachedLeaf) {
    detail::failAudit("auditCacheCoherence",
                      "cached lookup resolved to leaf " +
                          cachedLeaf.toString() +
                          " but the uncached binary search finds " +
                          uncachedLeaf.toString());
  }
  detail::passAudit();
}

void auditStableStorage(const void* dataAtHarvest, std::size_t sizeAtHarvest,
                        const void* dataNow, std::size_t sizeNow) {
  detail::beginAudit();
  if (dataAtHarvest != dataNow || sizeAtHarvest != sizeNow) {
    detail::failAudit("auditStableStorage",
                      "harvested records moved or resized before the copy: " +
                          std::to_string(sizeAtHarvest) + " -> " +
                          std::to_string(sizeNow) + " records");
  }
  detail::passAudit();
}

void auditLookupSearchBounds(std::size_t lo, std::size_t hi) {
  detail::beginAudit();
  if (lo > hi) {
    detail::failAudit("auditLookupSearchBounds",
                      "binary search lost the target: lo " +
                          std::to_string(lo) + " > hi " + std::to_string(hi));
  }
  detail::passAudit();
}

}  // namespace mlight::common
