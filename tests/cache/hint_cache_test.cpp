// Unit tests for the lookup-hint cache (src/cache) plus negative tests
// for the two audits the subsystem added to the invariant layer:
// auditCacheCoherence (cached lookup == uncached search) and
// auditLookupSearchBounds (the binary search never loses its target).
#include "cache/hint_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <list>
#include <string>
#include <map>
#include <vector>

#include "common/bitstring.h"
#include "common/digest.h"
#include "common/invariants.h"
#include "common/rng.h"
#include "common/replica_copy.h"

namespace mlight::cache {
namespace {

using mlight::common::BitString;

BitString bits(const char* text) { return BitString::fromString(text); }

CachePolicy onPolicy(std::size_t perDim = 1024) {
  CachePolicy p;
  p.enabled = true;
  p.perDimCapacity = perDim;
  return p;
}

// --- LabelHintCache ------------------------------------------------------

TEST(LabelHintCache, FindCoveringReturnsDeepestPrefix) {
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0010"), 1);
  cache.learn(bits("001011"), 3);
  const BitString full = bits("0010110101");
  const LabelHint* hit = cache.findCovering(full);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->leaf, bits("001011"));
  EXPECT_EQ(hit->depth, 3u);
}

TEST(LabelHintCache, FindCoveringMissesNonPrefixes) {
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0011"), 1);
  EXPECT_EQ(cache.findCovering(bits("0010110101")), nullptr);
}

TEST(LabelHintCache, ExactFullPathIsCovering) {
  // A hint may be as deep as the query path itself.
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("00101"), 2);
  const LabelHint* hit = cache.findCovering(bits("00101"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->leaf, bits("00101"));
}

TEST(LabelHintCache, LearnRefreshesDepthInPlace) {
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0010"), 1);
  cache.learn(bits("0010"), 7);
  EXPECT_EQ(cache.size(), 1u);
  const LabelHint* hit = cache.findCovering(bits("0010"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->depth, 7u);
}

TEST(LabelHintCache, EvictsLeastRecentlyUsedAtCapacity) {
  LabelHintCache cache(1, onPolicy(2));  // capacity = 2 * 1
  EXPECT_EQ(cache.capacity(), 2u);
  cache.learn(bits("00"), 0);
  cache.learn(bits("010"), 1);
  // Touch "00" so "010" becomes the LRU victim.
  EXPECT_NE(cache.findCovering(bits("00")), nullptr);
  cache.learn(bits("011"), 1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.findCovering(bits("010")), nullptr);
  EXPECT_NE(cache.findCovering(bits("00")), nullptr);
  EXPECT_NE(cache.findCovering(bits("011")), nullptr);
}

TEST(LabelHintCache, ForgetDropsTheHint) {
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0010"), 1);
  cache.forget(bits("0010"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.findCovering(bits("0010")), nullptr);
  // Forgetting a label that is not cached is a no-op.
  cache.forget(bits("0011"));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LabelHintCache, ForgetUnshadowsShallowerHint) {
  // After a merge the deeper label is dead; forgetting it must let the
  // surviving shallower hint cover the cell again.
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0010"), 1);
  cache.learn(bits("001011"), 3);
  cache.forget(bits("001011"));
  const LabelHint* hit = cache.findCovering(bits("0010110101"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->leaf, bits("0010"));
}

// --- arena vs. list model ------------------------------------------------

using mlight::common::ReplicaCopy;

// The node-based LabelHintCache this arena replaced (a std::list in LRU
// order plus a BitString-keyed map), kept as the oracle: the arena must
// agree with it on every hit, size, eviction and digest.
struct ModelHint {
  BitString leaf;
  std::uint32_t depth = 0;
  std::vector<ReplicaCopy> route;
};

class ReferenceHintCache {
 public:
  explicit ReferenceHintCache(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const noexcept { return lru_.size(); }

  const ModelHint* findCovering(const BitString& fullPath) {
    const std::size_t maxLen =
        std::min(fullPath.size() + 1, lengthCount_.size());
    for (std::size_t len = maxLen; len-- > 0;) {
      if (lengthCount_[len] == 0) continue;
      auto it = byLeaf_.find(fullPath.prefix(len));
      if (it == byLeaf_.end()) continue;
      lru_.splice(lru_.begin(), lru_, it->second);
      return &*it->second;
    }
    return nullptr;
  }

  bool learn(const BitString& leaf, std::uint32_t depth,
             std::vector<ReplicaCopy> route) {
    if (capacity_ == 0) return false;
    auto it = byLeaf_.find(leaf);
    if (it != byLeaf_.end()) {
      it->second->depth = depth;
      it->second->route = std::move(route);
      lru_.splice(lru_.begin(), lru_, it->second);
      return false;
    }
    bool evicted = false;
    if (lru_.size() >= capacity_) {
      const ModelHint& victim = lru_.back();
      --lengthCount_[victim.leaf.size()];
      byLeaf_.erase(victim.leaf);
      lru_.pop_back();
      evicted = true;
    }
    lru_.push_front(ModelHint{leaf, depth, std::move(route)});
    byLeaf_.emplace(leaf, lru_.begin());
    if (leaf.size() >= lengthCount_.size()) {
      lengthCount_.resize(leaf.size() + 1, 0);
    }
    ++lengthCount_[leaf.size()];
    return evicted;
  }

  void forget(const BitString& leaf) {
    auto it = byLeaf_.find(leaf);
    if (it == byLeaf_.end()) return;
    --lengthCount_[leaf.size()];
    lru_.erase(it->second);
    byLeaf_.erase(it);
  }

  void digestState(mlight::common::Digest& d) const {
    d.feed(lru_.size());
    for (const ModelHint& h : lru_) {
      d.feed(h.leaf);
      d.feed(h.depth);
      d.feed(h.route.size());
      for (const ReplicaCopy& c : h.route) d.feed(c.salt);
      for (const ReplicaCopy& c : h.route) d.feed(c.load);
    }
  }

 private:
  std::size_t capacity_;
  std::list<ModelHint> lru_;
  std::map<BitString, std::list<ModelHint>::iterator> byLeaf_;
  std::vector<std::uint32_t> lengthCount_;
};

template <typename Cache>
std::uint64_t digestOf(const Cache& cache) {
  mlight::common::Digest d;
  cache.digestState(d);
  return d.value();
}

void expectSameHit(const LabelHint* got, const ModelHint* want) {
  ASSERT_EQ(got == nullptr, want == nullptr);
  if (got == nullptr) return;
  EXPECT_EQ(got->leaf, want->leaf);
  EXPECT_EQ(got->depth, want->depth);
  EXPECT_TRUE(std::ranges::equal(got->route, want->route));
}

// Seeded random learn / refresh / forget / findCovering sequences over
// labels of 0-256 bits — across every 64-bit word boundary up to
// BitString's 256-bit limit, so the arena re-strides mid-run.
// Labels are prefixes (some with the last bit flipped) of a few fixed
// paths, so coverage queries hit, shadow and miss in every mix.
TEST(LabelHintCache, MatchesListModel) {
  for (const std::size_t capacity : {1, 2, 7, 64}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      mlight::common::Rng rng(seed * 1000 + capacity);
      std::vector<BitString> paths(3);
      for (BitString& p : paths) {
        for (std::size_t i = 0; i < BitString::kMaxBits; ++i) {
          p.pushBack(rng.chance(0.5));
        }
      }
      auto randomPrefix = [&] {
        const BitString& p = paths[rng.below(paths.size())];
        // Short labels dominate early so the first long one re-strides.
        return p.prefix(rng.below(rng.chance(0.5) ? 70 : p.size() + 1));
      };
      auto randomLabel = [&] {
        BitString l = randomPrefix();
        if (!l.empty() && rng.chance(0.3)) l.flipBack();
        return l;
      };
      LabelHintCache arena(1, onPolicy(capacity));
      ReferenceHintCache model(capacity);
      std::vector<BitString> learned;
      for (int op = 0; op < 1500; ++op) {
        const std::uint64_t kind = rng.below(10);
        if (kind < 4 || (kind < 6 && learned.empty())) {
          // learn a (probably) new label, or refresh a known one
          const BitString leaf =
              kind < 3 || learned.empty() ? randomLabel()
                                          : learned[rng.below(learned.size())];
          const auto depth = static_cast<std::uint32_t>(rng.below(100));
          std::vector<ReplicaCopy> route;
          if (rng.chance(0.3)) {
            const std::size_t n = 1 + rng.below(4);
            for (std::size_t i = 0; i < n; ++i) {
              const auto salt = static_cast<std::uint32_t>(rng.below(16));
              route.push_back({salt, static_cast<std::uint32_t>(rng.next())});
            }
          }
          const bool gotEvict = arena.learn(leaf, depth, route);
          const bool wantEvict = model.learn(leaf, depth, route);
          EXPECT_EQ(gotEvict, wantEvict);
          learned.push_back(leaf);
        } else if (kind < 6) {
          const BitString leaf = rng.chance(0.8)
                                     ? learned[rng.below(learned.size())]
                                     : randomLabel();
          arena.forget(leaf);
          model.forget(leaf);
        } else {
          BitString path = randomPrefix();
          if (!path.empty() && rng.chance(0.2)) path.flipBack();
          expectSameHit(arena.findCovering(path), model.findCovering(path));
        }
        ASSERT_EQ(arena.size(), model.size()) << "op " << op;
        ASSERT_EQ(digestOf(arena), digestOf(model)) << "op " << op;
      }
    }
  }
}

TEST(LabelHintCache, CompactFootprint) {
  constexpr std::size_t kHints = 8192;
  LabelHintCache cache(1, onPolicy(kHints));
  mlight::common::Rng rng(57);
  std::vector<BitString> labels;
  for (std::size_t i = 0; i < kHints; ++i) {
    BitString l;
    l.appendWordBits(rng.next(), 57);
    labels.push_back(l);
    if (i % 1024 == 0) {
      cache.learn(l, 28, {{1, 0}, {2, 5}, {3, 9}, {4, 2}});
    } else {
      cache.learn(l, 28);
    }
  }
  ASSERT_EQ(cache.size(), kHints);
  EXPECT_LE(cache.memoryBytes() / cache.size(), 64u)
      << cache.memoryBytes() << " bytes for " << cache.size() << " hints";
  // Every hint is still reachable (a footprint bought with lost entries
  // would be no saving).
  for (const BitString& l : labels) {
    const LabelHint* hit = cache.findCovering(l);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->leaf, l);
  }
}

// The digest's byte stream (count, then per hint its leaf, depth, pair
// count, every salt, every load) is what every pinned stateDigest() of a
// cache-on run hashes: pinned to the values of the two-vector layout.
TEST(LabelHintCache, DigestOfBoostedHintIsPinned) {
  LabelHintCache cache(2, onPolicy());
  cache.learn(bits("0010110"), 5, {{0, 12}, {3, 0}, {7, 5}});
  EXPECT_EQ(digestOf(cache), 0x8b7a03d83cea4a3cULL);
  cache.learn(bits("01"), 1);
  EXPECT_EQ(digestOf(cache), 0x492511db44e7e7deULL);
}

// --- HintCacheSet --------------------------------------------------------

TEST(HintCacheSet, KeepsIndependentPerPeerCaches) {
  HintCacheSet set(2, onPolicy());
  set.forPeer(7).learn(bits("0010"), 1);
  EXPECT_EQ(set.forPeer(9).findCovering(bits("0010")), nullptr);
  EXPECT_NE(set.forPeer(7).findCovering(bits("0010")), nullptr);
  EXPECT_EQ(set.peerCount(), 2u);
  EXPECT_EQ(set.totalHints(), 1u);
  EXPECT_EQ(set.memoryBytes(),
            set.forPeer(7).memoryBytes() + set.forPeer(9).memoryBytes());
  EXPECT_GT(set.forPeer(7).memoryBytes(), 0u);
}

// --- MLIGHT_CACHE environment switch -------------------------------------

class ScopedCacheEnv {
 public:
  explicit ScopedCacheEnv(const char* value) {
    const char* old = std::getenv("MLIGHT_CACHE");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value == nullptr) {
      ::unsetenv("MLIGHT_CACHE");
    } else {
      ::setenv("MLIGHT_CACHE", value, 1);
    }
  }
  ~ScopedCacheEnv() {
    if (had_) {
      ::setenv("MLIGHT_CACHE", saved_.c_str(), 1);
    } else {
      ::unsetenv("MLIGHT_CACHE");
    }
  }
  ScopedCacheEnv(const ScopedCacheEnv&) = delete;
  ScopedCacheEnv& operator=(const ScopedCacheEnv&) = delete;

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(CacheEnv, UnsetOrEmptyUsesFallback) {
  {
    ScopedCacheEnv env(nullptr);
    EXPECT_FALSE(cacheEnabledFromEnv(false));
    EXPECT_TRUE(cacheEnabledFromEnv(true));
  }
  {
    ScopedCacheEnv env("");
    EXPECT_FALSE(cacheEnabledFromEnv(false));
    EXPECT_TRUE(cacheEnabledFromEnv(true));
  }
}

TEST(CacheEnv, ExplicitOffValuesDisable) {
  for (const char* off : {"0", "off", "false"}) {
    ScopedCacheEnv env(off);
    EXPECT_FALSE(cacheEnabledFromEnv(true)) << "value: " << off;
  }
}

TEST(CacheEnv, ExplicitOnValuesEnable) {
  for (const char* on : {"1", "on", "true", "yes"}) {
    ScopedCacheEnv env(on);
    EXPECT_TRUE(cacheEnabledFromEnv(false)) << "value: " << on;
  }
}

// A typo used to silently *enable* the cache (any non-off value was
// treated as on) — now anything outside the two explicit value sets
// fails loudly, mirroring the MLIGHT_FAULT_SEED contract.
TEST(CacheEnv, MalformedValuesThrow) {
  for (const char* bad :
       {"2", "enabled", "ON", "offf", " 1", "1 ", "tru", "no"}) {
    ScopedCacheEnv env(bad);
    EXPECT_THROW(cacheEnabledFromEnv(false), mlight::common::CheckFailure)
        << "value: " << bad;
    EXPECT_THROW(cacheEnabledFromEnv(true), mlight::common::CheckFailure)
        << "value: " << bad;
  }
}

// --- the cache's audits --------------------------------------------------

TEST(CacheAudits, CoherenceAcceptsMatchingLeaves) {
  mlight::common::resetAuditCounters();
  EXPECT_NO_THROW(
      mlight::common::auditCacheCoherence(bits("0010"), bits("0010")));
  EXPECT_EQ(mlight::common::auditCounters().passed, 1u);
}

TEST(CacheAudits, CoherenceDetectsDivergentLeaves) {
  mlight::common::resetAuditCounters();
  EXPECT_THROW(
      mlight::common::auditCacheCoherence(bits("0010"), bits("0011")),
      mlight::common::AuditFailure);
  EXPECT_EQ(mlight::common::auditCounters().failed, 1u);
}

TEST(CacheAudits, SearchBoundsAcceptOrderedRange) {
  EXPECT_NO_THROW(mlight::common::auditLookupSearchBounds(0, 0));
  EXPECT_NO_THROW(mlight::common::auditLookupSearchBounds(3, 9));
}

TEST(CacheAudits, SearchBoundsDetectLostTarget) {
  mlight::common::resetAuditCounters();
  EXPECT_THROW(mlight::common::auditLookupSearchBounds(5, 4),
               mlight::common::AuditFailure);
  EXPECT_EQ(mlight::common::auditCounters().failed, 1u);
}

}  // namespace
}  // namespace mlight::cache
