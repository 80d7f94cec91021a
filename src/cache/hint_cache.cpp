#include "cache/hint_cache.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/check.h"

namespace mlight::cache {

bool cacheEnabledFromEnv(bool fallback) {
  const char* env = std::getenv("MLIGHT_CACHE");
  if (env == nullptr || *env == '\0') return fallback;
  if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
      std::strcmp(env, "false") == 0) {
    return false;
  }
  if (std::strcmp(env, "1") == 0 || std::strcmp(env, "on") == 0 ||
      std::strcmp(env, "true") == 0 || std::strcmp(env, "yes") == 0) {
    return true;
  }
  // "enabl" / "offf" / " 1" used to silently *enable* — the worst
  // possible reading of a typo in a knob whose off-path must stay
  // bit-identical to a cacheless build.  Fail loudly instead (same
  // contract as dht::faultSeedFromEnv).
  MLIGHT_CHECK(false,
               "MLIGHT_CACHE must be one of 0/off/false/1/on/true/yes");
  return fallback;  // unreachable; keeps -Werror=return-type happy
}

void LabelHintCache::unlink(std::uint32_t slot) noexcept {
  const Slot& s = table_[slot];
  (s.prev == kNil ? head_ : table_[s.prev].next) = s.next;
  (s.next == kNil ? tail_ : table_[s.next].prev) = s.prev;
}

void LabelHintCache::pushFront(std::uint32_t slot) noexcept {
  table_[slot].prev = kNil;
  table_[slot].next = head_;
  (head_ == kNil ? tail_ : table_[head_].prev) = slot;
  head_ = slot;
}

// Removes `slot` from the LRU, the length counts and the label table,
// and releases its replica route.
void LabelHintCache::dropSlot(std::uint32_t slot) {
  unlink(slot);
  --lengthCount_[table_.length(slot)];
  setRoute(slot, {});
  table_.erase(slot);
}

void LabelHintCache::setRoute(
    std::uint32_t slot, std::vector<mlight::common::ReplicaCopy>&& route) {
  std::uint32_t& ref = table_[slot].route;
  if (route.empty()) {
    if (ref != 0) {
      routes_[ref - 1] = std::move(route);  // empty: frees the old buffer
      freeRoutes_.push_back(ref - 1);
      ref = 0;
    }
    return;
  }
  if (ref == 0) {
    if (freeRoutes_.empty()) {
      routes_.emplace_back();
      ref = static_cast<std::uint32_t>(routes_.size());
    } else {
      ref = freeRoutes_.back() + 1;
      freeRoutes_.pop_back();
    }
  }
  routes_[ref - 1] = std::move(route);
}

const LabelHint* LabelHintCache::findCovering(const Label& fullPath) {
  // Deepest-first over the lengths that are actually populated: the
  // deepest covering hint is the one whose direct probe skips the most
  // binary-search levels, and after a merge it is the one whose
  // staleness we want to detect (and forget) rather than silently
  // shadow with an ancestor.  Lengths only shrink, so the probe key is
  // the path's words truncated in place, one mask per populated length.
  const std::size_t maxLen =
      std::min(fullPath.size() + 1, lengthCount_.size());
  std::uint64_t key[Label::kMaxBits / 64] = {};
  std::ranges::copy(fullPath.words(), key);
  for (std::size_t len = maxLen; len-- > 0;) {
    if (lengthCount_[len] == 0) continue;
    if (len % 64 != 0) key[len / 64] &= (std::uint64_t{1} << (len % 64)) - 1;
    const std::uint32_t slot =
        table_.find(key, static_cast<std::uint32_t>(len));
    if (slot == mlight::common::kNoLabelSlot) continue;
    unlink(slot);
    pushFront(slot);
    const Slot& s = table_[slot];
    hit_.leaf.truncate(0);
    const std::uint64_t* words = table_.words(slot);
    for (std::size_t done = 0; done < len; done += 64) {
      hit_.leaf.appendWordBits(*words++,
                               std::min<std::size_t>(64, len - done));
    }
    hit_.depth = s.depth;
    hit_.route = {};
    if (s.route != 0) hit_.route = routes_[s.route - 1];
    return &hit_;
  }
  return nullptr;
}

bool LabelHintCache::learn(const Label& leaf, std::uint32_t depth,
                           std::vector<mlight::common::ReplicaCopy> route) {
  if (capacity_ == 0) return false;
  const std::uint32_t known = table_.find(leaf);
  if (known != mlight::common::kNoLabelSlot) {
    table_[known].depth = depth;
    setRoute(known, std::move(route));
    unlink(known);
    pushFront(known);
    return false;
  }
  const bool evicted = table_.size() >= capacity_;
  if (evicted) dropSlot(tail_);
  const std::uint32_t slot = table_.insert(leaf);
  table_[slot].depth = depth;
  setRoute(slot, std::move(route));
  pushFront(slot);
  const std::size_t len = leaf.size();
  if (len >= lengthCount_.size()) lengthCount_.resize(len + 1, 0);
  ++lengthCount_[len];
  return evicted;
}

void LabelHintCache::forget(const Label& leaf) {
  const std::uint32_t slot = table_.find(leaf);
  if (slot != mlight::common::kNoLabelSlot) dropSlot(slot);
}

std::size_t LabelHintCache::memoryBytes() const noexcept {
  std::size_t n = table_.memoryBytes() +
                  routes_.capacity() * sizeof(routes_[0]) +
                  freeRoutes_.capacity() * sizeof(std::uint32_t) +
                  lengthCount_.capacity() * sizeof(std::uint32_t);
  for (const auto& route : routes_) {
    n += route.capacity() * sizeof(mlight::common::ReplicaCopy);
  }
  return n;
}

void LabelHintCache::digestState(mlight::common::Digest& d) const {
  // The byte stream of feeding each hint as {BitString leaf, depth,
  // salt count, salts, loads}, most recently used first.
  d.feed(table_.size());
  for (std::uint32_t s = head_; s != kNil; s = table_[s].next) {
    const Slot& slot = table_[s];
    const std::size_t len = table_.length(s);
    d.feed(len);
    const std::uint64_t* words = table_.words(s);
    for (std::size_t i = 0, n = (len + 63) / 64; i < n; ++i) {
      d.feed(words[i]);
    }
    d.feed(slot.depth);
    if (slot.route == 0) {
      d.feed(std::size_t{0});
      continue;
    }
    const auto& route = routes_[slot.route - 1];
    d.feed(route.size());
    for (const mlight::common::ReplicaCopy& c : route) d.feed(c.salt);
    for (const mlight::common::ReplicaCopy& c : route) d.feed(c.load);
  }
}

}  // namespace mlight::cache
