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
// and releases its replica block.
void LabelHintCache::dropSlot(std::uint32_t slot) {
  unlink(slot);
  --lengthCount_[table_.length(slot)];
  setReplica(slot, {}, {});
  table_.erase(slot);
}

void LabelHintCache::setReplica(std::uint32_t slot,
                                std::vector<std::uint32_t>&& salts,
                                std::vector<std::uint32_t>&& loads) {
  std::uint32_t& ref = table_[slot].replica;
  if (salts.empty() && loads.empty()) {
    if (ref != 0) {
      replicas_[ref - 1] = ReplicaBlock{};
      freeReplicas_.push_back(ref - 1);
      ref = 0;
    }
    return;
  }
  if (ref == 0) {
    if (freeReplicas_.empty()) {
      replicas_.emplace_back();
      ref = static_cast<std::uint32_t>(replicas_.size());
    } else {
      ref = freeReplicas_.back() + 1;
      freeReplicas_.pop_back();
    }
  }
  replicas_[ref - 1] = ReplicaBlock{std::move(salts), std::move(loads)};
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
    if (s.replica == 0) {
      hit_.replicaSalts.clear();
      hit_.replicaLoads.clear();
    } else {
      hit_.replicaSalts = replicas_[s.replica - 1].salts;
      hit_.replicaLoads = replicas_[s.replica - 1].loads;
    }
    return &hit_;
  }
  return nullptr;
}

bool LabelHintCache::learn(const Label& leaf, std::uint32_t depth,
                           std::vector<std::uint32_t> replicaSalts,
                           std::vector<std::uint32_t> replicaLoads) {
  if (capacity_ == 0) return false;
  const std::uint32_t known = table_.find(leaf);
  if (known != mlight::common::kNoLabelSlot) {
    table_[known].depth = depth;
    setReplica(known, std::move(replicaSalts), std::move(replicaLoads));
    unlink(known);
    pushFront(known);
    return false;
  }
  const bool evicted = table_.size() >= capacity_;
  if (evicted) dropSlot(tail_);
  const std::uint32_t slot = table_.insert(leaf);
  table_[slot].depth = depth;
  setReplica(slot, std::move(replicaSalts), std::move(replicaLoads));
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
                  replicas_.capacity() * sizeof(ReplicaBlock) +
                  freeReplicas_.capacity() * sizeof(std::uint32_t) +
                  lengthCount_.capacity() * sizeof(std::uint32_t);
  for (const ReplicaBlock& b : replicas_) {
    n += (b.salts.capacity() + b.loads.capacity()) * sizeof(std::uint32_t);
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
    if (slot.replica == 0) {
      d.feed(std::size_t{0});
      continue;
    }
    const ReplicaBlock& b = replicas_[slot.replica - 1];
    d.feed(b.salts.size());
    for (const std::uint32_t salt : b.salts) d.feed(salt);
    for (const std::uint32_t load : b.loads) d.feed(load);
  }
}

}  // namespace mlight::cache
