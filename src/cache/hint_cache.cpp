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

namespace {

std::size_t wordsFor(std::size_t bits) noexcept { return (bits + 63) / 64; }

}  // namespace

std::size_t LabelHintCache::homeOf(const std::uint64_t* words,
                                   std::uint32_t len) const noexcept {
  std::uint64_t h = len * 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0, n = wordsFor(len); i < n; ++i) {
    h = (h ^ words[i]) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return static_cast<std::size_t>(h ^ (h >> 29)) & (index_.size() - 1);
}

// Index position holding the slot whose label is (words, len), or the
// empty position where it would be inserted.  Precondition: index_ is
// non-empty (and, at load <= 1/2, always has an empty position).
std::size_t LabelHintCache::find(const std::uint64_t* words,
                                 std::uint32_t len) const {
  const std::size_t mask = index_.size() - 1;
  const std::size_t n = wordsFor(len);
  for (std::size_t pos = homeOf(words, len);; pos = (pos + 1) & mask) {
    const std::uint32_t e = index_[pos];
    if (e == 0) return pos;
    if (slots_[e - 1].len == len &&
        std::equal(words, words + n, labelOf(e - 1))) {
      return pos;
    }
  }
}

// Backward-shift deletion: walk the probe run after the hole and pull
// back every entry whose home does not lie strictly between the hole and
// the entry, so no lookup ever stops early at a stale gap.
void LabelHintCache::eraseAt(std::size_t pos) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = pos;
  for (std::size_t j = (pos + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    const std::uint32_t slot = index_[j] - 1;
    const std::size_t home = homeOf(labelOf(slot), slots_[slot].len);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void LabelHintCache::rehash(std::size_t tableSize) {
  index_.assign(tableSize, 0);
  const std::size_t mask = tableSize - 1;
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    std::size_t pos = homeOf(labelOf(s), slots_[s].len);
    while (index_[pos] != 0) pos = (pos + 1) & mask;
    index_[pos] = s + 1;
  }
}

void LabelHintCache::restride(std::size_t words) {
  std::vector<std::uint64_t> wider(slots_.size() * words, 0);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    std::copy_n(labels_.begin() + static_cast<std::ptrdiff_t>(s * stride_),
                stride_,
                wider.begin() + static_cast<std::ptrdiff_t>(s * words));
  }
  labels_ = std::move(wider);
  stride_ = words;
}

void LabelHintCache::unlink(std::uint32_t slot) noexcept {
  const Slot& s = slots_[slot];
  (s.prev == kNil ? head_ : slots_[s.prev].next) = s.next;
  (s.next == kNil ? tail_ : slots_[s.next].prev) = s.prev;
}

void LabelHintCache::pushFront(std::uint32_t slot) noexcept {
  slots_[slot].prev = kNil;
  slots_[slot].next = head_;
  (head_ == kNil ? tail_ : slots_[head_].prev) = slot;
  head_ = slot;
}

// Removes `slot` from the LRU and the length counts and releases its
// replica block; the caller owns the index entry and the slot itself.
void LabelHintCache::dropSlot(std::uint32_t slot) {
  unlink(slot);
  --lengthCount_[slots_[slot].len];
  setReplica(slot, {}, {});
  --size_;
}

void LabelHintCache::setReplica(std::uint32_t slot,
                                std::vector<std::uint32_t>&& salts,
                                std::vector<std::uint32_t>&& loads) {
  std::uint32_t& ref = slots_[slot].replica;
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
  const auto path = fullPath.words();
  key_.assign(path.begin(), path.end());
  for (std::size_t len = maxLen; len-- > 0;) {
    if (lengthCount_[len] == 0) continue;
    if (len % 64 != 0) key_[len / 64] &= (std::uint64_t{1} << (len % 64)) - 1;
    const std::uint32_t e =
        index_[find(key_.data(), static_cast<std::uint32_t>(len))];
    if (e == 0) continue;
    const std::uint32_t slot = e - 1;
    unlink(slot);
    pushFront(slot);
    const Slot& s = slots_[slot];
    hit_.leaf.truncate(0);
    const std::uint64_t* words = labelOf(slot);
    for (std::size_t done = 0; done < s.len; done += 64) {
      hit_.leaf.appendWordBits(*words++,
                               std::min<std::size_t>(64, s.len - done));
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
  const auto words = leaf.words();
  const auto len = static_cast<std::uint32_t>(leaf.size());
  if (size_ != 0) {
    const std::uint32_t e = index_[find(words.data(), len)];
    if (e != 0) {
      slots_[e - 1].depth = depth;
      setReplica(e - 1, std::move(replicaSalts), std::move(replicaLoads));
      unlink(e - 1);
      pushFront(e - 1);
      return false;
    }
  }
  if (words.size() > stride_) restride(words.size());
  bool evicted = false;
  std::uint32_t slot;
  if (size_ >= capacity_) {
    slot = tail_;
    eraseAt(find(labelOf(slot), slots_[slot].len));
    dropSlot(slot);
    evicted = true;
  } else if (freeSlot_ != kNil) {
    slot = freeSlot_;
    freeSlot_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    labels_.resize(slots_.size() * stride_);
  }
  const auto dst =
      labels_.begin() + static_cast<std::ptrdiff_t>(slot * stride_);
  std::fill(std::copy(words.begin(), words.end(), dst), dst + stride_, 0);
  slots_[slot] = Slot{kNil, kNil, depth, len, 0};
  setReplica(slot, std::move(replicaSalts), std::move(replicaLoads));
  pushFront(slot);
  if (len >= lengthCount_.size()) lengthCount_.resize(len + 1, 0);
  ++lengthCount_[len];
  ++size_;
  if (2 * size_ > index_.size()) {
    rehash(std::max<std::size_t>(16, 2 * index_.size()));
  } else {
    index_[find(words.data(), len)] = slot + 1;
  }
  return evicted;
}

void LabelHintCache::forget(const Label& leaf) {
  if (size_ == 0) return;
  const auto len = static_cast<std::uint32_t>(leaf.size());
  const std::size_t pos = find(leaf.words().data(), len);
  const std::uint32_t e = index_[pos];
  if (e == 0) return;
  eraseAt(pos);
  dropSlot(e - 1);
  slots_[e - 1].next = freeSlot_;
  freeSlot_ = e - 1;
}

std::size_t LabelHintCache::memoryBytes() const noexcept {
  std::size_t n = slots_.capacity() * sizeof(Slot) +
                  labels_.capacity() * sizeof(std::uint64_t) +
                  index_.capacity() * sizeof(std::uint32_t) +
                  replicas_.capacity() * sizeof(ReplicaBlock) +
                  freeReplicas_.capacity() * sizeof(std::uint32_t) +
                  lengthCount_.capacity() * sizeof(std::uint32_t) +
                  key_.capacity() * sizeof(std::uint64_t);
  for (const ReplicaBlock& b : replicas_) {
    n += (b.salts.capacity() + b.loads.capacity()) * sizeof(std::uint32_t);
  }
  return n;
}

void LabelHintCache::digestState(mlight::common::Digest& d) const {
  // The byte stream of feeding each hint as {BitString leaf, depth,
  // salt count, salts, loads}, most recently used first.
  d.feed(size_);
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    const Slot& slot = slots_[s];
    d.feed(static_cast<std::size_t>(slot.len));
    const std::uint64_t* words = labelOf(s);
    for (std::size_t i = 0, n = wordsFor(slot.len); i < n; ++i) {
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
