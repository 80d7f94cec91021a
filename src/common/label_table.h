// LabelTable: a flat directory from labels to dense u32 slots, each slot
// carrying its owner's per-label payload.
//
// Every label-keyed structure of the store and the hint cache keeps its
// per-label state in one table: the table resolves a label to its slot
// and stores the slot's payload next to the label's length, so a lookup
// and the state it is for share one array.  One code path serves every
// label length, including the empty label (the PHT and DST root), which
// is an ordinary key here.
//
// Layout (docs/COST_MODEL.md "Label-keyed store state"):
//  * words_ holds each slot's label words at words_[slot * stride_], tail
//    bits zeroed.  stride_ is the word count of the longest label ever
//    inserted (at most 4: BitString::kMaxBits is 256); a longer label
//    re-strides the whole pool (rare — a tree's depth bound fixes it
//    after the first few inserts);
//  * slots_ holds each slot's label length in bits (kFreeLen marks a
//    freed slot) and its payload; freed slots are handed out again, last
//    freed first, before the arrays grow;
//  * index_ is open addressing with linear probing over slot+1 (0 =
//    empty), load <= 1/2, deletion by backward shift (no tombstones).
//    The hash is a multiply-xorshift mix over (length, words).
//
// Nothing iterates the index, and slot numbers are allocation order, not
// label order: callers that feed digests or traffic walk a slot list
// sorted with less().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitstring.h"

namespace mlight::common {

/// "No such label" from LabelTable::find.
inline constexpr std::uint32_t kNoLabelSlot = ~std::uint32_t{0};

namespace label_table_detail {

inline std::size_t wordsFor(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

inline std::uint64_t mix(const std::uint64_t* words,
                         std::uint32_t len) noexcept {
  std::uint64_t h = len * 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0, n = wordsFor(len); i < n; ++i) {
    h = (h ^ words[i]) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h ^ (h >> 29);
}

/// BitString's order (lexicographic by bits, a proper prefix before its
/// extensions) over two packed labels.
bool less(const std::uint64_t* a, std::uint32_t lenA, const std::uint64_t* b,
          std::uint32_t lenB) noexcept;

BitString toBitString(const std::uint64_t* words, std::uint32_t len);

}  // namespace label_table_detail

/// `Payload` is the caller's per-label state: default-constructed when a
/// label is inserted, reset to a default value when it is erased, and
/// moved (never copied) when the table grows.
template <typename Payload>
class LabelTable {
 public:
  /// Labels currently held.
  std::size_t size() const noexcept { return size_; }
  /// One past the highest slot ever handed out: every live slot is below
  /// it (freed slots are too — see live()).
  std::uint32_t slotLimit() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  bool live(std::uint32_t slot) const noexcept {
    return slots_[slot].len != kFreeLen;
  }

  /// Slot holding the label (words, len), or kNoLabelSlot.  `words` is
  /// the label's ceil(len/64) packed words with the tail bits zeroed (the
  /// BitString::words() layout).
  std::uint32_t find(const std::uint64_t* words, std::uint32_t len) const {
    if (size_ == 0) return kNoLabelSlot;
    const std::uint32_t e = index_[probe(words, len)];
    return e == 0 ? kNoLabelSlot : e - 1;
  }
  std::uint32_t find(const BitString& label) const {
    return find(label.words().data(),
                static_cast<std::uint32_t>(label.size()));
  }

  /// Slot holding the label, inserting it with a default payload first
  /// if absent (then `*inserted` is set).  Insertion may re-stride the
  /// word pool and move payloads, so neither a words() pointer nor a
  /// payload reference survives it; slot numbers always do.
  std::uint32_t insert(const std::uint64_t* words, std::uint32_t len,
                       bool* inserted = nullptr);
  std::uint32_t insert(const BitString& label, bool* inserted = nullptr) {
    return insert(label.words().data(),
                  static_cast<std::uint32_t>(label.size()), inserted);
  }

  /// Removes a live slot's label and resets its payload; the slot number
  /// is handed out again by a later insert.
  void erase(std::uint32_t slot);

  Payload& operator[](std::uint32_t slot) noexcept {
    return slots_[slot].payload;
  }
  const Payload& operator[](std::uint32_t slot) const noexcept {
    return slots_[slot].payload;
  }

  /// A live slot's label length in bits and packed words.
  std::uint32_t length(std::uint32_t slot) const noexcept {
    return slots_[slot].len;
  }
  const std::uint64_t* words(std::uint32_t slot) const noexcept {
    return words_.data() + slot * stride_;
  }
  /// A live slot's label, rebuilt as a BitString.
  BitString label(std::uint32_t slot) const {
    return label_table_detail::toBitString(words(slot), length(slot));
  }

  /// BitString's order over two live slots' labels.
  bool less(std::uint32_t a, std::uint32_t b) const noexcept {
    return label_table_detail::less(words(a), length(a), words(b),
                                    length(b));
  }

  /// Bytes held by the table's arrays (vector capacities, not sizes).
  std::size_t memoryBytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           words_.capacity() * sizeof(std::uint64_t) +
           (index_.capacity() + freeSlots_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kFreeLen = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t len = kFreeLen;
    Payload payload{};
  };

  std::size_t homeOf(const std::uint64_t* words,
                     std::uint32_t len) const noexcept {
    return static_cast<std::size_t>(label_table_detail::mix(words, len)) &
           (index_.size() - 1);
  }

  /// Index position holding the label, or the empty position where it
  /// would go.  Precondition: index_ is non-empty (and, at load <= 1/2,
  /// always has an empty position).
  std::size_t probe(const std::uint64_t* words, std::uint32_t len) const {
    const std::size_t mask = index_.size() - 1;
    const std::size_t n = label_table_detail::wordsFor(len);
    for (std::size_t pos = homeOf(words, len);; pos = (pos + 1) & mask) {
      const std::uint32_t e = index_[pos];
      if (e == 0) return pos;
      if (slots_[e - 1].len == len) {
        const std::uint64_t* held = this->words(e - 1);
        std::size_t i = 0;
        while (i < n && held[i] == words[i]) ++i;
        if (i == n) return pos;
      }
    }
  }

  void rehash(std::size_t tableSize);
  void restride(std::size_t words);

  std::size_t size_ = 0;
  std::size_t stride_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> freeSlots_;
};

template <typename Payload>
std::uint32_t LabelTable<Payload>::insert(const std::uint64_t* words,
                                          std::uint32_t len, bool* inserted) {
  // The probe position stays valid below unless the index is rebuilt.
  std::size_t pos = 0;
  if (!index_.empty()) {
    pos = probe(words, len);
    if (index_[pos] != 0) {
      if (inserted != nullptr) *inserted = false;
      return index_[pos] - 1;
    }
  }
  const std::size_t n = label_table_detail::wordsFor(len);
  if (n > stride_) restride(n);
  std::uint32_t slot;
  if (!freeSlots_.empty()) {
    slot = freeSlots_.back();
    freeSlots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    words_.resize(slots_.size() * stride_);
  }
  const auto dst =
      words_.begin() + static_cast<std::ptrdiff_t>(slot * stride_);
  std::fill(std::copy(words, words + n, dst),
            dst + static_cast<std::ptrdiff_t>(stride_), 0);
  slots_[slot].len = len;
  ++size_;
  if (2 * size_ > index_.size()) {
    rehash(std::max<std::size_t>(16, 2 * index_.size()));
  } else {
    index_[pos] = slot + 1;
  }
  if (inserted != nullptr) *inserted = true;
  return slot;
}

// Backward-shift deletion: walk the probe run after the hole and pull
// back every entry whose home does not lie strictly between the hole and
// the entry, so no lookup ever stops early at a stale gap.
template <typename Payload>
void LabelTable<Payload>::erase(std::uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = homeOf(words(slot), slots_[slot].len);
  while (index_[hole] != slot + 1) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j] != 0;
       j = (j + 1) & mask) {
    const std::uint32_t s = index_[j] - 1;
    const std::size_t home = homeOf(words(s), slots_[s].len);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
  slots_[slot] = Slot{};
  freeSlots_.push_back(slot);
  --size_;
}

template <typename Payload>
void LabelTable<Payload>::rehash(std::size_t tableSize) {
  index_.assign(tableSize, 0);
  const std::size_t mask = tableSize - 1;
  for (std::uint32_t s = 0; s < slotLimit(); ++s) {
    if (!live(s)) continue;
    std::size_t pos = homeOf(words(s), slots_[s].len);
    while (index_[pos] != 0) pos = (pos + 1) & mask;
    index_[pos] = s + 1;
  }
}

template <typename Payload>
void LabelTable<Payload>::restride(std::size_t words) {
  std::vector<std::uint64_t> wider(slots_.size() * words, 0);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(s * stride_),
                stride_,
                wider.begin() + static_cast<std::ptrdiff_t>(s * words));
  }
  words_ = std::move(wider);
  stride_ = words;
}

}  // namespace mlight::common
