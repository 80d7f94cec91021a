// BitString: a value-semantic string of at most kMaxBits (256) bits.
//
// Labels in m-LIGHT (and trie prefixes in PHT, quad-cell paths in DST) are
// binary strings whose length matters and whose tail is manipulated bit by
// bit (append a child edge, truncate during the naming function, invert the
// last bit to reach a sibling).  BitString packs bits into 64-bit words and
// supports exactly those operations, plus ordering so it can key ordered
// containers, and a compact binary serialization.
//
// Representation: four words inside the object, nothing on the heap.  An
// m-LIGHT label is m+1 root bits plus at most D edge bits (§3.4, §5); §7
// uses D = 28, so paper labels stay under 40 bits, and the
// double-precision interleave already caps a path at 52 bits per
// dimension (208 for m <= 4).  A fixed 256 bits is far beyond all of
// these, so the limit is checked where input enters, not stretched: each
// index constructor rejects a depth bound whose labels would not fit, the
// decoder rejects a longer wire length, and an append past the limit
// fails with CheckFailure.  Every copy, prefix, truncate and append is
// allocation-free, which is what makes the §5 probe binary search and
// Algorithm 1 planning cheap on the host.
//
// Storage invariant: within the last occupied word, bits at positions
// >= size() are zero (so equality can compare whole words); words beyond
// wordCount() are unspecified and never read.
#pragma once

#include <bit>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/check.h"

namespace mlight::common {

class BitString {
 public:
  /// The longest label; appending past it throws CheckFailure.
  static constexpr std::size_t kMaxBits = 256;

  BitString() noexcept = default;
  BitString(const BitString&) noexcept = default;
  BitString& operator=(const BitString&) noexcept = default;

  /// Moves leave the source empty (not merely "valid but unspecified"):
  /// labels are shuffled around aggressively during splits/merges and a
  /// half-moved label would be a trap.  A move copies, then clears the
  /// source's size.
  BitString(BitString&& other) noexcept : BitString(other) {
    other.size_ = 0;
  }
  BitString& operator=(BitString&& other) noexcept {
    if (this != &other) {
      *this = other;
      other.size_ = 0;
    }
    return *this;
  }

  /// Builds from a textual form such as "00101".  Characters other than
  /// '0'/'1' are rejected (throws std::invalid_argument).
  static BitString fromString(std::string_view text);

  /// A run of `count` copies of `bit` (count <= kMaxBits).
  static BitString repeated(bool bit, std::size_t count);

  /// Number of bits.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bit at position `i` (0-based from the front).  Precondition: i < size().
  bool bit(std::size_t i) const noexcept {
    assert(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Last bit.  Precondition: !empty().
  bool back() const noexcept { return bit(size_ - 1); }

  /// Appends one bit at the back.
  void pushBack(bool b) {
    requireFits(size_ + 1);
    std::uint64_t* w = words_ + size_ / kWordBits;
    const std::size_t off = size_ % kWordBits;
    if (off == 0) {
      // Entering a fresh word: overwrite it wholesale (storage beyond
      // wordCount() is unspecified, see the invariant above).
      *w = b ? 1u : 0u;
    } else if (b) {
      *w |= std::uint64_t{1} << off;
    }
    ++size_;
  }

  /// Removes the last bit.  Precondition: !empty().
  void popBack() noexcept {
    assert(size_ > 0);
    --size_;
    words_[size_ / kWordBits] &= ~(std::uint64_t{1} << (size_ % kWordBits));
  }

  /// Sets bit `i`.  Precondition: i < size().
  void setBit(std::size_t i, bool b) noexcept {
    assert(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
    if (b) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }

  /// Inverts the last bit in place — moves to the sibling node of a
  /// binary tree without a copy.  Precondition: !empty().
  void flipBack() noexcept {
    assert(size_ > 0);
    words_[(size_ - 1) / kWordBits] ^=
        std::uint64_t{1} << ((size_ - 1) % kWordBits);
  }

  /// Returns *this with `b` appended (non-mutating convenience).
  BitString withBack(bool b) const;

  /// First `n` bits.  Precondition: n <= size().
  BitString prefix(std::size_t n) const;

  /// In-place prefix: keeps the first `n` bits, drops the rest (the
  /// naming function's repeated popBack, in one masked step).
  /// Precondition: n <= size().
  void truncate(std::size_t n) noexcept {
    assert(n <= size_);
    size_ = n;
    if (n % kWordBits != 0) {
      words_[n / kWordBits] &= (std::uint64_t{1} << (n % kWordBits)) - 1;
    }
  }

  /// The sibling of the length-`n` ancestor: prefix(n) with its last bit
  /// inverted, in one construction (range forwarding's branch labels).
  /// Precondition: 0 < n <= size().
  BitString prefixSibling(std::size_t n) const {
    BitString out = prefix(n);
    out.flipBack();
    return out;
  }

  /// True iff *this is a (non-strict) prefix of `other`.
  bool isPrefixOf(const BitString& other) const noexcept;

  /// Number of leading bits shared with `other` (word-parallel; at most
  /// min(size(), other.size())).
  std::size_t commonPrefixLength(const BitString& other) const noexcept;

  /// Returns a copy with the last bit inverted — the label of the sibling
  /// node in a binary tree.  Precondition: !empty().
  BitString sibling() const;

  /// Appends all bits of `tail` at the back, word-parallel.
  void appendBits(const BitString& tail);

  /// Alias for appendBits (historical name).
  void append(const BitString& tail) { appendBits(tail); }

  /// Appends the low `count` bits of `word` (count <= 64) — the serde
  /// decode path builds labels one wire word at a time.
  void appendWordBits(std::uint64_t word, std::size_t count);

  /// Textual form, e.g. "00101".
  std::string toString() const;

  /// Packed little-endian words (tail bits beyond size() are zero); the
  /// view covers exactly ceil(size()/64) words.  Useful for hashing into
  /// DHT key space.  Invalidated by any mutation of *this.
  std::span<const std::uint64_t> words() const noexcept {
    return {words_, wordCount()};
  }

  friend bool operator==(const BitString& a, const BitString& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.words_, b.words_,
                       a.wordCount() * sizeof(std::uint64_t)) == 0;
  }

  /// Lexicographic by bits; a proper prefix orders before its extensions.
  std::strong_ordering operator<=>(const BitString& other) const noexcept;

 private:
  static constexpr std::size_t kWordBits = 64;

  std::size_t wordCount() const noexcept { return wordsFor(size_); }
  static std::size_t wordsFor(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }
  /// The one limit check of every append path.
  static void requireFits(std::size_t bits) {
    MLIGHT_CHECK(bits <= kMaxBits,
                 "BitString: " + std::to_string(bits) +
                     " bits exceed the " + std::to_string(kMaxBits) +
                     "-bit label limit");
  }

  std::uint64_t words_[kMaxBits / kWordBits] = {};
  std::size_t size_ = 0;  ///< bits
};

}  // namespace mlight::common
