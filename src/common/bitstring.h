// BitString: an arbitrary-length, value-semantic string of bits.
//
// Labels in m-LIGHT (and trie prefixes in PHT, quad-cell paths in DST) are
// binary strings whose length matters and whose tail is manipulated bit by
// bit (append a child edge, truncate during the naming function, invert the
// last bit to reach a sibling).  BitString packs bits into 64-bit words and
// supports exactly those operations, plus ordering/hashing so it can key
// standard containers, and a compact binary serialization.
//
// Representation: small-buffer optimized.  Labels of up to kInlineBits
// (256) bits — deeper than any benchmark workload reaches (D = 28 paths
// over m <= 8 dimensions top out at 233 bits) — live entirely inside the
// object; only longer strings spill to a heap word array.  On the common
// path every copy, prefix, truncate and append is therefore
// allocation-free, which is what makes the §5 probe binary search and
// Algorithm 1 planning cheap on the host.
//
// Storage invariant: within the last occupied word, bits at positions
// >= size() are zero (so equality/hashing can compare whole words); words
// beyond wordCount() are unspecified and never read.
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

namespace mlight::common {

class BitString {
 public:
  /// Bits that fit without heap allocation.
  static constexpr std::size_t kInlineBits = 256;

  BitString() noexcept = default;

  BitString(const BitString& other) { initFrom(other); }
  BitString& operator=(const BitString& other) {
    if (this != &other) assignFrom(other);
    return *this;
  }

  /// Moves leave the source empty (not merely "valid but unspecified"):
  /// labels are shuffled around aggressively during splits/merges and a
  /// half-moved state (storage gone, size kept) would be a trap.
  BitString(BitString&& other) noexcept { stealFrom(other); }
  BitString& operator=(BitString&& other) noexcept {
    if (this != &other) {
      releaseHeap();
      stealFrom(other);
    }
    return *this;
  }

  ~BitString() { releaseHeap(); }

  /// Builds from a textual form such as "00101".  Characters other than
  /// '0'/'1' are rejected (throws std::invalid_argument).
  static BitString fromString(std::string_view text);

  /// A run of `count` copies of `bit`.
  static BitString repeated(bool bit, std::size_t count);

  /// Number of bits.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bit at position `i` (0-based from the front).  Precondition: i < size().
  bool bit(std::size_t i) const noexcept {
    assert(i < size_);
    return (data()[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  /// Last bit.  Precondition: !empty().
  bool back() const noexcept { return bit(size_ - 1); }

  /// Appends one bit at the back.
  void pushBack(bool b) {
    if (size_ == capacityBits()) grow(capWords_ * 2);
    std::uint64_t* w = dataMut() + size_ / kWordBits;
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
    dataMut()[size_ / kWordBits] &=
        ~(std::uint64_t{1} << (size_ % kWordBits));
  }

  /// Sets bit `i`.  Precondition: i < size().
  void setBit(std::size_t i, bool b) noexcept {
    assert(i < size_);
    const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
    if (b) {
      dataMut()[i / kWordBits] |= mask;
    } else {
      dataMut()[i / kWordBits] &= ~mask;
    }
  }

  /// Inverts the last bit in place — moves to the sibling node of a
  /// binary tree without a copy.  Precondition: !empty().
  void flipBack() noexcept {
    assert(size_ > 0);
    dataMut()[(size_ - 1) / kWordBits] ^=
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
      dataMut()[n / kWordBits] &= (std::uint64_t{1} << (n % kWordBits)) - 1;
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

  /// Pre-grows storage so subsequent appends up to `bits` total bits do
  /// not reallocate.
  void reserveBits(std::size_t bits) {
    if (bits > capacityBits()) grow((bits + kWordBits - 1) / kWordBits);
  }

  /// Textual form, e.g. "00101".
  std::string toString() const;

  /// Packed little-endian words (tail bits beyond size() are zero); the
  /// view covers exactly ceil(size()/64) words.  Useful for hashing into
  /// DHT key space.  Invalidated by any mutation of *this.
  std::span<const std::uint64_t> words() const noexcept {
    return {data(), wordCount()};
  }

  /// Stable 64-bit hash of the contents (FNV-1a over words and length).
  std::uint64_t hash64() const noexcept;

  friend bool operator==(const BitString& a, const BitString& b) noexcept {
    return a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(),
                       a.wordCount() * sizeof(std::uint64_t)) == 0;
  }

  /// Lexicographic by bits; a proper prefix orders before its extensions.
  std::strong_ordering operator<=>(const BitString& other) const noexcept;

 private:
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t kInlineWords = kInlineBits / kWordBits;

  union Rep {
    std::uint64_t inl[kInlineWords];
    std::uint64_t* heap;
  };

  bool isInline() const noexcept { return capWords_ == kInlineWords; }
  std::size_t capacityBits() const noexcept { return capWords_ * kWordBits; }
  std::size_t wordCount() const noexcept {
    return (size_ + kWordBits - 1) / kWordBits;
  }
  static std::size_t wordsFor(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }

  const std::uint64_t* data() const noexcept {
    return isInline() ? rep_.inl : rep_.heap;
  }
  std::uint64_t* dataMut() noexcept {
    return isInline() ? rep_.inl : rep_.heap;
  }

  void grow(std::size_t wantWords);
  void releaseHeap() noexcept {
    if (!isInline()) delete[] rep_.heap;
  }

  /// Copy into a freshly constructed (or just-released) object.  Small
  /// sources land inline even when the source itself had spilled.
  void initFrom(const BitString& other);
  /// Copy into a live object, reusing existing heap capacity when it
  /// fits.
  void assignFrom(const BitString& other);
  /// Move guts out of `other`, leaving it empty (inline).
  void stealFrom(BitString& other) noexcept;

  Rep rep_{{0, 0}};
  std::uint32_t capWords_ = kInlineWords;  ///< == kInlineWords ⇒ inline
  std::size_t size_ = 0;                   ///< bits
};

struct BitStringHash {
  std::size_t operator()(const BitString& b) const noexcept {
    return static_cast<std::size_t>(b.hash64());
  }
};

}  // namespace mlight::common
