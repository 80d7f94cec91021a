#include "common/bitstring.h"

#include <algorithm>
#include <stdexcept>

namespace mlight::common {

BitString BitString::fromString(std::string_view text) {
  BitString out;
  for (char c : text) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitString::fromString: invalid char");
    }
    out.pushBack(c == '1');
  }
  return out;
}

BitString BitString::repeated(bool bitValue, std::size_t count) {
  requireFits(count);
  BitString out;
  const std::size_t n = wordsFor(count);
  std::fill_n(out.words_, n, bitValue ? ~std::uint64_t{0} : std::uint64_t{0});
  if (bitValue && count % kWordBits != 0) {
    out.words_[n - 1] &= (std::uint64_t{1} << (count % kWordBits)) - 1;
  }
  out.size_ = count;
  return out;
}

BitString BitString::withBack(bool b) const {
  BitString out = *this;
  out.pushBack(b);
  return out;
}

BitString BitString::prefix(std::size_t n) const {
  assert(n <= size_);
  BitString out;
  const std::size_t nw = wordsFor(n);
  std::memcpy(out.words_, words_, nw * sizeof(std::uint64_t));
  if (n % kWordBits != 0) {
    out.words_[nw - 1] &= (std::uint64_t{1} << (n % kWordBits)) - 1;
  }
  out.size_ = n;
  return out;
}

bool BitString::isPrefixOf(const BitString& other) const noexcept {
  return size_ <= other.size_ && commonPrefixLength(other) == size_;
}

std::size_t BitString::commonPrefixLength(
    const BitString& other) const noexcept {
  const std::size_t limit = std::min(size_, other.size_);
  const std::uint64_t* a = words_;
  const std::uint64_t* b = other.words_;
  const std::size_t nw = wordsFor(limit);
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t x = a[w] ^ b[w];
    if (x != 0) {
      return std::min(
          limit, w * kWordBits + static_cast<std::size_t>(std::countr_zero(x)));
    }
  }
  return limit;
}

BitString BitString::sibling() const {
  assert(size_ > 0);
  BitString out = *this;
  out.flipBack();
  return out;
}

void BitString::appendBits(const BitString& tail) {
  if (&tail == this) {
    const BitString copy = tail;
    appendBits(copy);
    return;
  }
  if (tail.size_ == 0) return;
  requireFits(size_ + tail.size_);
  const std::size_t base = size_ / kWordBits;
  const std::size_t off = size_ % kWordBits;
  const std::size_t tw = tail.wordCount();
  std::uint64_t* dst = words_ + base;
  const std::uint64_t* src = tail.words_;
  if (off == 0) {
    std::memcpy(dst, src, tw * sizeof(std::uint64_t));
  } else {
    // A carry into a word past the result holds only tail bits beyond
    // tail.size(), which are zero: skip it, or a result ending in the
    // last word would write past the array.
    const std::size_t last = wordsFor(size_ + tail.size_) - base;
    for (std::size_t w = 0; w < tw; ++w) {
      // dst[w] was either live (w == 0, tail bits beyond size_ are zero)
      // or assigned by the previous iteration's carry — OR is exact.
      dst[w] |= src[w] << off;
      if (w + 1 < last) dst[w + 1] = src[w] >> (kWordBits - off);
    }
  }
  size_ += tail.size_;
}

void BitString::appendWordBits(std::uint64_t word, std::size_t count) {
  assert(count <= kWordBits);
  if (count == 0) return;
  if (count < kWordBits) word &= (std::uint64_t{1} << count) - 1;
  requireFits(size_ + count);
  const std::size_t base = size_ / kWordBits;
  const std::size_t off = size_ % kWordBits;
  std::uint64_t* dst = words_;
  if (off == 0) {
    dst[base] = word;
  } else {
    dst[base] |= word << off;
    if (off + count > kWordBits) dst[base + 1] = word >> (kWordBits - off);
  }
  size_ += count;
}

std::string BitString::toString() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

std::strong_ordering BitString::operator<=>(
    const BitString& other) const noexcept {
  const std::size_t limit = std::min(size_, other.size_);
  const std::size_t cpl = commonPrefixLength(other);
  if (cpl < limit) {
    return bit(cpl) ? std::strong_ordering::greater
                    : std::strong_ordering::less;
  }
  return size_ <=> other.size_;
}

}  // namespace mlight::common
