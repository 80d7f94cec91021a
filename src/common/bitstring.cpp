#include "common/bitstring.h"

#include <algorithm>
#include <stdexcept>

namespace mlight::common {

BitString BitString::fromString(std::string_view text) {
  BitString out;
  out.reserveBits(text.size());
  for (char c : text) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitString::fromString: invalid char");
    }
    out.pushBack(c == '1');
  }
  return out;
}

BitString BitString::repeated(bool bitValue, std::size_t count) {
  BitString out;
  out.reserveBits(count);
  const std::size_t n = wordsFor(count);
  std::uint64_t* w = out.dataMut();
  std::fill_n(w, n, bitValue ? ~std::uint64_t{0} : std::uint64_t{0});
  if (bitValue && count % kWordBits != 0) {
    w[n - 1] &= (std::uint64_t{1} << (count % kWordBits)) - 1;
  }
  out.size_ = count;
  return out;
}

void BitString::grow(std::size_t wantWords) {
  const std::size_t newCap = std::max(wantWords, std::size_t{capWords_} * 2);
  auto* p = new std::uint64_t[newCap];
  std::memcpy(p, data(), wordCount() * sizeof(std::uint64_t));
  releaseHeap();
  rep_.heap = p;
  capWords_ = static_cast<std::uint32_t>(newCap);
}

void BitString::initFrom(const BitString& other) {
  const std::size_t n = other.wordCount();
  if (n > kInlineWords) {
    rep_.heap = new std::uint64_t[n];
    capWords_ = static_cast<std::uint32_t>(n);
  }
  std::memcpy(dataMut(), other.data(), n * sizeof(std::uint64_t));
  size_ = other.size_;
}

void BitString::assignFrom(const BitString& other) {
  const std::size_t n = other.wordCount();
  if (n > capWords_) grow(n);
  std::memcpy(dataMut(), other.data(), n * sizeof(std::uint64_t));
  size_ = other.size_;
}

void BitString::stealFrom(BitString& other) noexcept {
  rep_ = other.rep_;
  capWords_ = other.capWords_;
  size_ = other.size_;
  other.capWords_ = kInlineWords;
  other.size_ = 0;
}

BitString BitString::withBack(bool b) const {
  BitString out = *this;
  out.pushBack(b);
  return out;
}

BitString BitString::prefix(std::size_t n) const {
  assert(n <= size_);
  BitString out;
  out.reserveBits(n);
  const std::size_t nw = wordsFor(n);
  std::memcpy(out.dataMut(), data(), nw * sizeof(std::uint64_t));
  if (n % kWordBits != 0) {
    out.dataMut()[nw - 1] &= (std::uint64_t{1} << (n % kWordBits)) - 1;
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
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
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
  const std::size_t base = size_ / kWordBits;
  const std::size_t off = size_ % kWordBits;
  const std::size_t tw = tail.wordCount();
  // The shifted merge below may touch one word past the final wordCount;
  // that word stays within capacity and beyond-size words are unspecified.
  if (capWords_ < base + tw + 1) grow(base + tw + 1);
  std::uint64_t* dst = dataMut() + base;
  const std::uint64_t* src = tail.data();
  if (off == 0) {
    std::memcpy(dst, src, tw * sizeof(std::uint64_t));
  } else {
    for (std::size_t w = 0; w < tw; ++w) {
      // dst[w] was either live (w == 0, tail bits beyond size_ are zero)
      // or assigned by the previous iteration's carry — OR is exact.
      dst[w] |= src[w] << off;
      dst[w + 1] = src[w] >> (kWordBits - off);
    }
  }
  size_ += tail.size_;
}

void BitString::appendWordBits(std::uint64_t word, std::size_t count) {
  assert(count <= kWordBits);
  if (count == 0) return;
  if (count < kWordBits) word &= (std::uint64_t{1} << count) - 1;
  reserveBits(size_ + count);
  const std::size_t base = size_ / kWordBits;
  const std::size_t off = size_ % kWordBits;
  std::uint64_t* dst = dataMut();
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

std::uint64_t BitString::hash64() const noexcept {
  // FNV-1a over the length then the packed words, byte by byte — the
  // exact pre-SBO algorithm, so persisted/derived key material matches.
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(size_);
  const std::uint64_t* w = data();
  const std::size_t n = wordCount();
  for (std::size_t i = 0; i < n; ++i) mix(w[i]);
  return h;
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
