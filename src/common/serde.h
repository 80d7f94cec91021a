// Minimal binary serialization.
//
// Buckets and records cross the (simulated) network; data-movement cost in
// the paper is measured in shipped payload.  Serializing through a real
// byte format keeps the byte accounting honest and exercises the same
// code path a deployed over-DHT index would use.
//
// Format: little-endian fixed-width integers, IEEE doubles, length-prefixed
// strings and sequences.  Readers validate lengths and throw
// SerdeError on truncated or malformed input.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitstring.h"

namespace mlight::common {

class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Append-only byte sink.
class Writer {
 public:
  Writer() = default;

  /// Adopts `reuse` as the backing store (cleared, capacity kept) so hot
  /// paths can serialize into a pooled buffer instead of allocating.
  explicit Writer(std::vector<std::uint8_t>&& reuse) noexcept
      : bytes_(std::move(reuse)) {
    bytes_.clear();
  }

  void writeU8(std::uint8_t v) { bytes_.push_back(v); }
  void writeU32(std::uint32_t v) { writeLe(v); }
  void writeU64(std::uint64_t v) { writeLe(v); }
  void writeDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    writeU64(bits);
  }
  void writeString(std::string_view s) {
    writeU32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  /// Length-prefixed raw byte blob (nested payloads, e.g. RPC bodies).
  void writeBytes(std::span<const std::uint8_t> b) {
    writeU32(static_cast<std::uint32_t>(b.size()));
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  void writeBitString(const BitString& b) {
    writeU32(static_cast<std::uint32_t>(b.size()));
    for (std::uint64_t w : b.words()) writeU64(w);
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }
  std::vector<std::uint8_t> take() && noexcept { return std::move(bytes_); }

 private:
  /// One capacity check and one copy per field on little-endian hosts;
  /// the byte loop is the portable fallback.  Same bytes either way.
  template <typename T>
  void writeLe(T v) {
    if constexpr (std::endian::native == std::endian::little) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
      bytes_.insert(bytes_.end(), p, p + sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential byte source over a borrowed buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) noexcept
      : bytes_(bytes) {}

  std::uint8_t readU8() { return readLe<std::uint8_t>(); }
  std::uint32_t readU32() { return readLe<std::uint32_t>(); }
  std::uint64_t readU64() { return readLe<std::uint64_t>(); }
  double readDouble() {
    const std::uint64_t bits = readU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string readString() {
    const std::uint32_t n = readU32();
    require(n);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  std::vector<std::uint8_t> readBytes() {
    std::vector<std::uint8_t> out;
    readBytesInto(out);
    return out;
  }
  /// readBytes into a caller-owned (possibly pooled) buffer, reusing its
  /// capacity instead of allocating a fresh vector per message.
  void readBytesInto(std::vector<std::uint8_t>& out) {
    const auto blob = readBytesView();
    out.assign(blob.begin(), blob.end());
  }
  /// readBytes without the copy: a view of the blob inside this
  /// reader's buffer, valid as long as that buffer is.
  std::span<const std::uint8_t> readBytesView() {
    const std::uint32_t n = readU32();
    require(n);
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  BitString readBitString() {
    const std::uint32_t nbits = readU32();
    // A forged length is rejected before any word is decoded: it may not
    // exceed the label limit, nor the bytes actually on the wire.
    if (nbits > BitString::kMaxBits) {
      throw SerdeError("serde: bit-string length exceeds the label limit");
    }
    if ((static_cast<std::size_t>(nbits) + 63) / 64 > remaining() / 8) {
      throw SerdeError("serde: bit-string length exceeds remaining bytes");
    }
    BitString out;
    for (std::size_t done = 0; done < nbits; done += 64) {
      out.appendWordBits(readU64(), std::min<std::size_t>(64, nbits - done));
    }
    return out;
  }

  bool atEnd() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Validates an element count read from the wire against the bytes
  /// actually left (each element needs at least `minElementBytes`);
  /// prevents attacker-controlled counts from driving huge
  /// pre-allocations on corrupt input.
  std::uint32_t readCount(std::size_t minElementBytes) {
    const std::uint32_t n = readU32();
    if (minElementBytes != 0 &&
        static_cast<std::size_t>(n) > remaining() / minElementBytes) {
      throw SerdeError("serde: element count exceeds remaining bytes");
    }
    return n;
  }

 private:
  void require(std::size_t n) const {
    if (bytes_.size() - pos_ < n) {
      throw SerdeError("serde: truncated input");
    }
  }

  template <typename T>
  T readLe() {
    require(sizeof(T));
    T v{};
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v |
                           (static_cast<T>(bytes_[pos_ + i]) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mlight::common
