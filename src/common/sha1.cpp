#include "common/sha1.h"

#include <bit>
#include <cstring>
#include <utility>

namespace mlight::common {

namespace {

constexpr std::uint32_t rotl(std::uint32_t v, int s) noexcept {
  return std::rotl(v, s);
}

using Schedule = std::array<std::uint32_t, 16>;

/// Round T of the compression on the rotated roles (a, b, c, d, e): adds
/// the new working value into `e` and rotates `b`, so the caller names
/// the next round's roles (e, a, b, c, d) instead of moving five words.
/// The message schedule rolls through 16 words: word T replaces word
/// T - 16 in place.  Every branch below is resolved at compile time.
template <std::size_t T>
[[gnu::always_inline]] inline void step(Schedule& w, std::uint32_t a,
                                        std::uint32_t& b, std::uint32_t c,
                                        std::uint32_t d,
                                        std::uint32_t& e) noexcept {
  if constexpr (T >= 16) {
    w[T & 15] = rotl(w[(T + 13) & 15] ^ w[(T + 8) & 15] ^
                         w[(T + 2) & 15] ^ w[T & 15],
                     1);
  }
  const std::uint32_t f = [&] {
    if constexpr (T < 20) {
      return d ^ (b & (c ^ d));  // (b & c) | (~b & d)
    } else if constexpr (T >= 40 && T < 60) {
      return (b & c) | (d & (b | c));  // majority of b, c, d
    } else {
      return b ^ c ^ d;
    }
  }();
  constexpr std::uint32_t kK[4] = {0x5A827999u, 0x6ED9EBA1u, 0x8F1BBCDCu,
                                   0xCA62C1D6u};
  e += rotl(a, 5) + f + kK[T / 20] + w[T & 15];
  b = rotl(b, 30);
}

/// Rounds T .. T + 4; after five rounds the roles are back in place.
template <std::size_t T>
[[gnu::always_inline]] inline void fiveRounds(Schedule& w, std::uint32_t& a,
                                              std::uint32_t& b,
                                              std::uint32_t& c,
                                              std::uint32_t& d,
                                              std::uint32_t& e) noexcept {
  step<T>(w, a, b, c, d, e);
  step<T + 1>(w, e, a, b, c, d);
  step<T + 2>(w, d, e, a, b, c);
  step<T + 3>(w, c, d, e, a, b);
  step<T + 4>(w, b, c, d, e, a);
}

/// All 80 rounds, as sixteen groups of five.
template <std::size_t... G>
[[gnu::always_inline]] inline void allRounds(std::index_sequence<G...>,
                                             Schedule& w, std::uint32_t& a,
                                             std::uint32_t& b,
                                             std::uint32_t& c,
                                             std::uint32_t& d,
                                             std::uint32_t& e) noexcept {
  (fiveRounds<5 * G>(w, a, b, c, d, e), ...);
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  totalBytes_ = 0;
  bufferLen_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  totalBytes_ += data.size();
  std::size_t offset = 0;
  if (bufferLen_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - bufferLen_);
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset += take;
    if (bufferLen_ == 64) {
      processBlock(buffer_.data());
      bufferLen_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    processBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    bufferLen_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, bufferLen_);
  }
}

void Sha1::update(std::string_view text) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha1Digest Sha1::finish() noexcept {
  // Length is latched before padding; update() below keeps adjusting
  // totalBytes_ but that no longer matters.  The 0x80 marker, the zero
  // run, and the 8-byte big-endian bit length are assembled into one
  // buffer so padding costs one or two block transforms, not a 1-byte
  // update() call per padding byte.
  const std::uint64_t bitLen = totalBytes_ * 8;
  std::array<std::uint8_t, 128> pad{};
  pad[0] = 0x80;
  const std::size_t padLen =
      (bufferLen_ < 56 ? 56 - bufferLen_ : 120 - bufferLen_);
  for (int i = 0; i < 8; ++i) {
    pad[padLen + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad.data(), padLen + 8));

  Sha1Digest digest{};
  for (std::size_t i = 0; i < 5; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

void Sha1::processBlock(const std::uint8_t* block) noexcept {
  Schedule w{};
  for (std::size_t t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[4 * t]) << 24) |
           (static_cast<std::uint32_t>(block[4 * t + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * t + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * t + 3]);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];

  allRounds(std::make_index_sequence<16>{}, w, a, b, c, d, e);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1Digest sha1(std::string_view text) noexcept {
  Sha1 h;
  h.update(text);
  return h.finish();
}

std::string toHex(const Sha1Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

std::uint64_t digestPrefix64(const Sha1Digest& digest) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

}  // namespace mlight::common
