#include "common/serde.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "index/record.h"

namespace mlight::common {
namespace {

TEST(Serde, ScalarRoundTrip) {
  Writer w;
  w.writeU8(0xAB);
  w.writeU32(0xDEADBEEF);
  w.writeU64(0x0123456789ABCDEFull);
  w.writeDouble(0.337);
  Reader r(w.bytes());
  EXPECT_EQ(r.readU8(), 0xAB);
  EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.readU64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.readDouble(), 0.337);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serde, StringRoundTrip) {
  Writer w;
  w.writeString("");
  w.writeString("hello");
  w.writeString(std::string(1000, 'z'));
  Reader r(w.bytes());
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readString(), "hello");
  EXPECT_EQ(r.readString(), std::string(1000, 'z'));
}

TEST(Serde, BitStringRoundTrip) {
  for (const char* text :
       {"", "1", "00101", "1111111111111111111111111111111111"}) {
    Writer w;
    w.writeBitString(BitString::fromString(text));
    Reader r(w.bytes());
    EXPECT_EQ(r.readBitString().toString(), text);
  }
}

TEST(Serde, TruncatedInputThrows) {
  Writer w;
  w.writeU64(42);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    Reader r(std::span<const std::uint8_t>(w.bytes().data(), cut));
    EXPECT_THROW(r.readU64(), SerdeError);
  }
}

TEST(Serde, TruncatedStringBodyThrows) {
  Writer w;
  w.writeString("abcdef");
  Reader r(std::span<const std::uint8_t>(w.bytes().data(), 6));  // 4+2 < 10
  EXPECT_THROW(r.readString(), SerdeError);
}

TEST(Serde, SpecialDoubles) {
  Writer w;
  w.writeDouble(0.0);
  w.writeDouble(-0.0);
  w.writeDouble(std::numeric_limits<double>::infinity());
  w.writeDouble(1e-300);
  Reader r(w.bytes());
  EXPECT_EQ(r.readDouble(), 0.0);
  EXPECT_EQ(r.readDouble(), -0.0);
  EXPECT_EQ(r.readDouble(), std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(r.readDouble(), 1e-300);
}

TEST(Serde, RecordRoundTripAndByteSizeHonest) {
  mlight::index::Record rec;
  rec.key = Point{0.25, 0.75};
  rec.payload = "addr-42 Main St";
  rec.id = 42;
  Writer w;
  rec.serialize(w);
  // byteSize() must equal the true serialized size — data-movement
  // accounting depends on it.
  EXPECT_EQ(w.size(), rec.byteSize());
  Reader r(w.bytes());
  const auto back = mlight::index::Record::deserialize(r);
  EXPECT_EQ(back, rec);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serde, RandomRecordsRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    mlight::index::Record rec;
    const std::size_t dims = 1 + rng.below(4);
    rec.key = Point(dims);
    for (std::size_t d = 0; d < dims; ++d) rec.key[d] = rng.uniform();
    rec.id = rng.next();
    rec.payload = std::string(rng.below(40), 'p');
    Writer w;
    rec.serialize(w);
    EXPECT_EQ(w.size(), rec.byteSize());
    Reader r(w.bytes());
    EXPECT_EQ(mlight::index::Record::deserialize(r), rec);
  }
}

// The BitString wire format predates the small-buffer representation:
// u32 bit count, then ceil(n/64) little-endian u64 words, LSB-first
// within each word, tail bits zero.  Any label persisted or metered by
// an older build must decode identically, so pin the exact bytes at
// word boundaries (127/128/129), at the 256-bit label limit, plus a short
// label.
TEST(Serde, BitStringEncodingIsByteCompatibleWithPreSboFormat) {
  auto expectBytes = [](const BitString& b) {
    // Independent re-derivation of the pre-SBO encoding from bit() only.
    std::vector<std::uint8_t> expect;
    const auto n = static_cast<std::uint32_t>(b.size());
    for (int i = 0; i < 4; ++i) {
      expect.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    }
    const std::size_t nwords = (b.size() + 63) / 64;
    for (std::size_t w = 0; w < nwords; ++w) {
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < 64 && w * 64 + i < b.size(); ++i) {
        if (b.bit(w * 64 + i)) word |= std::uint64_t{1} << i;
      }
      for (int i = 0; i < 8; ++i) {
        expect.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
      }
    }
    return expect;
  };

  Rng rng(99);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{13}, std::size_t{64}, std::size_t{127},
        std::size_t{128}, std::size_t{129}, std::size_t{255},
        std::size_t{256}}) {
    BitString b;
    for (std::size_t i = 0; i < n; ++i) b.pushBack(rng.chance(0.5));
    Writer w;
    w.writeBitString(b);
    EXPECT_EQ(w.bytes(), expectBytes(b)) << n;
    Reader r(w.bytes());
    EXPECT_EQ(r.readBitString(), b) << n;
    EXPECT_TRUE(r.atEnd());
  }

  // One fully hand-computed case: "1011" = word 0b1101 = 13.
  Writer w;
  w.writeBitString(BitString::fromString("1011"));
  const std::vector<std::uint8_t> expect{4, 0, 0, 0,  // bit count
                                         13, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(w.bytes(), expect);
}

TEST(Serde, WriterReuseCtorClearsButKeepsCapacity) {
  Writer first;
  first.writeString("warm up the buffer capacity");
  std::vector<std::uint8_t> recycled = std::move(first).take();
  const std::size_t cap = recycled.capacity();
  Writer second(std::move(recycled));
  EXPECT_EQ(second.size(), 0u);
  second.writeU32(7);
  const std::vector<std::uint8_t> expect{7, 0, 0, 0};
  EXPECT_EQ(second.bytes(), expect);
  EXPECT_GE(std::move(second).take().capacity(), cap);
}

TEST(Serde, ReadBytesIntoReusesTheBuffer) {
  Writer w;
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.writeBytes(blob);
  w.writeBytes({});
  Reader r(w.bytes());
  std::vector<std::uint8_t> out;
  out.reserve(64);
  r.readBytesInto(out);
  EXPECT_EQ(out, blob);
  r.readBytesInto(out);  // empty blob: cleared, capacity retained
  EXPECT_TRUE(out.empty());
  EXPECT_GE(out.capacity(), 64u);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serde, ReadBytesViewAliasesAndBoundsChecks) {
  Writer w;
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.writeBytes(blob);
  w.writeBytes({});
  w.writeBytes(blob);  // ends exactly at the end of the buffer
  Reader r(w.bytes());
  const auto first = r.readBytesView();
  EXPECT_EQ(first.data(), w.bytes().data() + 4);  // no copy
  EXPECT_TRUE(std::ranges::equal(first, blob));
  EXPECT_TRUE(r.readBytesView().empty());
  EXPECT_TRUE(std::ranges::equal(r.readBytesView(), blob));
  EXPECT_TRUE(r.atEnd());

  // A length one past the bytes left is rejected.
  Writer bad;
  bad.writeU32(static_cast<std::uint32_t>(blob.size() + 1));
  for (std::uint8_t b : blob) bad.writeU8(b);
  Reader br(bad.bytes());
  EXPECT_THROW(br.readBytesView(), SerdeError);
}

}  // namespace
}  // namespace mlight::common
