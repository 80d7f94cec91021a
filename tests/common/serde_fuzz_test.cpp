// Adversarial serde fuzzing: deserializers must reject corrupt wire
// bytes with SerdeError — never crash, hang, or allocate unboundedly.
#include <gtest/gtest.h>

#include "cache/hint_cache.h"
#include "common/rng.h"
#include "common/serde.h"
#include "index/cell_node.h"
#include "index/record.h"
#include "mlight/bucket.h"

namespace mlight::common {
namespace {

using mlight::index::Record;

Record sampleRecord(Rng& rng) {
  Record r;
  r.key = Point{rng.uniform(), rng.uniform()};
  r.id = rng.next();
  r.payload = std::string(rng.below(20), 'x');
  return r;
}

template <typename T, typename DecodeFn>
void fuzzDecoder(std::uint64_t seed, const std::vector<std::uint8_t>& valid,
                 DecodeFn decode) {
  Rng rng(seed);
  // 1. Truncations at every prefix length must throw or succeed cleanly.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    Reader r(std::span<const std::uint8_t>(valid.data(), cut));
    try {
      (void)decode(r);
    } catch (const SerdeError&) {
      // expected for most cuts
    }
  }
  // 2. Random single-byte corruptions.
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = valid;
    bytes[rng.below(bytes.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    Reader r(bytes);
    try {
      (void)decode(r);
    } catch (const SerdeError&) {
    }
  }
  // 3. Pure random garbage.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    Reader r(bytes);
    try {
      (void)decode(r);
    } catch (const SerdeError&) {
    }
  }
  SUCCEED();
}

TEST(SerdeFuzz, RecordDecoderNeverCrashes) {
  Rng rng(1);
  Writer w;
  sampleRecord(rng).serialize(w);
  fuzzDecoder<Record>(11, w.bytes(),
                      [](Reader& r) { return Record::deserialize(r); });
}

TEST(SerdeFuzz, LeafBucketDecoderNeverCrashes) {
  Rng rng(2);
  mlight::core::LeafBucket bucket;
  bucket.label = BitString::fromString("0010110");
  for (int i = 0; i < 5; ++i) bucket.append(sampleRecord(rng));
  Writer w;
  bucket.serialize(w);
  fuzzDecoder<mlight::core::LeafBucket>(13, w.bytes(), [](Reader& r) {
    return mlight::core::LeafBucket::deserialize(r);
  });
}

// The put handler's path: a view of the length-framed image, then the
// bucket decoder over that view.
TEST(SerdeFuzz, BucketImageViewDecoderNeverCrashes) {
  Rng rng(5);
  mlight::core::LeafBucket bucket;
  bucket.label = BitString::fromString("0110");
  for (int i = 0; i < 4; ++i) bucket.append(sampleRecord(rng));
  Writer image;
  bucket.serialize(image);
  Writer w;
  w.writeBytes(image.bytes());
  fuzzDecoder<mlight::core::LeafBucket>(29, w.bytes(), [](Reader& r) {
    Reader view(r.readBytesView());
    return mlight::core::LeafBucket::deserialize(view);
  });
  // Random bytes inside a well-formed frame reach the bucket decoder.
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(96));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    Writer framed;
    framed.writeBytes(garbage);
    Reader r(framed.bytes());
    try {
      Reader view(r.readBytesView());
      (void)mlight::core::LeafBucket::deserialize(view);
    } catch (const SerdeError&) {
    }
  }
}

TEST(SerdeFuzz, BaselineNodeDecodersNeverCrash) {
  // The one node type of PHT and DST/RST, three sampled nodes.
  Rng rng(3);
  for (const std::uint64_t seed : {17u, 19u, 23u}) {
    mlight::index::CellNode node;
    node.label = BitString::fromString("0101");
    node.records.push_back(sampleRecord(rng));
    Writer w;
    node.serialize(w);
    fuzzDecoder<mlight::index::CellNode>(seed, w.bytes(), [](Reader& r) {
      return mlight::index::CellNode::deserialize(r);
    });
  }
}

TEST(SerdeFuzz, HugeCountIsRejectedNotAllocated) {
  // A forged bucket header claiming 4 billion records must throw, not
  // reserve gigabytes.
  Writer w;
  w.writeBitString(BitString::fromString("01"));
  w.writeU32(0xFFFFFFFFu);  // record count
  Reader r(w.bytes());
  EXPECT_THROW((void)mlight::core::LeafBucket::deserialize(r), SerdeError);
}

TEST(SerdeFuzz, LabelHintDecoderNeverCrashes) {
  // The hint rides the hint-probe RPC, so its decoder faces the wire.
  mlight::cache::LabelHint hint;
  hint.leaf = BitString::fromString("0010110101110010110");
  hint.depth = 9;
  hint.replicaSalts = {0, 3, 7};
  hint.replicaLoads = {12, 0, 5};
  Writer w;
  hint.serialize(w);
  fuzzDecoder<mlight::cache::LabelHint>(29, w.bytes(), [](Reader& r) {
    return mlight::cache::LabelHint::deserialize(r);
  });
}

TEST(SerdeFuzz, HugeReplicaCountIsRejectedNotAllocated) {
  // A forged replica block claiming 4 billion copies must throw, not
  // reserve 2 x 16 GB.
  Writer w;
  w.writeBitString(BitString::fromString("0010"));
  w.writeU32(3);            // depth
  w.writeU32(0xFFFFFFFFu);  // replica count
  w.writeU32(1);
  w.writeU32(2);
  Reader r(w.bytes());
  EXPECT_THROW((void)mlight::cache::LabelHint::deserialize(r), SerdeError);
}

TEST(SerdeFuzz, HugeBitStringLengthIsRejectedNotAllocated) {
  // A 4-byte frame claiming a 4-gigabit label must throw before any
  // storage is reserved; so must a length one word past the input.
  Writer w;
  w.writeU32(0xFFFFFFFFu);
  Reader r(w.bytes());
  EXPECT_THROW((void)r.readBitString(), SerdeError);
  Writer w2;
  w2.writeU32(65);  // two words needed, one present
  w2.writeU64(1);
  Reader r2(w2.bytes());
  EXPECT_THROW((void)r2.readBitString(), SerdeError);
}

TEST(SerdeFuzz, BitStringBeyondTheLabelLimitIsRejected) {
  // A length one bit past the 256-bit limit throws even when every word
  // it announces is on the wire; the limit itself decodes.
  for (const std::uint32_t nbits : {256u, 257u}) {
    Writer w;
    w.writeU32(nbits);
    for (int i = 0; i < 5; ++i) w.writeU64(~std::uint64_t{0});
    Reader r(w.bytes());
    if (nbits == BitString::kMaxBits) {
      EXPECT_EQ(r.readBitString(), BitString::repeated(true, nbits));
    } else {
      EXPECT_THROW((void)r.readBitString(), SerdeError);
    }
  }
}

TEST(SerdeFuzz, BadRecordDimensionalityRejected) {
  Writer w;
  w.writeU64(1);          // id
  w.writeU32(200);        // dims > kMaxDims
  Reader r(w.bytes());
  EXPECT_THROW((void)Record::deserialize(r), SerdeError);
  Writer w2;
  w2.writeU64(1);
  w2.writeU32(0);  // dims == 0
  Reader r2(w2.bytes());
  EXPECT_THROW((void)Record::deserialize(r2), SerdeError);
}

}  // namespace
}  // namespace mlight::common
