#include "common/bitstring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "common/label_table.h"
#include "common/rng.h"

namespace mlight::common {
namespace {

TEST(BitString, DefaultIsEmpty) {
  BitString b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.toString(), "");
}

TEST(BitString, FromStringRoundTrip) {
  for (const char* text : {"", "0", "1", "01", "0011010111",
                           "1111111111111111", "010101010101010101010101"}) {
    EXPECT_EQ(BitString::fromString(text).toString(), text);
  }
}

TEST(BitString, FromStringRejectsBadChars) {
  EXPECT_THROW(BitString::fromString("0102"), std::invalid_argument);
  EXPECT_THROW(BitString::fromString("ab"), std::invalid_argument);
}

TEST(BitString, PushAndPopBack) {
  BitString b;
  b.pushBack(true);
  b.pushBack(false);
  b.pushBack(true);
  EXPECT_EQ(b.toString(), "101");
  b.popBack();
  EXPECT_EQ(b.toString(), "10");
  b.popBack();
  b.popBack();
  EXPECT_TRUE(b.empty());
}

TEST(BitString, PopBackClearsStorageBit) {
  // Popping must zero the tail bit so equality with a rebuilt string holds.
  BitString a = BitString::fromString("101");
  a.popBack();
  BitString b = BitString::fromString("10");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::ranges::equal(a.words(), b.words()));
}

TEST(BitString, RepeatedBuildsRuns) {
  EXPECT_EQ(BitString::repeated(false, 5).toString(), "00000");
  EXPECT_EQ(BitString::repeated(true, 3).toString(), "111");
  EXPECT_EQ(BitString::repeated(true, 0).toString(), "");
  EXPECT_EQ(BitString::repeated(true, 64).toString(),
            std::string(64, '1'));
  EXPECT_EQ(BitString::repeated(true, 65).size(), 65u);
}

TEST(BitString, BitAccess) {
  const BitString b = BitString::fromString("0110");
  EXPECT_FALSE(b.bit(0));
  EXPECT_TRUE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
  EXPECT_FALSE(b.bit(3));
  EXPECT_FALSE(b.back());
}

TEST(BitString, SetBit) {
  BitString b = BitString::fromString("0000");
  b.setBit(2, true);
  EXPECT_EQ(b.toString(), "0010");
  b.setBit(2, false);
  EXPECT_EQ(b.toString(), "0000");
}

TEST(BitString, WithBack) {
  const BitString b = BitString::fromString("01");
  EXPECT_EQ(b.withBack(true).toString(), "011");
  EXPECT_EQ(b.withBack(false).toString(), "010");
  EXPECT_EQ(b.toString(), "01");  // non-mutating
}

TEST(BitString, Prefix) {
  const BitString b = BitString::fromString("110101");
  EXPECT_EQ(b.prefix(0).toString(), "");
  EXPECT_EQ(b.prefix(3).toString(), "110");
  EXPECT_EQ(b.prefix(6).toString(), "110101");
}

TEST(BitString, PrefixAcrossWordBoundary) {
  std::string text;
  for (int i = 0; i < 130; ++i) text.push_back(i % 3 == 0 ? '1' : '0');
  const BitString b = BitString::fromString(text);
  EXPECT_EQ(b.prefix(65).toString(), text.substr(0, 65));
  EXPECT_EQ(b.prefix(128).toString(), text.substr(0, 128));
  EXPECT_EQ(b.prefix(130).toString(), text);
}

TEST(BitString, IsPrefixOf) {
  const BitString a = BitString::fromString("0101");
  EXPECT_TRUE(BitString().isPrefixOf(a));
  EXPECT_TRUE(BitString::fromString("01").isPrefixOf(a));
  EXPECT_TRUE(a.isPrefixOf(a));
  EXPECT_FALSE(BitString::fromString("011").isPrefixOf(a));
  EXPECT_FALSE(BitString::fromString("01011").isPrefixOf(a));
}

TEST(BitString, SiblingFlipsLastBit) {
  EXPECT_EQ(BitString::fromString("010").sibling().toString(), "011");
  EXPECT_EQ(BitString::fromString("011").sibling().toString(), "010");
  EXPECT_EQ(BitString::fromString("1").sibling().toString(), "0");
}

TEST(BitString, Append) {
  BitString a = BitString::fromString("01");
  a.append(BitString::fromString("110"));
  EXPECT_EQ(a.toString(), "01110");
  a.append(BitString());
  EXPECT_EQ(a.toString(), "01110");
}

TEST(BitString, EqualityDistinguishesLengthFromContent) {
  EXPECT_NE(BitString::fromString("0"), BitString::fromString("00"));
  EXPECT_NE(BitString::fromString("01"), BitString::fromString("10"));
  EXPECT_EQ(BitString::fromString("0110"), BitString::fromString("0110"));
}

TEST(BitString, OrderingIsLexicographicWithPrefixFirst) {
  EXPECT_LT(BitString::fromString("0"), BitString::fromString("00"));
  EXPECT_LT(BitString::fromString("00"), BitString::fromString("01"));
  EXPECT_LT(BitString::fromString("011"), BitString::fromString("1"));
  EXPECT_GT(BitString::fromString("10"), BitString::fromString("011111"));
}

TEST(BitString, UsableAsMapAndSetKey) {
  std::map<BitString, int> ordered;
  std::set<BitString> set;
  for (const char* text : {"", "0", "1", "01", "10", "010"}) {
    ordered[BitString::fromString(text)] = 1;
    set.insert(BitString::fromString(text));
  }
  EXPECT_EQ(ordered.size(), 6u);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_TRUE(set.contains(BitString::fromString("01")));
  // "0" and "00" share identical words; only the length tells them apart.
  EXPECT_TRUE(set.contains(BitString::fromString("0")));
  EXPECT_FALSE(set.contains(BitString::fromString("00")));
}

TEST(BitString, LongStringsCrossWordBoundaries) {
  Rng rng(7);
  std::string text;
  for (int i = 0; i < 200; ++i) text.push_back(rng.chance(0.5) ? '1' : '0');
  BitString b = BitString::fromString(text);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.toString(), text);
  // Pop everything back off and verify each intermediate state.
  for (int i = 199; i >= 0; --i) {
    b.popBack();
    EXPECT_EQ(b.size(), static_cast<std::size_t>(i));
    EXPECT_TRUE(b.isPrefixOf(BitString::fromString(text)));
  }
}

// Property sweep: random build / prefix / sibling interactions.
class BitStringPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BitStringPropertyTest, PrefixAndAppendInvert) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.below(150);
    BitString b;
    for (std::size_t i = 0; i < n; ++i) b.pushBack(rng.chance(0.5));
    const std::size_t cut = rng.below(n + 1);
    BitString head = b.prefix(cut);
    BitString tail;
    for (std::size_t i = cut; i < n; ++i) tail.pushBack(b.bit(i));
    head.append(tail);
    EXPECT_EQ(head, b);
    EXPECT_TRUE(b.prefix(cut).isPrefixOf(b));
  }
}

TEST_P(BitStringPropertyTest, SiblingIsInvolutionAndDiffersInLastBit) {
  Rng rng(GetParam() * 31 + 1);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.below(100);
    BitString b;
    for (std::size_t i = 0; i < n; ++i) b.pushBack(rng.chance(0.5));
    const BitString s = b.sibling();
    EXPECT_EQ(s.size(), b.size());
    EXPECT_NE(s, b);
    EXPECT_EQ(s.sibling(), b);
    EXPECT_EQ(s.prefix(n - 1), b.prefix(n - 1));
    EXPECT_NE(s.back(), b.back());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStringPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --- Capacity boundary ---------------------------------------------
//
// BitString holds at most kMaxBits bits in four fixed words.  These tests
// pin every word boundary up to the limit (63/64/65 ... 255/256), the
// shifted word merges that end in the last word, and the rejection of a
// 257th bit on every append path.  (BitStringSbo keeps the suite name of
// the small-buffer representation these tests first pinned.)

constexpr std::size_t kMax = BitString::kMaxBits;
static_assert(sizeof(BitString) == kMax / 8 + sizeof(std::size_t));

BitString patternedLabel(std::size_t bits) {
  BitString b;
  for (std::size_t i = 0; i < bits; ++i) b.pushBack(i % 3 == 0 || i % 7 == 0);
  return b;
}

TEST(BitStringSbo, BoundaryLengthsRoundTripThroughEveryAccessor) {
  for (const std::size_t n : {63, 64, 65, 127, 128, 129, 191, 192, 193, 255,
                              256}) {
    const BitString b = patternedLabel(n);
    ASSERT_EQ(b.size(), n);
    std::string expect;
    for (std::size_t i = 0; i < n; ++i) {
      expect.push_back((i % 3 == 0 || i % 7 == 0) ? '1' : '0');
    }
    EXPECT_EQ(b.toString(), expect);
    EXPECT_EQ(BitString::fromString(expect), b);
    EXPECT_EQ(b.words().size(), (n + 63) / 64);
  }
}

TEST(BitStringSbo, SpillAndUnspillRoundTrip) {
  // Fill to the limit, fail to push past it, pop back down: the label
  // must stay equal, bit for bit and word for word, to one that never
  // reached the limit.
  BitString b = patternedLabel(kMax - 1);
  const BitString under = b;
  b.pushBack(true);  // kMax: full
  const BitString full = b;
  EXPECT_THROW(b.pushBack(false), CheckFailure);
  EXPECT_EQ(b, full);  // a rejected push leaves the label as it was
  EXPECT_EQ(b.size(), kMax);
  b.popBack();
  EXPECT_EQ(b, under);
  EXPECT_TRUE(std::ranges::equal(b.words(), under.words()));
  EXPECT_EQ(b.toString(), under.toString());
  const BitString copy = b;
  EXPECT_EQ(copy, under);
}

TEST(BitStringSbo, TruncateAcrossTheBoundaryMatchesPrefix) {
  const BitString full = patternedLabel(kMax);
  for (const std::size_t n :
       {kMax, kMax - 1, std::size_t{192}, std::size_t{129}, std::size_t{128},
        std::size_t{64}, std::size_t{1}, std::size_t{0}}) {
    BitString t = full;
    t.truncate(n);
    EXPECT_EQ(t, full.prefix(n)) << n;
    EXPECT_TRUE(std::ranges::equal(t.words(), full.prefix(n).words())) << n;
  }
}

TEST(BitStringSbo, OrderingAndPrefixAcrossTheBoundary) {
  const BitString bUnder = patternedLabel(kMax - 2);
  const BitString bNear = patternedLabel(kMax - 1);
  const BitString bFull = patternedLabel(kMax);
  EXPECT_TRUE(bUnder.isPrefixOf(bNear));
  EXPECT_TRUE(bNear.isPrefixOf(bFull));
  EXPECT_TRUE(bUnder.isPrefixOf(bFull));
  EXPECT_FALSE(bFull.isPrefixOf(bUnder));
  // A proper prefix orders before its extensions.
  EXPECT_LT(bUnder, bNear);
  EXPECT_LT(bNear, bFull);
  // Flipping the very last bit of a full label reorders correctly.
  BitString hi = bFull;
  hi.setBit(kMax - 1, !hi.bit(kMax - 1));
  EXPECT_NE(hi, bFull);
  EXPECT_EQ(hi.commonPrefixLength(bFull), kMax - 1);
  if (bFull.bit(kMax - 1)) {
    EXPECT_LT(hi, bFull);
  } else {
    EXPECT_GT(hi, bFull);
  }
}

TEST(BitStringSbo, CommonPrefixLengthMatchesBruteForce) {
  Rng rng(77);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t na = rng.below(kMax + 1);
    BitString a;
    for (std::size_t i = 0; i < na; ++i) a.pushBack(rng.chance(0.5));
    // Derive b from a prefix of a plus noise so long shared prefixes
    // actually occur.
    BitString b = a.prefix(rng.below(na + 1));
    const std::size_t extra = rng.below(std::min<std::size_t>(
                                  80, kMax - b.size()) + 1);
    for (std::size_t i = 0; i < extra; ++i) b.pushBack(rng.chance(0.5));
    std::size_t expect = 0;
    const std::size_t limit = std::min(a.size(), b.size());
    while (expect < limit && a.bit(expect) == b.bit(expect)) ++expect;
    EXPECT_EQ(a.commonPrefixLength(b), expect);
    EXPECT_EQ(b.commonPrefixLength(a), expect);
  }
}

TEST(BitStringSbo, AppendBitsMatchesBitwiseAppendAtEveryOffset) {
  // Exercise the shifted word-merge at every alignment of head × a tail
  // long enough to cross words, near the front and against the limit —
  // where the last tail word's carry would fall past the fourth word.
  const auto check = [](std::size_t headBits, std::size_t tailBits) {
    const BitString head = patternedLabel(headBits);
    BitString tail;
    for (std::size_t i = 0; i < tailBits; ++i) {
      tail.pushBack((i * 5 + headBits) % 4 == 1);
    }
    BitString fast = head;
    fast.appendBits(tail);
    BitString slow = head;
    for (std::size_t i = 0; i < tail.size(); ++i) slow.pushBack(tail.bit(i));
    ASSERT_EQ(fast, slow) << headBits << "+" << tailBits;
    ASSERT_EQ(fast.size(), headBits + tailBits);
  };
  for (std::size_t headBits = 0; headBits <= kMax; ++headBits) {
    if (headBits > 70 && headBits < kMax - 135) continue;
    for (const std::size_t tailBits :
         {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{130}, kMax - headBits}) {
      if (headBits + tailBits <= kMax) check(headBits, tailBits);
    }
  }
}

TEST(BitStringSbo, AppendSelfDoublesTheString) {
  BitString b = BitString::fromString("1011001");
  b.append(b);
  EXPECT_EQ(b.toString(), "10110011011001");
  BitString half = patternedLabel(kMax / 2);
  half.append(half);
  EXPECT_EQ(half.size(), kMax);
  EXPECT_EQ(half.prefix(kMax / 2), patternedLabel(kMax / 2));
}

TEST(BitStringSbo, PrefixSiblingMatchesPrefixThenSibling) {
  const BitString b = patternedLabel(kMax);
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{65}, kMax - 1, kMax}) {
    EXPECT_EQ(b.prefixSibling(n), b.prefix(n).sibling()) << n;
  }
}

TEST(BitStringLimit, A257thBitFailsOnEveryAppendPath) {
  const BitString full = patternedLabel(kMax);
  BitString b = full;
  EXPECT_THROW(b.pushBack(true), CheckFailure);
  EXPECT_THROW((void)b.withBack(false), CheckFailure);
  EXPECT_THROW(b.appendBits(BitString::fromString("1")), CheckFailure);
  EXPECT_THROW(b.append(b), CheckFailure);
  EXPECT_THROW(b.appendWordBits(1, 1), CheckFailure);
  EXPECT_EQ(b, full);  // every rejected append left the label as it was
  // Appends that would end past the limit from below fail too.
  BitString most = patternedLabel(kMax - 10);
  EXPECT_THROW(most.appendWordBits(~std::uint64_t{0}, 11), CheckFailure);
  EXPECT_THROW(most.appendBits(patternedLabel(11)), CheckFailure);
  EXPECT_EQ(most, patternedLabel(kMax - 10));
  most.appendWordBits(~std::uint64_t{0}, 10);  // exactly full is fine
  EXPECT_EQ(most.size(), kMax);
  // The constructors check the length they are asked for.
  EXPECT_EQ(BitString::fromString(std::string(kMax, '1')).size(), kMax);
  EXPECT_THROW((void)BitString::fromString(std::string(kMax + 1, '1')),
               CheckFailure);
  EXPECT_EQ(BitString::repeated(true, kMax).size(), kMax);
  EXPECT_THROW((void)BitString::repeated(true, kMax + 1), CheckFailure);
}

// --- Move contract ---------------------------------------------------

TEST(BitStringMove, MovesLeaveTheSourceEmptyInlineCase) {
  BitString src = BitString::fromString("10110");
  BitString dst = std::move(src);
  EXPECT_EQ(dst.toString(), "10110");
  // Documented contract: moved-from labels are empty, not unspecified.
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.toString(), "");
  // And fully usable again.
  src.pushBack(true);
  EXPECT_EQ(src.toString(), "1");
}

TEST(BitStringMove, MoveAssignmentReleasesAndSteals) {
  BitString a = patternedLabel(129);
  BitString b = patternedLabel(200);  // different content
  const BitString expect = b;
  a = std::move(b);
  EXPECT_EQ(a, expect);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  b.pushBack(false);
  EXPECT_EQ(b.toString(), "0");
  // Self-move must be harmless.
  BitString c = BitString::fromString("101");
  BitString& cref = c;
  c = std::move(cref);
  EXPECT_EQ(c.toString(), "101");
}

// --- The label hash after mutators and copies ----------------------
//
// BitString memoizes no hash any more: every label-keyed table hashes
// (length, words) itself (LabelTable's mix), and equality compares whole
// words.  So every mutator must leave the bits past size() zero, and a
// mutated label or a copy must hash, compare and be found exactly like a
// freshly built equal one.

bool sameKey(const BitString& got, const BitString& want) {
  const auto len = [](const BitString& b) {
    return static_cast<std::uint32_t>(b.size());
  };
  LabelTable<int> table;
  table.insert(want);
  return got == want && std::ranges::equal(got.words(), want.words()) &&
         label_table_detail::mix(got.words().data(), len(got)) ==
             label_table_detail::mix(want.words().data(), len(want)) &&
         table.find(got) != kNoLabelSlot;
}

TEST(BitStringHashMemo, MutatorsInvalidateTheCachedHash) {
  for (const std::size_t n : {std::size_t{31}, std::size_t{127},
                              std::size_t{129}, kMax}) {
    const BitString b = patternedLabel(n);

    BitString viaSetBit = b;
    viaSetBit.setBit(n / 2, !viaSetBit.bit(n / 2));
    BitString reference = patternedLabel(n);
    reference.setBit(n / 2, !reference.bit(n / 2));
    EXPECT_TRUE(sameKey(viaSetBit, reference)) << n;
    EXPECT_NE(viaSetBit, b) << n;
    EXPECT_FALSE(sameKey(viaSetBit, b)) << n;

    BitString viaPopBack = b;
    viaPopBack.popBack();
    EXPECT_TRUE(sameKey(viaPopBack, patternedLabel(n - 1))) << n;

    BitString viaTruncate = b;
    viaTruncate.truncate(n / 2);
    EXPECT_TRUE(sameKey(viaTruncate, patternedLabel(n / 2))) << n;
    EXPECT_TRUE(sameKey(viaTruncate, b.prefix(n / 2))) << n;

    BitString viaFlip = b;
    viaFlip.flipBack();
    EXPECT_TRUE(sameKey(viaFlip, b.sibling())) << n;

    BitString viaAppend = patternedLabel(n - 1);
    viaAppend.pushBack(b.back());
    EXPECT_TRUE(sameKey(viaAppend, b)) << n;
  }
}

TEST(BitStringHashMemo, CopiesCarryTheCacheCorrectly) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{90}, std::size_t{129}, kMax}) {
    const BitString a = patternedLabel(n);
    BitString copied = a;
    EXPECT_TRUE(sameKey(copied, a)) << n;
    if (n > 0) {  // a round trip through a mutator keeps the key
      copied.popBack();
      copied.pushBack(a.back());
      EXPECT_TRUE(sameKey(copied, a)) << n;
    }
    BitString assigned = BitString::fromString("1");
    assigned = a;
    EXPECT_TRUE(sameKey(assigned, a)) << n;
  }
}

}  // namespace
}  // namespace mlight::common
