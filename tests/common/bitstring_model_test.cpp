// Differential testing of BitString against a trivially-correct model
// (std::string of '0'/'1'): long random operation sequences must keep
// the two representations in lockstep, including across the 64-bit word
// boundaries where the packed implementation does real work, and up to
// the kMaxBits limit, where a push or append must fail and change
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/rng.h"

namespace mlight::common {
namespace {

class BitStringModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitStringModelTest, RandomOpsMatchStringModel) {
  Rng rng(GetParam());
  BitString packed;
  std::string model;

  const auto check = [&] {
    ASSERT_EQ(packed.size(), model.size());
    ASSERT_EQ(packed.toString(), model);
    if (!model.empty()) {
      ASSERT_EQ(packed.back(), model.back() == '1');
      const std::size_t i = rng.below(model.size());
      ASSERT_EQ(packed.bit(i), model[i] == '1');
    }
    // Equality and word image consistent with a rebuilt copy.
    const BitString rebuilt = BitString::fromString(model);
    ASSERT_EQ(packed, rebuilt);
    ASSERT_TRUE(std::ranges::equal(packed.words(), rebuilt.words()));
  };
  std::size_t rejected = 0;

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.45 || model.empty()) {
      const bool b = rng.chance(0.5);
      if (model.size() == BitString::kMaxBits) {
        ASSERT_THROW(packed.pushBack(b), CheckFailure);
        ++rejected;
      } else {
        packed.pushBack(b);
        model.push_back(b ? '1' : '0');
      }
    } else if (dice < 0.65) {
      packed.popBack();
      model.pop_back();
    } else if (dice < 0.75) {
      const std::size_t i = rng.below(model.size());
      const bool b = rng.chance(0.5);
      packed.setBit(i, b);
      model[i] = b ? '1' : '0';
    } else if (dice < 0.85) {
      const std::size_t n = rng.below(model.size() + 1);
      packed = packed.prefix(n);
      model = model.substr(0, n);
    } else if (dice < 0.92) {
      packed = packed.sibling();
      model.back() = model.back() == '1' ? '0' : '1';
    } else {
      // Append a random run.
      const std::size_t n = rng.below(70);
      BitString tail;
      std::string tailModel;
      for (std::size_t i = 0; i < n; ++i) {
        const bool b = rng.chance(0.5);
        tail.pushBack(b);
        tailModel.push_back(b ? '1' : '0');
      }
      if (model.size() + n > BitString::kMaxBits) {
        ASSERT_THROW(packed.append(tail), CheckFailure);
        ++rejected;
      } else {
        packed.append(tail);
        model += tailModel;
      }
    }
    if (op % 50 == 0) check();
  }
  check();
  // Seeds 2-4 run into the limit; seed 1 stays below it.
  if (GetParam() != 1) {
    EXPECT_GT(rejected, 0u);
  }
}

TEST_P(BitStringModelTest, OrderingMatchesModelOrdering) {
  // The BitString ordering (lexicographic, prefix-first) must agree with
  // std::string's lexicographic compare of the textual form — '0' < '1'
  // and shorter-prefix-first coincide for binary alphabets.
  Rng rng(GetParam() * 7 + 3);
  for (int trial = 0; trial < 400; ++trial) {
    std::string a;
    std::string b;
    for (std::size_t i = rng.below(80); i > 0; --i) {
      a.push_back(rng.chance(0.5) ? '1' : '0');
    }
    for (std::size_t i = rng.below(80); i > 0; --i) {
      b.push_back(rng.chance(0.5) ? '1' : '0');
    }
    const auto packedOrder =
        BitString::fromString(a) <=> BitString::fromString(b);
    const int modelOrder = a.compare(b);
    EXPECT_EQ(packedOrder < 0, modelOrder < 0) << a << " vs " << b;
    EXPECT_EQ(packedOrder == 0, modelOrder == 0) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStringModelTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace mlight::common
