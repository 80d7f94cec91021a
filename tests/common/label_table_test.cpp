// LabelTable (src/common/label_table.h): the label → slot directory the
// store and the hint cache share.  A seeded model test against std::map
// (labels and payloads), the label lengths around word boundaries and
// the 256-bit label limit (the empty label included — it is the PHT/DST root key),
// deletion inside probe runs, growth, re-striding, and the label order
// used by sorted walks.
#include "common/label_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/bitstring.h"
#include "common/rng.h"

namespace mlight::common {
namespace {

BitString randomLabel(Rng& rng, std::size_t bits) {
  BitString label;
  for (std::size_t done = 0; done < bits; done += 64) {
    label.appendWordBits(rng.next(), std::min<std::size_t>(64, bits - done));
  }
  return label;
}

/// Payload stamped with the slot's label length on insert, so a test can
/// tell a payload that moved with its slot from one that was lost.
using Table = LabelTable<std::uint64_t>;

// The table holds exactly the model's labels, each at its recorded slot,
// with its words, length, rebuilt label and payload intact.
void expectMatchesModel(const Table& table,
                        const std::map<BitString, std::uint32_t>& model) {
  ASSERT_EQ(table.size(), model.size());
  std::size_t live = 0;
  for (std::uint32_t s = 0; s < table.slotLimit(); ++s) live += table.live(s);
  ASSERT_EQ(live, model.size());
  for (const auto& [label, slot] : model) {
    ASSERT_EQ(table.find(label), slot) << label.toString();
    ASSERT_TRUE(table.live(slot));
    ASSERT_EQ(table.length(slot), label.size());
    ASSERT_TRUE(std::equal(label.words().begin(), label.words().end(),
                           table.words(slot)));
    ASSERT_EQ(table.label(slot), label);
    ASSERT_EQ(table[slot], label.size() + 1);
  }
}

/// Inserts `label` and stamps a new slot's payload (see Table).
std::uint32_t insertStamped(Table& table, const BitString& label,
                            bool* inserted = nullptr) {
  bool fresh = false;
  const std::uint32_t slot = table.insert(label, &fresh);
  if (fresh) {
    EXPECT_EQ(table[slot], 0u) << "a reused slot kept its old payload";
    table[slot] = label.size() + 1;
  }
  if (inserted != nullptr) *inserted = fresh;
  return slot;
}

TEST(LabelTable, MatchesMapModel) {
  constexpr std::size_t kLengths[] = {0, 1, 2, 7, 28, 57, 63, 64, 65, 130};
  Rng rng(2024);
  // A small pool so inserts hit existing labels and erases hit live ones.
  std::vector<BitString> pool;
  for (int i = 0; i < 400; ++i) {
    pool.push_back(randomLabel(rng, kLengths[rng.below(std::size(kLengths))]));
  }
  Table table;
  std::map<BitString, std::uint32_t> model;
  for (int step = 0; step < 6000; ++step) {
    const BitString& label = pool[rng.below(pool.size())];
    const auto it = model.find(label);
    switch (rng.below(3)) {
      case 0: {  // insert
        bool inserted = false;
        const std::uint32_t slot = insertStamped(table, label, &inserted);
        ASSERT_EQ(inserted, it == model.end());
        if (it != model.end()) {
          ASSERT_EQ(slot, it->second);  // slots are stable while live
        } else {
          model.emplace(label, slot);
        }
        break;
      }
      case 1:  // find
        ASSERT_EQ(table.find(label),
                  it == model.end() ? kNoLabelSlot : it->second);
        break;
      default:  // erase
        if (it != model.end()) {
          table.erase(it->second);
          model.erase(it);
          ASSERT_EQ(table.find(label), kNoLabelSlot);
        }
        break;
    }
    if (step % 500 == 0) expectMatchesModel(table, model);
  }
  expectMatchesModel(table, model);
}

TEST(LabelTable, BoundaryLengthsAreDistinctKeys) {
  // Every word boundary up to the 256-bit label limit; the table stores
  // every length the same way.
  constexpr std::size_t kLengths[] = {0,   1,   63,  64,  65,  127, 128,
                                      129, 191, 192, 193, 255, 256};
  static_assert(BitString::kMaxBits == 256);
  Table table;
  std::map<BitString, std::uint32_t> model;
  for (const bool bit : {false, true}) {
    for (const std::size_t len : kLengths) {
      const BitString label = BitString::repeated(bit, len);
      if (model.count(label) != 0) continue;  // the empty label, twice
      bool inserted = false;
      model.emplace(label, insertStamped(table, label, &inserted));
      EXPECT_TRUE(inserted) << len;
    }
  }
  Rng rng(7);
  for (const std::size_t len : kLengths) {
    const BitString label = randomLabel(rng, len);
    if (model.count(label) == 0) {
      model.emplace(label, insertStamped(table, label));
    }
  }
  expectMatchesModel(table, model);
  // The empty label is a key like any other: it erases and re-inserts.
  const BitString empty;
  const std::uint32_t emptySlot = table.find(empty);
  ASSERT_NE(emptySlot, kNoLabelSlot);
  table.erase(emptySlot);
  model.erase(empty);
  expectMatchesModel(table, model);
  EXPECT_EQ(table.find(empty), kNoLabelSlot);
  model.emplace(empty, insertStamped(table, empty));
  expectMatchesModel(table, model);
}

TEST(LabelTable, BackwardShiftKeepsProbeRunsReachable) {
  // At load <= 1/2 with linear probing, a few thousand keys form many
  // multi-entry probe runs; erasing in random order pulls entries back
  // across every kind of hole.  After each erase, every survivor must
  // still be found and the erased label must not be.
  Rng rng(99);
  Table table;
  std::vector<std::pair<BitString, std::uint32_t>> held;
  for (int i = 0; i < 2048; ++i) {
    const BitString label = randomLabel(rng, 1 + rng.below(90));
    bool inserted = false;
    const std::uint32_t slot = insertStamped(table, label, &inserted);
    if (inserted) held.emplace_back(label, slot);
  }
  for (std::size_t i = held.size(); i > 1; --i) {
    std::swap(held[i - 1], held[rng.below(i)]);
  }
  while (!held.empty()) {
    const auto [label, slot] = held.back();
    held.pop_back();
    table.erase(slot);
    ASSERT_EQ(table.find(label), kNoLabelSlot);
    if (held.size() % 16 == 0 || held.size() < 64) {
      for (const auto& [survivor, s] : held) {
        ASSERT_EQ(table.find(survivor), s) << survivor.toString();
      }
    }
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(LabelTable, GrowthAndRestrideKeepSlots) {
  Rng rng(5);
  Table table;
  std::map<BitString, std::uint32_t> model;
  // One-word labels first (stride 1), through several index doublings.
  for (int i = 0; i < 3000; ++i) {
    const BitString label = randomLabel(rng, 57);
    if (model.count(label) == 0) {
      model.emplace(label, insertStamped(table, label));
    }
  }
  expectMatchesModel(table, model);
  // A four-word label re-strides the whole pool; no slot may move.
  const BitString wide = randomLabel(rng, BitString::kMaxBits);
  model.emplace(wide, insertStamped(table, wide));
  expectMatchesModel(table, model);
  EXPECT_GT(table.memoryBytes(), 3001u * (8 * 4 + 4));
}

TEST(LabelTable, FreedSlotsAreReusedFirst) {
  Table table;
  const std::uint32_t a = insertStamped(table, BitString::fromString("0"));
  const std::uint32_t b = insertStamped(table, BitString::fromString("01"));
  insertStamped(table, BitString::fromString("011"));
  table.erase(a);
  table.erase(b);
  EXPECT_EQ(insertStamped(table, BitString::fromString("1")), b);
  EXPECT_EQ(insertStamped(table, BitString::fromString("11")), a);
  EXPECT_EQ(table.slotLimit(), 3u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(LabelTable, LessMatchesBitStringOrder) {
  Rng rng(31);
  Table table;
  std::vector<std::uint32_t> slots;
  std::vector<BitString> labels;
  for (int i = 0; i < 300; ++i) {
    BitString label = randomLabel(rng, rng.below(140));
    // Prefixes and one-bit extensions exercise the length tie-break.
    if (i % 3 == 1) label = labels.back().prefix(labels.back().size() / 2);
    if (i % 3 == 2) label = labels.back().withBack(rng.below(2) == 1);
    bool inserted = false;
    const std::uint32_t slot = insertStamped(table, label, &inserted);
    if (!inserted) continue;
    slots.push_back(slot);
    labels.push_back(label);
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = 0; j < slots.size(); ++j) {
      ASSERT_EQ(table.less(slots[i], slots[j]), labels[i] < labels[j])
          << labels[i].toString() << " vs " << labels[j].toString();
    }
  }
}

}  // namespace
}  // namespace mlight::common
