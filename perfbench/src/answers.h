// Answer checking for range queries, kept off the timed path.
//
// Each answer is reduced, right after its call returns, to an
// order-independent fingerprint of its record ids (count plus two
// independent multiset hashes).  After the timed phase a brute-force
// oracle recomputes the fingerprint of every query's true answer and
// the two are compared by id.  The oracle buckets records into a grid so
// that checking tens of thousands of wide queries stays cheap; its
// answers equal index::Oracle's (pinned by the self-test).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "index/record.h"

namespace perfbench {

struct AnswerPrint {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xorMix = 0;

  void add(std::uint64_t id) noexcept {
    ++count;
    sum += mix(id);
    xorMix ^= mix(id ^ 0x5bd1e9955bd1e995ULL);
  }
  friend bool operator==(const AnswerPrint&, const AnswerPrint&) = default;

  static std::uint64_t mix(std::uint64_t z) noexcept {  // splitmix64
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

inline AnswerPrint fingerprint(std::span<const mlight::index::Record> recs) {
  AnswerPrint p;
  for (const auto& r : recs) p.add(r.id);
  return p;
}

/// Brute-force 2-D range oracle over a fixed record set (the half-open
/// containment test of Rect::contains, applied to every record of every
/// grid cell the query touches).
class GridOracle {
 public:
  explicit GridOracle(std::span<const mlight::index::Record> records,
                      std::size_t side = 128)
      : side_(side), cells_(side * side) {
    for (const auto& r : records) {
      cells_[cellOf(r.key[0]) * side_ + cellOf(r.key[1])].push_back(
          Entry{r.key, r.id});
    }
  }

  AnswerPrint answer(const mlight::common::Rect& range) const {
    AnswerPrint p;
    const std::size_t x0 = cellOf(range.lo()[0]);
    const std::size_t x1 = cellOf(range.hi()[0]);
    const std::size_t y0 = cellOf(range.lo()[1]);
    const std::size_t y1 = cellOf(range.hi()[1]);
    for (std::size_t x = x0; x <= x1; ++x) {
      for (std::size_t y = y0; y <= y1; ++y) {
        for (const Entry& e : cells_[x * side_ + y]) {
          if (range.contains(e.key)) p.add(e.id);
        }
      }
    }
    return p;
  }

 private:
  struct Entry {
    mlight::common::Point key;
    std::uint64_t id;
  };

  std::size_t cellOf(double c) const noexcept {
    const double scaled = c * static_cast<double>(side_);
    if (!(scaled > 0.0)) return 0;
    return std::min(side_ - 1, static_cast<std::size_t>(scaled));
  }

  std::size_t side_;
  std::vector<std::vector<Entry>> cells_;
};

}  // namespace perfbench
