// Leaf bucket: the unit of distribution in m-LIGHT (paper §3.3).
//
// The global space kd-tree is decomposed into one bucket per leaf.  A
// bucket stores two components: the *label store* — the leaf label λ,
// which encodes the whole local tree (ancestors are prefixes of λ, branch
// nodes are prefixes with the last bit inverted) — and the *record store*
// with the data records whose keys fall in the leaf's region.  The bucket
// lives in the DHT under key f_md(λ).
//
// The record store keeps a parallel key array: record i's coordinates sit
// at keys()[i * keyDims(), (i + 1) * keyDims()), in record order.  Range
// harvests filter a partially covered leaf on this array (scanBox: 16
// bytes per record in 2-D) instead of striding over whole Records.
// Every mutator below keeps the two in lockstep; the key array is
// host-side only — serde bytes and state digests see the records alone
// (docs/COST_MODEL.md "Owner-side harvest").
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/serde.h"
#include "index/record.h"

namespace mlight::core {

class LeafBucket {
 public:
  using Record = mlight::index::Record;

  mlight::common::BitString label;

  LeafBucket() = default;
  explicit LeafBucket(mlight::common::BitString leafLabel,
                      std::vector<Record> records = {})
      : label(std::move(leafLabel)) {
    assign(std::move(records));
  }

  const std::vector<Record>& records() const noexcept { return records_; }
  std::size_t recordCount() const noexcept { return records_.size(); }

  /// The key array (see the file comment) and its stride: the
  /// dimensionality every record of this bucket shares.
  std::span<const double> keys() const noexcept { return keys_; }
  std::size_t keyDims() const noexcept { return dims_; }

  /// Calls `takeRun(first, n)` for every maximal run of consecutive
  /// records whose keys lie in the half-open `box`, in record order,
  /// reading only the key array; returns how many records matched.
  /// Branch-free: each block of 64 records becomes a hit mask first, so
  /// the cost does not depend on how predictable the hits are.  A key is
  /// outside iff some coordinate is below the box's lo or at/above its
  /// hi — Rect::contains, with the same NaN behaviour.
  template <typename TakeRun>
  std::size_t scanBox(const mlight::common::Rect& box,
                      TakeRun&& takeRun) const {
    std::array<double, mlight::common::kMaxDims> lo{};
    std::array<double, mlight::common::kMaxDims> hi{};
    for (std::size_t d = 0; d < dims_; ++d) {
      lo[d] = box.lo()[d];
      hi[d] = box.hi()[d];
    }
    const std::size_t n = records_.size();
    std::size_t matched = 0;
    std::size_t runStart = 0;
    std::size_t runLen = 0;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t block = std::min<std::size_t>(64, n - base);
      const double* key = keys_.data() + base * dims_;
      std::uint64_t hits = 0;
      for (std::size_t j = 0; j < block; ++j, key += dims_) {
        bool inside = true;
        for (std::size_t d = 0; d < dims_; ++d) {
          inside &= !(key[d] < lo[d]) & !(key[d] >= hi[d]);
        }
        hits |= std::uint64_t{inside} << j;
      }
      std::size_t at = base;
      while (hits != 0) {
        const int gap = std::countr_zero(hits);
        at += static_cast<std::size_t>(gap);
        hits >>= gap;
        const int len = std::countr_one(hits);
        if (runLen != 0 && runStart + runLen == at) {
          runLen += static_cast<std::size_t>(len);
        } else {
          if (runLen != 0) takeRun(runStart, runLen);
          matched += runLen;
          runStart = at;
          runLen = static_cast<std::size_t>(len);
        }
        at += static_cast<std::size_t>(len);
        hits = len == 64 ? 0 : hits >> len;
      }
    }
    if (runLen != 0) takeRun(runStart, runLen);
    return matched + runLen;
  }

  void append(Record r) {
    pushKey(r.key);
    records_.push_back(std::move(r));
  }

  /// Removes every record matching `pred`, keeping the survivors' order;
  /// returns how many went.
  template <typename Pred>
  std::size_t eraseIf(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (pred(std::as_const(records_[i]))) continue;
      if (kept != i) {
        records_[kept] = std::move(records_[i]);
        std::copy_n(keys_.begin() + static_cast<std::ptrdiff_t>(i * dims_),
                    dims_,
                    keys_.begin() + static_cast<std::ptrdiff_t>(kept * dims_));
      }
      ++kept;
    }
    const std::size_t removed = records_.size() - kept;
    records_.resize(kept);
    keys_.resize(kept * dims_);
    return removed;
  }

  /// Replaces the whole record store.
  void assign(std::vector<Record> records) {
    records_ = std::move(records);
    keys_.clear();
    dims_ = records_.empty() ? 0 : records_.front().key.dims();
    keys_.reserve(records_.size() * dims_);
    for (const Record& r : records_) pushKey(r.key);
  }

  /// Serialized size: drives data-movement accounting when the bucket is
  /// shipped between peers (splits, merges, churn).
  std::size_t byteSize() const noexcept {
    std::size_t bytes = 4 + 8 * ((label.size() + 63) / 64) + 4;
    for (const auto& r : records_) bytes += r.byteSize();
    return bytes;
  }

  void serialize(mlight::common::Writer& w) const {
    w.writeBitString(label);
    w.writeU32(static_cast<std::uint32_t>(records_.size()));
    for (const auto& r : records_) r.serialize(w);
  }

  static LeafBucket deserialize(mlight::common::Reader& r) {
    LeafBucket b;
    b.label = r.readBitString();
    const std::uint32_t n = r.readCount(16);
    b.records_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Record rec = Record::deserialize(r);
      if (i == 0) {
        b.keys_.reserve(std::size_t{n} * rec.key.dims());
      } else if (rec.key.dims() != b.dims_) {
        throw mlight::common::SerdeError("bucket: mixed dimensionality");
      }
      b.append(std::move(rec));
    }
    return b;
  }

 private:
  void pushKey(const mlight::common::Point& key) {
    if (records_.empty()) {
      dims_ = key.dims();
    } else {
      MLIGHT_CHECK(key.dims() == dims_,
                   "bucket records must share one dimensionality");
    }
    for (std::size_t d = 0; d < dims_; ++d) keys_.push_back(key[d]);
  }

  std::vector<Record> records_;
  std::vector<double> keys_;
  std::size_t dims_ = 0;
};

}  // namespace mlight::core
