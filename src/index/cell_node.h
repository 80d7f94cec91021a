// The node of the baselines' trees (PHT's trie, DST/RST's static segment
// tree): one cell of the interleaved-bit space, stored in the DHT under
// its own label.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitstring.h"
#include "common/geometry.h"
#include "common/serde.h"
#include "index/record.h"

namespace mlight::index {

struct CellNode {
  mlight::common::BitString label;
  /// True when `records` are exactly the records of this node's cell: a
  /// PHT leaf (false: a routing marker holding nothing), or a DST/RST
  /// node no record has skipped (false once one found it saturated, so
  /// queries must descend below it).
  bool complete = true;
  std::vector<Record> records;

  std::size_t recordCount() const noexcept { return records.size(); }
  std::size_t byteSize() const noexcept {
    std::size_t bytes = 4 + 8 * ((label.size() + 63) / 64) + 1 + 4;
    for (const auto& r : records) bytes += r.byteSize();
    return bytes;
  }

  void serialize(mlight::common::Writer& w) const {
    w.writeBitString(label);
    w.writeU8(complete ? 1 : 0);
    w.writeU32(static_cast<std::uint32_t>(records.size()));
    for (const auto& r : records) r.serialize(w);
  }

  static CellNode deserialize(mlight::common::Reader& r) {
    CellNode n;
    n.label = r.readBitString();
    n.complete = r.readU8() != 0;
    const std::uint32_t count = r.readCount(16);
    n.records.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      n.records.push_back(Record::deserialize(r));
    }
    return n;
  }
};

/// Appends the node's records whose key lies inside `range`.
inline void collectInRange(const CellNode& node,
                           const mlight::common::Rect& range,
                           std::vector<Record>& out) {
  for (const auto& r : node.records) {
    if (range.contains(r.key)) out.push_back(r);
  }
}

}  // namespace mlight::index
