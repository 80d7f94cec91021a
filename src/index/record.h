// Data records indexed by the over-DHT schemes.
//
// A record couples an m-dimensional data key δ (every δ_i in [0,1), the
// half-open form of the paper's §3.1 domain) with an opaque payload (e.g.
// the postal address text in the paper's dataset).  Serialized size
// drives the data-movement accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/geometry.h"
#include "common/serde.h"

namespace mlight::index {

struct Record {
  mlight::common::Point key;
  std::string payload;
  /// Stable id assigned by the application; lets tests compare result
  /// sets without relying on floating-point ordering.
  std::uint64_t id = 0;

  /// Serialized size in bytes: id + dims + coords + payload header+body.
  std::size_t byteSize() const noexcept {
    return 8 + 4 + 8 * key.dims() + 4 + payload.size();
  }

  void serialize(mlight::common::Writer& w) const {
    w.writeU64(id);
    w.writeU32(static_cast<std::uint32_t>(key.dims()));
    for (std::size_t i = 0; i < key.dims(); ++i) w.writeDouble(key[i]);
    w.writeString(payload);
  }

  static Record deserialize(mlight::common::Reader& r) {
    Record rec;
    rec.id = r.readU64();
    const std::uint32_t dims = r.readU32();
    if (dims < 1 || dims > mlight::common::kMaxDims) {
      throw mlight::common::SerdeError("record: bad dimensionality");
    }
    rec.key = mlight::common::Point(dims);
    for (std::uint32_t i = 0; i < dims; ++i) rec.key[i] = r.readDouble();
    rec.payload = r.readString();
    return rec;
  }

  friend bool operator==(const Record& a, const Record& b) noexcept {
    return a.id == b.id && a.key == b.key && a.payload == b.payload;
  }
};

/// Write-path key check shared by every index's inserts: throws
/// std::invalid_argument ("<op>: ...") unless `key` has `dims`
/// coordinates and each x satisfies 0 <= x < 1 (NaN fails).  Range
/// queries clip to the unit cube and harvest by half-open cells, so a key
/// outside [0,1)^m would be stored where no query can return it.
inline void requireIndexableKey(const mlight::common::Point& key,
                                std::size_t dims, const char* op) {
  if (key.dims() != dims) {
    throw std::invalid_argument(std::string(op) + ": wrong dimensionality");
  }
  for (std::size_t i = 0; i < key.dims(); ++i) {
    if (!(0.0 <= key[i] && key[i] < 1.0)) {
      throw std::invalid_argument(std::string(op) +
                                  ": key outside [0,1)^m: " + key.toString());
    }
  }
}

}  // namespace mlight::index
