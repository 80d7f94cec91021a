// Data records indexed by the over-DHT schemes.
//
// A record couples an m-dimensional data key δ (every δ_i in [0,1), the
// half-open form of the paper's §3.1 domain) with an opaque payload (e.g.
// the postal address text in the paper's dataset).  Serialized size
// drives the data-movement accounting.
#pragma once

#include <cstddef>
#include <cstdint>
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

}  // namespace mlight::index
