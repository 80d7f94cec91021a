#include "common/label_table.h"

#include <algorithm>
#include <bit>

namespace mlight::common::label_table_detail {

bool less(const std::uint64_t* a, std::uint32_t lenA, const std::uint64_t* b,
          std::uint32_t lenB) noexcept {
  const std::size_t limit = std::min(lenA, lenB);
  for (std::size_t i = 0; i * 64 < limit; ++i) {
    const std::uint64_t diff = a[i] ^ b[i];
    if (diff == 0) continue;
    const std::size_t bit = std::countr_zero(diff);
    if (i * 64 + bit >= limit) break;
    return ((a[i] >> bit) & 1u) == 0;
  }
  return lenA < lenB;
}

BitString toBitString(const std::uint64_t* words, std::uint32_t len) {
  BitString out;
  for (std::size_t done = 0; done < len; done += 64) {
    out.appendWordBits(*words++, std::min<std::size_t>(64, len - done));
  }
  return out;
}

}  // namespace mlight::common::label_table_detail
