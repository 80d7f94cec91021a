#include "wal/wal.h"

#include <algorithm>

#include "common/check.h"
#include "common/serde.h"

namespace mlight::wal {
namespace {

// Offset of the commit mark inside a frame, relative to the frame's
// length prefix.
constexpr std::size_t kCommitMarkOffset = 4;
// Length prefix + commit mark.
constexpr std::size_t kFrameHeaderBytes = 5;

void appendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffU));
  out.push_back(static_cast<std::uint8_t>((v >> 8U) & 0xffU));
  out.push_back(static_cast<std::uint8_t>((v >> 16U) & 0xffU));
  out.push_back(static_cast<std::uint8_t>((v >> 24U) & 0xffU));
}

std::uint32_t readU32At(const std::vector<std::uint8_t>& in, std::size_t at) {
  return static_cast<std::uint32_t>(in[at]) |
         (static_cast<std::uint32_t>(in[at + 1]) << 8U) |
         (static_cast<std::uint32_t>(in[at + 2]) << 16U) |
         (static_cast<std::uint32_t>(in[at + 3]) << 24U);
}

}  // namespace

std::uint64_t PeerWal::append(FrameKind kind,
                              const mlight::common::BitString& key,
                              std::span<const std::uint8_t> payload) {
  const std::uint64_t lsn = nextLsn_++;

  mlight::common::Writer body;
  body.writeU64(lsn);
  body.writeU8(static_cast<std::uint8_t>(kind));
  body.writeBitString(key);
  body.writeBytes(payload);
  const std::vector<std::uint8_t> bodyBytes = std::move(body).take();

  const std::size_t frameStart = image_.size();
  appendU32(image_, static_cast<std::uint32_t>(bodyBytes.size()));
  image_.push_back(0);  // commit mark: open
  image_.insert(image_.end(), bodyBytes.begin(), bodyBytes.end());
  frames_.emplace_back(lsn, frameStart);
  return lsn;
}

void PeerWal::commit(std::uint64_t lsn) {
  // frames_ is appended in strictly increasing LSN order.
  const auto it = std::lower_bound(
      frames_.begin(), frames_.end(), lsn,
      [](const auto& entry, std::uint64_t want) { return entry.first < want; });
  MLIGHT_CHECK(it != frames_.end() && it->first == lsn,
               "PeerWal::commit: unknown LSN");
  image_[it->second + kCommitMarkOffset] = 1;
}

std::vector<Frame> PeerWal::scan() const {
  std::vector<Frame> out;
  std::size_t at = 0;
  while (image_.size() - at >= kFrameHeaderBytes) {
    const std::uint32_t bodyLen = readU32At(image_, at);
    if (image_.size() - at - kFrameHeaderBytes < bodyLen) break;  // torn tail
    const std::uint8_t mark = image_[at + kCommitMarkOffset];
    mlight::common::Reader body(
        std::span<const std::uint8_t>(image_.data() + at + kFrameHeaderBytes,
                                      bodyLen));
    Frame f;
    try {
      f.lsn = body.readU64();
      const std::uint8_t kind = body.readU8();
      if (kind != static_cast<std::uint8_t>(FrameKind::kPlace) &&
          kind != static_cast<std::uint8_t>(FrameKind::kBatch)) {
        break;  // corrupt tail — stop cleanly, keep the valid prefix
      }
      f.kind = static_cast<FrameKind>(kind);
      f.key = body.readBitString();
      f.payload = body.readBytes();
    } catch (const mlight::common::SerdeError&) {
      break;  // truncated/corrupt body — same clean stop
    }
    f.committed = mark != 0;
    out.push_back(std::move(f));
    at += kFrameHeaderBytes + bodyLen;
  }
  return out;
}

std::vector<Frame> PeerWal::scanCommitted() const {
  std::vector<Frame> all = scan();
  std::vector<Frame> out;
  out.reserve(all.size());
  for (Frame& f : all) {
    if (f.committed) out.push_back(std::move(f));
  }
  return out;
}

void PeerWal::truncate(std::size_t bytes) {
  if (bytes >= image_.size()) return;
  image_.resize(bytes);
  // Drop index entries for frames the cut removed or tore: a frame
  // survives only if its header AND body still fit in the image.
  std::erase_if(frames_, [&](const auto& entry) {
    const std::size_t off = entry.second;
    if (image_.size() - off < kFrameHeaderBytes) return true;
    return image_.size() - off - kFrameHeaderBytes < readU32At(image_, off);
  });
}

std::string WalSet::filePathFor(std::string_view peerName) const {
  // wal/<seed as 16 hex digits>/<sanitized peer name>.wal — a pure
  // function of the seed and the name, so the layout is identical across
  // shuffle seeds and re-runs.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string path = "wal/";
  for (int shift = 60; shift >= 0; shift -= 4) {
    path += kHex[(layoutSeed_ >> static_cast<unsigned>(shift)) & 0xfU];
  }
  path += '/';
  for (const char c : peerName) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    path += safe ? c : '_';
  }
  path += ".wal";
  return path;
}

PeerWal& WalSet::forPeer(std::string_view peerName) {
  const auto it = logs_.find(peerName);
  if (it != logs_.end()) return it->second;
  return logs_.emplace(std::string(peerName), PeerWal(filePathFor(peerName)))
      .first->second;
}

const PeerWal* WalSet::findPeer(std::string_view peerName) const {
  const auto it = logs_.find(peerName);
  return it == logs_.end() ? nullptr : &it->second;
}

std::size_t WalSet::totalFrames() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, log] : logs_) n += log.frameCount();
  return n;
}

std::size_t WalSet::totalBytes() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, log] : logs_) n += log.byteSize();
  return n;
}

void WalSet::digestState(mlight::common::Digest& d) const {
  d.feed(layoutSeed_);
  d.feed(logs_.size());
  for (const auto& [name, log] : logs_) {  // std::map: sorted by name
    d.feed(std::string_view(name));
    log.digestState(d);
  }
}

}  // namespace mlight::wal
