// Per-peer write-ahead log for the batched durable write path.
//
// Every bucket placement and batched record append *applied* at a peer is
// framed into that peer's log (append-on-apply), and the frame is marked
// committed exactly when the write is acknowledged to the client.  A
// crashed peer that rejoins replays its committed frames to restore the
// buckets the crash destroyed — turning "reads fail over" (PR 3) into
// "acked writes are durable" (docs/THEORY.md invariant table).
//
// The log is the byte image of the file a deployed peer would fsync:
// length-prefixed serde frames with an explicit commit mark, so a torn
// tail (crash mid-append) parses cleanly up to the last complete frame.
// In sim mode nothing touches the filesystem — the image lives in
// memory, but its *layout* (frame format and the per-peer file path,
// derived from the layout seed and the peer name alone) is deterministic,
// so replay is bit-identical across shuffle seeds.
//
// Frame wire format (little-endian, common/serde):
//
//   u32 bodyLen | u8 commitMark | body
//   body = u64 lsn | u8 kind | bitstring key | bytes payload
//
// kPlace payload: the serialized bucket stored under `key` (a snapshot —
// it supersedes every earlier frame for the key).  kBatch payload: the
// records a batched insert appended to the bucket under `key`
// (u32 count + records).
//
// Modeled after reindexer's compact replicator/walrecord.h shape: one
// fixed header, one kind tag, typed payload, LSN-ordered scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitstring.h"
#include "common/digest.h"

namespace mlight::wal {

enum class FrameKind : std::uint8_t {
  kPlace = 1,  ///< full bucket image placed/replaced under a key
  kBatch = 2,  ///< records a batched insert appended under a key
};

/// One decoded log frame (scan output).
struct Frame {
  std::uint64_t lsn = 0;
  FrameKind kind = FrameKind::kPlace;
  bool committed = false;
  mlight::common::BitString key;       ///< DHT key of the target bucket
  std::vector<std::uint8_t> payload;   ///< kind-specific body
};

/// Append-only log of one physical peer.  The image survives the peer's
/// crash (it models the peer's local disk, not its memory), so the
/// rejoining peer finds it again by name through the owning WalSet.
class PeerWal {
 public:
  explicit PeerWal(std::string filePath) : filePath_(std::move(filePath)) {}

  /// Deterministic path of the simulated log file (metadata only — never
  /// opened in sim mode).
  const std::string& filePath() const noexcept { return filePath_; }

  /// Appends an *open* (uncommitted) frame; returns its LSN.  An open
  /// frame is durably parked but not yet acknowledged — replay skips it.
  std::uint64_t append(FrameKind kind, const mlight::common::BitString& key,
                       std::span<const std::uint8_t> payload);

  /// Flips the commit mark of the frame with the given LSN — the write
  /// is now acknowledged and must survive a crash of this peer.
  void commit(std::uint64_t lsn);

  /// append + commit in one step (synchronously acknowledged writes,
  /// e.g. bucket placements).
  std::uint64_t appendCommitted(FrameKind kind,
                                const mlight::common::BitString& key,
                                std::span<const std::uint8_t> payload) {
    const std::uint64_t lsn = append(kind, key, payload);
    commit(lsn);
    return lsn;
  }

  /// Parses the image from the start: every structurally complete frame
  /// in LSN order.  A torn tail (image cut mid-frame) ends the scan
  /// cleanly — exactly what a crashed-mid-append file would yield.
  std::vector<Frame> scan() const;

  /// scan() filtered to committed (acknowledged) frames — the replay
  /// input.
  std::vector<Frame> scanCommitted() const;

  /// Cuts the image to its first `bytes` bytes (test hook: injects the
  /// torn tail a crash mid-append leaves behind).
  void truncate(std::size_t bytes);

  std::size_t byteSize() const noexcept { return image_.size(); }
  std::size_t frameCount() const noexcept { return frames_.size(); }

  void digestState(mlight::common::Digest& d) const {
    d.feed(std::string_view(filePath_));
    d.feed(nextLsn_);
    d.feedBytes(image_);
  }

 private:
  std::string filePath_;
  std::uint64_t nextLsn_ = 1;
  /// The simulated file content — authoritative; scan() re-parses it.
  std::vector<std::uint8_t> image_;
  /// (lsn, image offset of the frame's length prefix) per appended
  /// frame, for O(log n) commit-mark flips.
  std::vector<std::pair<std::uint64_t, std::size_t>> frames_;
};

/// The per-physical-peer log set, keyed by peer *name*: names are stable
/// across crash/rejoin (a restarting peer mounts the same disk), unlike
/// ring positions or physical indices.
class WalSet {
 public:
  /// `layoutSeed` namespaces the simulated file layout under "wal/"
  /// (one deterministic directory per seeded run).
  explicit WalSet(std::uint64_t layoutSeed) : layoutSeed_(layoutSeed) {}

  /// Pure function of (seed, name): where this peer's log file would
  /// live on a real disk.
  std::string filePathFor(std::string_view peerName) const;

  /// The peer's log, created empty on first use.
  PeerWal& forPeer(std::string_view peerName);

  /// The peer's log if it has one (no creation) — the replay entry point.
  const PeerWal* findPeer(std::string_view peerName) const;

  std::size_t peerCount() const noexcept { return logs_.size(); }
  std::size_t totalFrames() const noexcept;
  std::size_t totalBytes() const noexcept;

  /// Feeds every log in sorted peer-name order (determinism contract).
  void digestState(mlight::common::Digest& d) const;

 private:
  std::uint64_t layoutSeed_ = 0;
  std::map<std::string, PeerWal, std::less<>> logs_;
};

}  // namespace mlight::wal
