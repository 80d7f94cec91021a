// Unit coverage of the per-peer write-ahead log (src/wal): frame
// round-trip with commit marks, acked/unacked selection, torn-tail scan
// behaviour, the deterministic simulated file layout, and digest
// stability.  Integration with the batched write path lives in
// wal_replay_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/digest.h"
#include "wal/wal.h"

namespace mlight::wal {
namespace {

using mlight::common::BitString;

std::vector<std::uint8_t> payload(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

BitString key(std::string_view bits) { return BitString::fromString(bits); }

TEST(Wal, AppendScanRoundTripPreservesEveryField) {
  PeerWal log("wal/0/n.wal");
  const std::uint64_t a = log.append(FrameKind::kPlace, key("1010"),
                                     payload("bucket-image"));
  const std::uint64_t b = log.append(FrameKind::kBatch, key("10101"),
                                     payload("three-records"));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  log.commit(a);

  const std::vector<Frame> frames = log.scan();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].lsn, 1u);
  EXPECT_EQ(frames[0].kind, FrameKind::kPlace);
  EXPECT_TRUE(frames[0].committed);
  EXPECT_EQ(frames[0].key, key("1010"));
  EXPECT_EQ(frames[0].payload, payload("bucket-image"));
  EXPECT_EQ(frames[1].lsn, 2u);
  EXPECT_EQ(frames[1].kind, FrameKind::kBatch);
  EXPECT_FALSE(frames[1].committed);
  EXPECT_EQ(frames[1].key, key("10101"));
  EXPECT_EQ(frames[1].payload, payload("three-records"));
}

TEST(Wal, ScanCommittedSelectsExactlyTheAcknowledgedFrames) {
  // The crash-mid-batch shape: a batch applied and acknowledged (A), a
  // batch applied but not yet acknowledged when the peer died (B), and
  // a later acknowledged one (C).  Replay input is {A, C} — an open
  // frame was never promised to any client.
  PeerWal log("wal/0/n.wal");
  const std::uint64_t a =
      log.append(FrameKind::kBatch, key("00"), payload("acked"));
  log.commit(a);
  log.append(FrameKind::kBatch, key("01"), payload("unacked"));
  const std::uint64_t c =
      log.append(FrameKind::kBatch, key("10"), payload("acked-too"));
  log.commit(c);

  const std::vector<Frame> acked = log.scanCommitted();
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_EQ(acked[0].lsn, a);
  EXPECT_EQ(acked[1].lsn, c);
  EXPECT_EQ(log.scan().size(), 3u);  // the open frame is still on disk
}

TEST(Wal, CommitOfAnUnknownLsnFailsLoudly) {
  PeerWal log("wal/0/n.wal");
  EXPECT_THROW(log.commit(1), mlight::common::CheckFailure);
  const std::uint64_t a =
      log.append(FrameKind::kPlace, key("1"), payload("x"));
  log.commit(a);              // fine
  log.commit(a);              // re-commit is idempotent, not an error
  EXPECT_THROW(log.commit(a + 1), mlight::common::CheckFailure);
}

TEST(Wal, TornTailEndsTheScanAtTheLastCompleteFrame) {
  PeerWal log("wal/0/n.wal");
  log.appendCommitted(FrameKind::kPlace, key("1010"), payload("one"));
  log.appendCommitted(FrameKind::kPlace, key("1011"), payload("two"));
  const std::size_t intact = log.byteSize();
  log.appendCommitted(FrameKind::kBatch, key("1100"), payload("three"));

  // A crash mid-append leaves a partial frame: cut into the third
  // frame's header.  The scan must stop cleanly after frame two.
  log.truncate(intact + 3);
  EXPECT_EQ(log.frameCount(), 2u);
  EXPECT_EQ(log.scan().size(), 2u);

  // Recovery discards the torn bytes entirely (cut at the frame
  // boundary); the log accepts appends again and stays parseable.
  log.truncate(intact);
  const std::uint64_t fresh =
      log.appendCommitted(FrameKind::kBatch, key("1101"), payload("four"));
  const std::vector<Frame> frames = log.scan();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames.back().lsn, fresh);
  EXPECT_EQ(frames.back().payload, payload("four"));
}

TEST(WalSet, FileLayoutIsAPureFunctionOfDirSeedAndName) {
  WalSet a(7);
  WalSet b(7);
  WalSet other(8);
  EXPECT_EQ(a.filePathFor("node:3"), b.filePathFor("node:3"));
  EXPECT_NE(a.filePathFor("node:3"), other.filePathFor("node:3"));
  EXPECT_NE(a.filePathFor("node:3"), a.filePathFor("node:4"));
  // forPeer materializes the log at exactly the advertised path.
  EXPECT_EQ(a.forPeer("node:3").filePath(), a.filePathFor("node:3"));
}

TEST(WalSet, PeerNamesAreSanitizedIntoSafeFileNames) {
  WalSet set(1);
  const std::string path = set.filePathFor("peer/0 x!");
  // Everything outside [A-Za-z0-9._-] becomes '_': no path separators
  // or shell metacharacters survive into the file name.
  const std::size_t slash = path.find_last_of('/');
  ASSERT_NE(slash, std::string::npos);
  EXPECT_EQ(path.substr(slash + 1), "peer_0_x_.wal");
}

TEST(WalSet, DigestIsStableAcrossSetsAndSensitiveToCommits) {
  const auto build = [](bool commitSecond) {
    WalSet set(42);
    PeerWal& n0 = set.forPeer("node:0");
    n0.appendCommitted(FrameKind::kPlace, key("10"), payload("a"));
    const std::uint64_t lsn =
        set.forPeer("node:1").append(FrameKind::kBatch, key("11"),
                                     payload("b"));
    if (commitSecond) set.forPeer("node:1").commit(lsn);
    mlight::common::Digest d;
    set.digestState(d);
    return d.value();
  };
  EXPECT_EQ(build(false), build(false));
  EXPECT_EQ(build(true), build(true));
  // The commit mark is one byte of the image — the digest must see it.
  EXPECT_NE(build(false), build(true));
}

TEST(WalSet, TotalsAggregateAcrossPeers) {
  WalSet set(3);
  EXPECT_EQ(set.peerCount(), 0u);
  EXPECT_EQ(set.findPeer("node:0"), nullptr);  // lookup never creates
  set.forPeer("node:0").appendCommitted(FrameKind::kPlace, key("0"),
                                        payload("x"));
  set.forPeer("node:0").appendCommitted(FrameKind::kBatch, key("0"),
                                        payload("y"));
  set.forPeer("node:1").appendCommitted(FrameKind::kPlace, key("1"),
                                        payload("z"));
  EXPECT_EQ(set.peerCount(), 2u);
  EXPECT_EQ(set.totalFrames(), 3u);
  EXPECT_EQ(set.totalBytes(), set.forPeer("node:0").byteSize() +
                                  set.forPeer("node:1").byteSize());
  ASSERT_NE(set.findPeer("node:0"), nullptr);
  EXPECT_EQ(set.findPeer("node:0")->frameCount(), 2u);
}

}  // namespace
}  // namespace mlight::wal
