// Fault-injection layer: seeded loss/jitter, RPC timeout/retry with
// dead letters, crash-while-in-flight ghost suppression, and the
// DistributedStore's replica failover + read-repair on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/bitstring.h"
#include "common/check.h"
#include "common/invariants.h"
#include "common/rng.h"
#include "common/serde.h"
#include "dht/network.h"
#include "dht/rpc.h"
#include "dht/sim.h"
#include "dst/dst_index.h"
#include "mlight/index.h"
#include "pht/pht_index.h"
#include "store/distributed_store.h"

namespace mlight::dht {
namespace {

using mlight::common::BitString;

TEST(FaultSeed, ReadsEnvironmentWithFallback) {
  ::unsetenv("MLIGHT_FAULT_SEED");
  EXPECT_EQ(faultSeedFromEnv(77), 77u);
  ::setenv("MLIGHT_FAULT_SEED", "123456789", 1);
  EXPECT_EQ(faultSeedFromEnv(77), 123456789u);
  ::unsetenv("MLIGHT_FAULT_SEED");
}

TEST(FaultSeed, MalformedEnvironmentFailsLoudly) {
  // A malformed seed silently falling back would make a CI fault-matrix
  // run test something other than what its matrix cell claims — reject
  // instead of guessing.  (Trailing garbage was the observed bug: strtoull
  // happily parses the "123" of "123abc".)
  for (const char* bad : {"123abc", "abc", "-5", "+5", " 123", "123 ",
                          "0x10", "12.5",
                          "99999999999999999999" /* > 2^64-1 */}) {
    ::setenv("MLIGHT_FAULT_SEED", bad, 1);
    EXPECT_THROW(faultSeedFromEnv(7), mlight::common::CheckFailure)
        << "accepted \"" << bad << '"';
  }
  // The full valid range still parses.
  ::setenv("MLIGHT_FAULT_SEED", "0", 1);
  EXPECT_EQ(faultSeedFromEnv(7), 0u);
  ::setenv("MLIGHT_FAULT_SEED", "18446744073709551615", 1);
  EXPECT_EQ(faultSeedFromEnv(7), 18446744073709551615ull);
  // Unset and empty both mean "use the fallback", not an error.
  ::setenv("MLIGHT_FAULT_SEED", "", 1);
  EXPECT_EQ(faultSeedFromEnv(7), 7u);
  ::unsetenv("MLIGHT_FAULT_SEED");
}

// The scheduler's shuffle seed shares MLIGHT_FAULT_SEED's contract (one
// strict parser): malformed values fail loudly instead of silently
// running the unshuffled schedule.
TEST(ShuffleSeedEnv, MalformedEnvironmentFailsLoudly) {
  for (const char* bad : {"7abc", "abc", "-7", "+7", " 7", "7 ", "0x7",
                          "7.5", "99999999999999999999"}) {
    ::setenv("MLIGHT_SCHED_SHUFFLE_SEED", bad, 1);
    EXPECT_THROW(schedShuffleSeedFromEnv(7), mlight::common::CheckFailure)
        << "accepted \"" << bad << '"';
  }
  ::setenv("MLIGHT_SCHED_SHUFFLE_SEED", "42", 1);
  EXPECT_EQ(schedShuffleSeedFromEnv(7), 42u);
  ::setenv("MLIGHT_SCHED_SHUFFLE_SEED", "", 1);
  EXPECT_EQ(schedShuffleSeedFromEnv(7), 7u);
  ::unsetenv("MLIGHT_SCHED_SHUFFLE_SEED");
  EXPECT_EQ(schedShuffleSeedFromEnv(7), 7u);
}

RpcEnvelope makeEnv(RingId from, std::uint32_t round = 1) {
  RpcEnvelope env;
  env.kind = RpcKind::kGet;
  env.from = from;
  env.round = round;
  env.payload = {1, 2, 3};
  return env;
}

TEST(FaultInjection, DisabledModelAddsNothing) {
  Network net(16);
  int delivered = 0;
  const RingId key = keyId("faults/none");
  net.sendRpc(key, makeEnv(net.peers()[0]),
              [&](const RpcDelivery&) { ++delivered; });
  net.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.deadLetters().total(), 0u);
  EXPECT_EQ(net.ghostDrops(), 0u);
  EXPECT_EQ(net.totalCost().retries, 0u);
}

TEST(FaultInjection, LossyLinkRetriesUntilDelivered) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 0.5;
  faults.maxAttempts = 32;  // enough that (1/2)^32 losses are impossible
  faults.seed = 9;
  net.setFaultModel(faults);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    const RingId key = keyId("faults/lossy-" + std::to_string(i));
    net.sendRpc(key, makeEnv(net.peers()[i % 16]),
                [&](const RpcDelivery&) { ++delivered; });
  }
  net.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(net.deadLetters().total(), 0u);
  // With p = 0.5 over 50 sends, retries are statistically certain.
  EXPECT_GT(net.totalCost().retries, 0u);
}

TEST(FaultInjection, TotalLossBecomesDeadLetter) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 1.0;
  faults.maxAttempts = 4;
  net.setFaultModel(faults);
  int delivered = 0;
  int failed = 0;
  std::size_t reportedAttempts = 0;
  const RingId key = keyId("faults/blackhole");
  const RouteResult route = net.sendRpc(
      key, makeEnv(net.peers()[0]),
      [&](const RpcDelivery&) { ++delivered; },
      [&](const RpcEnvelope&, std::size_t attempts) {
        ++failed;
        reportedAttempts = attempts;
      });
  net.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(reportedAttempts, 4u);
  EXPECT_EQ(net.deadLetters().total(), 1u);
  ASSERT_EQ(net.deadLetters().snapshot().size(), 1u);
  EXPECT_EQ(net.deadLetters().snapshot()[0].attempts, 4u);
  // Each attempt departs when its predecessor times out, on the same
  // route; the envelope dead-letters when the fourth timeout fires.
  double deadAt = 0.0;
  for (std::size_t attempt = 0; attempt < 4; ++attempt) {
    deadAt += retryBackoffMs(2.0 * route.ms + kTimeoutBaseMs, attempt);
  }
  EXPECT_DOUBLE_EQ(net.deadLetters().snapshot()[0].at, deadAt);
  EXPECT_DOUBLE_EQ(net.now(), deadAt);
  EXPECT_EQ(net.deadLetters().size(), 1u);
  EXPECT_EQ(net.deadLetters().dropped(), 0u);
  // 4 attempts = the original send + 3 retries.
  EXPECT_EQ(net.totalCost().retries, 3u);
}

// The log is a ring: a flapping peer can dead-letter without bound, so
// only the most recent entries keep their full record, evictions are
// counted, and the all-time total (the digest-pinned counter) is
// unaffected by capacity.
TEST(DeadLetterRing, KeepsLatestEntriesAndCountsDrops) {
  DeadLetterRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    DeadLetter dl;
    dl.rpcId = i;
    dl.attempts = static_cast<std::size_t>(i);
    ring.record(dl);
  }
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  const std::vector<DeadLetter> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].rpcId, 6u + i);  // oldest retained -> newest
  }
}

TEST(DeadLetterRing, BelowCapacityRetainsEverythingInOrder) {
  DeadLetterRing ring;  // default capacity (64)
  for (std::uint64_t i = 0; i < 3; ++i) {
    DeadLetter dl;
    dl.rpcId = i;
    ring.record(dl);
  }
  EXPECT_EQ(ring.total(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.size(), 3u);
  const std::vector<DeadLetter> snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].rpcId, 0u);
  EXPECT_EQ(snap[2].rpcId, 2u);
  ring.clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.size(), 0u);
}

TEST(DeadLetterRing, NetworkLogCapsAtRingCapacityTotalKeepsCounting) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 1.0;
  faults.maxAttempts = 1;  // every send dead-letters immediately
  net.setFaultModel(faults);
  const std::size_t kSends = DeadLetterRing::kDefaultCapacity + 40;
  for (std::size_t i = 0; i < kSends; ++i) {
    net.sendRpc(keyId("faults/flap-" + std::to_string(i)),
                makeEnv(net.peers()[i % 16]), [](const RpcDelivery&) {});
  }
  net.run();
  EXPECT_EQ(net.deadLetters().total(), kSends);
  EXPECT_EQ(net.deadLetters().size(), DeadLetterRing::kDefaultCapacity);
  EXPECT_EQ(net.deadLetters().dropped(), kSends - DeadLetterRing::kDefaultCapacity);
  EXPECT_EQ(net.deadLetters().snapshot().size(), DeadLetterRing::kDefaultCapacity);
}

TEST(FaultInjection, CrashInFlightSuppressesGhostDelivery) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;  // loss = 0: only the crash threatens delivery
  net.setFaultModel(faults);
  const RingId key = keyId("faults/crash-target");
  const RingId victim = net.responsible(key);
  RingId initiator{};
  for (const RingId p : net.peers()) {
    if (p != victim) {
      initiator = p;
      break;
    }
  }
  std::vector<RingId> deliveredAt;
  double retrySentAt = -1.0;
  const RouteResult route =
      net.sendRpc(key, makeEnv(initiator), [&](const RpcDelivery& d) {
        deliveredAt.push_back(d.route.owner);
        retrySentAt = d.sentAt;
      });
  // The envelope is in flight; its addressee dies before the event fires.
  ASSERT_TRUE(net.crashPeer(victim));
  net.run();
  // No ghost: the original delivery was suppressed, the timeout re-routed
  // to the key's new owner, and the handler ran exactly once — there.
  EXPECT_GT(net.ghostDrops(), 0u);
  ASSERT_EQ(deliveredAt.size(), 1u);
  EXPECT_EQ(deliveredAt[0], net.responsible(key));
  EXPECT_NE(deliveredAt[0], victim);
  EXPECT_EQ(net.deadLetters().total(), 0u);
  // The ghost-dropped first attempt departed at t = 0; its timeout, and
  // with it the retry, fires one attempt-0 timeout later.
  EXPECT_DOUBLE_EQ(retrySentAt,
                   retryBackoffMs(2.0 * route.ms + kTimeoutBaseMs, 0));
}

// An attempt that is delivered never times out, so it schedules no
// timeout: the send leaves one event (the delivery), and the clock stops
// where the delivery ran.
TEST(FaultInjection, DeliveredAttemptArmsNoTimeout) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;  // loss 0, jitter 0: the first attempt arrives
  net.setFaultModel(faults);
  double deliveredAt = -1.0;
  net.sendRpc(keyId("faults/clean"), makeEnv(net.peers()[0]),
              [&](const RpcDelivery& d) { deliveredAt = d.deliveredAt; });
  EXPECT_EQ(net.pendingEvents(), 1u);
  net.run();
  EXPECT_GE(deliveredAt, 0.0);
  EXPECT_EQ(net.now(), deliveredAt);
  EXPECT_EQ(net.pendingEvents(), 0u);
  EXPECT_EQ(net.ghostDrops(), 0u);
}

// An envelope first sent with faults on stays guarded through its
// retries: turning faults off while its timeout is pending must not let
// the retransmission run a handler at an addressee that crashed while
// it was in flight.
TEST(FaultInjection, RetransmissionStaysGuardedAfterFaultsTurnOff) {
  Network net(16);
  FaultModel lossy;
  lossy.enabled = true;
  lossy.lossProbability = 1.0;  // the first attempt never arrives
  net.setFaultModel(lossy);
  const RingId key = keyId("faults/guarded-retry");
  const RingId victim = net.responsible(key);
  std::vector<RingId> others;  // live peers other than the addressee
  for (const RingId p : net.peers()) {
    if (p != victim) others.push_back(p);
  }
  std::vector<RingId> handledAt;
  const RouteResult route =
      net.sendRpc(key, makeEnv(others[0]), [&](const RpcDelivery& d) {
        handledAt.push_back(d.env.to);
      });
  net.setFaultModel(FaultModel{});  // faults off; attempt 0 still pending

  // The retry departs when attempt 0 times out and arrives route.ms
  // later.  A third peer's fire-and-forget messages land one send
  // overhead apart; the first to land strictly inside that window
  // crashes the addressee while the retry is in flight.
  const double retrySent = retryBackoffMs(2.0 * route.ms + kTimeoutBaseMs, 0);
  const double retryArrives = retrySent + route.ms;
  const RingId fillerKey = others[1];  // owned by others[1], never the victim
  bool crashed = false;
  const auto crashInWindow = [&](const RpcDelivery& d) {
    if (!crashed && d.deliveredAt > retrySent && d.deliveredAt < retryArrives) {
      crashed = net.crashPeer(victim);
    }
  };
  const double overhead = net.sendOverheadMs();
  double lands = 0.0;
  for (std::size_t i = 0; lands < retryArrives; ++i) {
    lands = static_cast<double>(i) * overhead +
            net.sendRpc(fillerKey, makeEnv(others[2]), crashInWindow).ms;
  }
  net.run();
  ASSERT_TRUE(crashed);
  // The retry was ghost-dropped; its own timeout re-routed it to the
  // key's new owner, where the handler ran once.
  EXPECT_EQ(net.ghostDrops(), 1u);
  ASSERT_EQ(handledAt.size(), 1u);
  EXPECT_NE(handledAt[0], victim);
  EXPECT_EQ(handledAt[0], net.responsible(key));
  EXPECT_EQ(net.deadLetters().total(), 0u);
}

// A crashed peer's timers die with it: when the sender of a lost
// envelope leaves the ring before its timeout fires, there is nobody to
// retransmit (and no ring position to route from), so the envelope
// dead-letters on the spot instead of re-routing.
TEST(FaultInjection, CrashedSenderDeadLettersInsteadOfRetransmitting) {
  Network net(16);
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 1.0;  // the first attempt never arrives
  faults.maxAttempts = 6;
  net.setFaultModel(faults);
  const RingId key = keyId("faults/orphaned-sender");
  RingId sender{};
  for (const RingId p : net.peers()) {
    if (p != net.responsible(key)) {
      sender = p;
      break;
    }
  }
  int delivered = 0;
  int failed = 0;
  std::size_t reportedAttempts = 0;
  net.sendRpc(
      key, makeEnv(sender), [&](const RpcDelivery&) { ++delivered; },
      [&](const RpcEnvelope& env, std::size_t attempts) {
        EXPECT_EQ(env.from, sender);
        ++failed;
        reportedAttempts = attempts;
      });
  ASSERT_TRUE(net.crashPeer(sender));
  net.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(reportedAttempts, 1u);
  EXPECT_EQ(net.deadLetters().total(), 1u);
  ASSERT_EQ(net.deadLetters().snapshot().size(), 1u);
  EXPECT_EQ(net.deadLetters().snapshot()[0].from, sender);
  EXPECT_EQ(net.deadLetters().snapshot()[0].attempts, 1u);
  EXPECT_EQ(net.totalCost().retries, 0u);
  EXPECT_EQ(net.totalCost().lookups, 1u);  // only the original send
}

TEST(FaultInjection, SameSeedSameOutcomeDifferentSeedLikelyDiffers) {
  const auto runOnce = [](std::uint64_t seed) {
    Network net(16);
    FaultModel faults;
    faults.enabled = true;
    faults.lossProbability = 0.3;
    faults.jitterMs = 20.0;
    faults.maxAttempts = 16;
    faults.seed = seed;
    net.setFaultModel(faults);
    for (int i = 0; i < 40; ++i) {
      net.sendRpc(keyId("faults/det-" + std::to_string(i)),
                  makeEnv(net.peers()[i % 16]), [](const RpcDelivery&) {});
    }
    net.run();
    return std::pair<std::uint64_t, double>{net.totalCost().retries,
                                            net.now()};
  };
  const auto a = runOnce(5);
  const auto b = runOnce(5);
  const auto c = runOnce(6);
  EXPECT_EQ(a, b);   // same seed: byte-exact timeline
  EXPECT_NE(a, c);   // different seed: different loss/jitter draws
}

// --- Store-level failover ------------------------------------------------

struct FakeBucket {
  int value = 0;
  std::size_t byteSize() const noexcept { return 8; }
  std::size_t recordCount() const noexcept { return 1; }
  void serialize(mlight::common::Writer& w) const {
    w.writeU32(static_cast<std::uint32_t>(value));
    w.writeU32(0);
  }
  static FakeBucket deserialize(mlight::common::Reader& r) {
    FakeBucket b;
    b.value = static_cast<int>(r.readU32());
    r.readU32();
    return b;
  }
};

BitString label(int i) {
  std::string s;
  for (int b = 0; b < 12; ++b) s.push_back((i >> b) % 2 ? '1' : '0');
  return BitString::fromString(s);
}

TEST(Failover, ReadRepairAfterCrashUnderOnReadPolicy) {
  Network net(24);
  store::DistributedStore<FakeBucket> store(net, "f/", 2,
                                            store::RepairPolicy::kOnRead);
  for (int i = 0; i < 64; ++i) store.placeLocal(label(i), FakeBucket{i});
  const BitString target = label(3);
  const RingId primary = store.ownerOf(target);
  ASSERT_TRUE(net.crashPeer(primary));
  ASSERT_EQ(store.lostBuckets(), 0u);  // the replica survived
  // Deferred repair: the bucket is degraded until something reads it.
  EXPECT_LT(store.holdersOf(target).size(), 2u);

  RingId reader{};
  for (const RingId p : net.peers()) {
    if (p != store.ownerOf(target)) {
      reader = p;
      break;
    }
  }
  const auto found = store.routeAndFind(reader, target);
  ASSERT_NE(found.bucket, nullptr);
  EXPECT_FALSE(found.failed);
  EXPECT_EQ(found.bucket->value, 3);
  EXPECT_GT(store.failoverReads(), 0u);
  EXPECT_GT(store.readRepairs(), 0u);
  // Read-repair restored R copies, on the peers the current ring names.
  EXPECT_EQ(store.holdersOf(target).size(), 2u);
  std::vector<RingId> current;
  for (const auto& t : store.copyTargets(target)) current.push_back(t.holder);
  EXPECT_EQ(store.holdersOf(target), current);
}

TEST(Failover, TotalLossReadFailsInsteadOfAnsweringNull) {
  Network net(16);
  store::DistributedStore<FakeBucket> store(net, "f/", 1);
  store.placeLocal(label(1), FakeBucket{1});
  ASSERT_TRUE(net.crashPeer(store.ownerOf(label(1))));
  ASSERT_EQ(store.lostBuckets(), 1u);
  bool invoked = false;
  store.asyncAccess(RpcKind::kGet, net.peers()[0], label(1), 1,
                    [&](FakeBucket*, const RpcDelivery&) { invoked = true; });
  net.run();
  EXPECT_FALSE(invoked);  // a mourned label must not masquerade as NULL
  EXPECT_EQ(store.failedReads(), 1u);
  const auto found = store.routeAndFind(net.peers()[0], label(1));
  EXPECT_TRUE(found.failed);
  EXPECT_EQ(found.bucket, nullptr);
  EXPECT_EQ(store.failedReads(), 2u);
}

TEST(Failover, NeverStoredLabelIsAuthoritativeNull) {
  Network net(16);
  store::DistributedStore<FakeBucket> store(net, "f/", 2);
  const auto found = store.routeAndFind(net.peers()[0], label(9));
  EXPECT_FALSE(found.failed);
  EXPECT_EQ(found.bucket, nullptr);
  EXPECT_EQ(store.failedReads(), 0u);
}

TEST(Failover, DeadLetterFailsOverToSurvivingReplica) {
  Network net(24);
  store::DistributedStore<FakeBucket> store(net, "f/", 2);
  store.placeLocal(label(5), FakeBucket{5});
  std::vector<RingId> holders;
  for (const auto& t : store.copyTargets(label(5))) holders.push_back(t.holder);
  ASSERT_EQ(holders.size(), 2u);
  // Every attempt is lost: the primary read dead-letters, and the store
  // walks to the replica holder — whose read also dead-letters, so the
  // read fails only after *both* candidates were tried.
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 1.0;
  faults.maxAttempts = 2;
  net.setFaultModel(faults);
  bool invoked = false;
  store.asyncAccess(RpcKind::kGet, holders[0], label(5), 1,
                    [&](FakeBucket*, const RpcDelivery&) { invoked = true; });
  net.run();
  EXPECT_FALSE(invoked);
  EXPECT_EQ(store.failedReads(), 1u);
  EXPECT_EQ(net.deadLetters().total(), 2u);  // one per candidate holder

  // With loss off again the same read succeeds (data never moved).
  faults.lossProbability = 0.0;
  net.setFaultModel(faults);
  const auto found = store.routeAndFind(holders[0], label(5));
  ASSERT_NE(found.bucket, nullptr);
  EXPECT_EQ(found.bucket->value, 5);
}

// A put whose primary envelope dead-letters stored its bucket nowhere:
// the label is mourned like a bucket whose every holder crashed, so a
// read fails instead of answering an authoritative NULL.
TEST(Failover, DeadLetteredPutMournsItsLabel) {
  Network net(16);
  store::DistributedStore<FakeBucket> store(net, "f/", 1);
  const BitString target = label(2);
  RingId source{};
  for (const RingId p : net.peers()) {
    if (p != store.ownerOf(target)) {
      source = p;
      break;
    }
  }
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 1.0;
  faults.maxAttempts = 2;
  net.setFaultModel(faults);
  store.place(source, target, FakeBucket{2});
  net.setFaultModel(FaultModel{});
  EXPECT_EQ(net.deadLetters().total(), 1u);
  EXPECT_EQ(store.peek(target), nullptr);
  EXPECT_TRUE(store.isMourned(target));
  EXPECT_EQ(store.lostBuckets(), 1u);
  const auto found = store.routeAndFind(source, target);
  EXPECT_TRUE(found.failed);
  EXPECT_EQ(found.bucket, nullptr);
  EXPECT_EQ(store.failedReads(), 1u);
}

class ScopedLevel {
 public:
  explicit ScopedLevel(mlight::common::AuditLevel level)
      : previous_(mlight::common::auditLevel()) {
    mlight::common::setAuditLevel(level);
  }
  ~ScopedLevel() { mlight::common::setAuditLevel(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  mlight::common::AuditLevel previous_;
};

FaultModel lossyLinks(std::uint64_t seed) {
  FaultModel faults;
  faults.enabled = true;
  faults.lossProbability = 0.3;
  faults.maxAttempts = 6;
  faults.seed = seed;
  return faults;
}

mlight::index::Record uniformRecord(mlight::common::Rng& rng,
                                    std::uint64_t id) {
  mlight::index::Record r;
  r.key = mlight::common::Point{rng.uniform(), rng.uniform()};
  r.id = id;
  return r;
}

/// The metering contract of index paths, which never call the bare
/// Network::lookup(): every routed resolution is an envelope's first
/// transmission (one message) or a retransmission (one retry).
void expectLookupsAreMessagesPlusRetries(const mlight::dht::CostMeter& c) {
  EXPECT_EQ(c.lookups, c.messages + c.retries);
}

/// Inserts `n` uniform records into an m-LIGHT index over a lossy
/// overlay, then reads back every acknowledged one.  Returns the number
/// of lost buckets; fails the test on any silent miss (an acknowledged
/// record neither found nor reported as a failed probe).
std::size_t lossyMLightRun(std::uint64_t seed, std::size_t n) {
  Network net(32, seed);
  net.setFaultModel(lossyLinks(seed));
  core::MLightConfig cfg;  // cfg.cache stays at its environment default
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.seed = seed;
  core::MLightIndex index(net, cfg);
  mlight::common::Rng rng(7 * seed);
  std::vector<mlight::index::Record> acked;
  for (std::size_t i = 0; i < n; ++i) {
    const mlight::index::Record r = uniformRecord(rng, i);
    const std::size_t failedBefore = index.failedInserts();
    index.insert(r);
    if (index.failedInserts() == failedBefore) acked.push_back(r);
  }
  std::size_t silentMisses = 0;
  for (const auto& r : acked) {
    const auto res = index.pointQuery(r.key);
    const bool found =
        std::any_of(res.records.begin(), res.records.end(),
                    [&](const mlight::index::Record& x) { return x.id == r.id; });
    if (!found && res.stats.failedProbes == 0) ++silentMisses;
    expectLookupsAreMessagesPlusRetries(res.stats.cost);
  }
  EXPECT_EQ(silentMisses, 0u) << "seed " << seed;
  EXPECT_GT(net.totalCost().retries, 0u);
  expectLookupsAreMessagesPlusRetries(net.totalCost());
  return index.store().lostBuckets();
}

/// What a lossy PHT run leaves behind.
struct LossyPhtOutcome {
  std::size_t lostBuckets = 0;
  std::uint64_t lookups = 0;
  std::uint64_t digest = 0;
};

/// The PHT half: the same lossy overlay must never abort its searches.
/// `cache` overrides the environment's hint-cache default when set.
LossyPhtOutcome lossyPhtRun(std::uint64_t seed, std::size_t n,
                            std::optional<bool> cache = std::nullopt) {
  Network net(32, seed);
  net.setFaultModel(lossyLinks(seed));
  pht::PhtConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.seed = seed;
  if (cache.has_value()) cfg.cache.enabled = *cache;
  pht::PhtIndex index(net, cfg);
  mlight::common::Rng rng(7 * seed);
  for (std::size_t i = 0; i < n; ++i) index.insert(uniformRecord(rng, i));
  const LossyPhtOutcome out{index.store().lostBuckets(),
                            net.totalCost().lookups, index.stateDigest()};
  for (std::size_t i = 0; i < 50; ++i) {
    const auto res = index.pointQuery(uniformRecord(rng, n + i).key);
    expectLookupsAreMessagesPlusRetries(res.stats.cost);
  }
  EXPECT_GT(net.totalCost().retries, 0u);
  expectLookupsAreMessagesPlusRetries(net.totalCost());
  return out;
}

// Under lossy links some split puts dead-letter.  The moved child is then
// stored nowhere; the searches that later cross the hole must fail loudly
// (failedProbes) rather than read it as NULL and lose the binary search.
// The tiling audit at paranoid would rightly flag the hole, as after an
// R=1 crash, so the level is pinned to boundaries.
TEST(Failover, LossySplitPutsFailLoudlyNeverAbort) {
  const ScopedLevel level(mlight::common::AuditLevel::kBoundaries);
  EXPECT_GT(lossyMLightRun(9, 3000), 0u);
  // Pinned with the cache off and on: an unanswered search probe and an
  // unanswered hint probe must both give up the same way.  The cache-on
  // pin moves whenever a hint probe's body does: each attempt's loss draw
  // hashes the envelope payload.
  const LossyPhtOutcome plain = lossyPhtRun(9, 2000, false);
  EXPECT_GT(plain.lostBuckets, 0u);
  EXPECT_EQ(plain.lookups, 12957u);
  EXPECT_EQ(plain.digest, 0xdae45cf8c81e2786ull);
  const LossyPhtOutcome cached = lossyPhtRun(9, 2000, true);
  EXPECT_GT(cached.lostBuckets, 0u);
  EXPECT_EQ(cached.lookups, 11670u);
  EXPECT_EQ(cached.digest, 0x4377ab89df634072ull);
  const std::uint64_t envSeed = faultSeedFromEnv(1);
  lossyMLightRun(envSeed, 3000);
  lossyPhtRun(envSeed, 2000);
}

// §5's depth estimate over a lossy overlay: a probe that fails to locate
// its leaf must not count as a leaf (the empty label's edge depth wraps
// around and used to collapse the estimate to a level or two).
TEST(Failover, DepthEstimateSkipsFailedLocates) {
  Network net(32, 9);
  core::MLightConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.seed = 9;
  core::MLightIndex index(net, cfg);
  mlight::common::Rng rng(63);
  std::vector<mlight::index::Record> records;
  for (std::size_t i = 0; i < 2000; ++i) {
    records.push_back(uniformRecord(rng, i));
  }
  index.bulkLoad(records);
  FaultModel faults = lossyLinks(9);
  faults.lossProbability = 0.6;
  faults.maxAttempts = 2;
  net.setFaultModel(faults);
  const std::size_t failedBefore = index.store().failedReads();
  const std::size_t estimate = index.estimateDepthByProbing(50, 4);
  ASSERT_GT(index.store().failedReads(), failedBefore);
  EXPECT_GE(estimate, 4u);
  EXPECT_LE(estimate, index.treeDepth() + 4);
}

/// Inserts `n` uniform records into a static segment tree over a lossy
/// overlay whose envelopes give up after two attempts, so some level
/// chains dead-letter before the leaf level.
void lossyDstRun(const dst::DstConfig& cfg, std::size_t n) {
  Network net(32, 1);
  FaultModel faults = lossyLinks(1);
  faults.maxAttempts = 2;
  net.setFaultModel(faults);
  dst::DstIndex index(net, cfg);
  mlight::common::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) index.insert(uniformRecord(rng, i));
  std::size_t leafRecords = 0;
  index.store().forEach([&](const BitString& key,
                            const mlight::index::CellNode& node, RingId) {
    if (key.size() == cfg.maxDepth) leafRecords += node.records.size();
  });
  EXPECT_EQ(index.size(), leafRecords);
  EXPECT_GT(index.failedInserts(), 0u);
  EXPECT_EQ(index.size() + index.failedInserts(), n);
  EXPECT_NO_THROW(index.checkInvariants());
}

// A DST/RST insert whose level chain dead-letters never reaches the leaf
// level: it is counted in failedInserts(), not in size(), so the record
// count audit holds.  PHT's failed locates land in the same counter.
TEST(Failover, LostBaselineInsertsAreCountedNotStored) {
  const ScopedLevel level(mlight::common::AuditLevel::kBoundaries);
  dst::DstConfig dstCfg;
  lossyDstRun(dstCfg, 300);
  dst::DstConfig rstCfg;
  rstCfg.levelWidth = dst::LevelWidth::kOneBit;
  rstCfg.bandCeiling = 3;
  rstCfg.seed = 45;
  rstCfg.dhtNamespace = "rst/";
  lossyDstRun(rstCfg, 300);

  Network net(32, 9);
  net.setFaultModel(lossyLinks(9));
  pht::PhtConfig cfg;
  cfg.thetaSplit = 8;
  cfg.thetaMerge = 4;
  cfg.seed = 9;
  pht::PhtIndex pht(net, cfg);
  mlight::common::Rng rng(63);
  for (std::size_t i = 0; i < 2000; ++i) pht.insert(uniformRecord(rng, i));
  EXPECT_GT(pht.failedInserts(), 0u);
  EXPECT_EQ(pht.size() + pht.failedInserts(), 2000u);
}

TEST(Failover, AsyncPutResolvesHoldersAtDeliveryTime) {
  Network net(8);
  store::DistributedStore<FakeBucket> store(net, "f/", 1);
  // Issue puts for many labels but do NOT pump the loop: the envelopes
  // are in flight while the ring changes under them.
  for (int i = 0; i < 64; ++i) {
    store.asyncPut(net.peers()[0], label(i), FakeBucket{i});
  }
  std::vector<RingId> preJoinOwners;
  for (int i = 0; i < 64; ++i) preJoinOwners.push_back(store.ownerOf(label(i)));
  net.addPeer("late-joiner");
  net.run();
  // The join moved some key's ownership while the puts were in flight...
  bool anyMoved = false;
  for (int i = 0; i < 64; ++i) {
    if (store.ownerOf(label(i)) != preJoinOwners[i]) anyMoved = true;
  }
  ASSERT_TRUE(anyMoved);
  // ...and every delivered entry recorded the post-join holder, not the
  // stale issue-time capture.
  for (int i = 0; i < 64; ++i) {
    const auto holders = store.holdersOf(label(i));
    ASSERT_EQ(holders.size(), 1u);
    EXPECT_EQ(holders[0], store.ownerOf(label(i)));
  }
}

TEST(Failover, UnderReplicationIsCountedNotSilent) {
  Network net(2);
  store::DistributedStore<FakeBucket> store(net, "f/", 5);
  store.placeLocal(label(1), FakeBucket{1});
  EXPECT_GT(store.underReplicatedPlacements(), 0u);
  // The copies that *could* be placed are still distinct peers.
  const auto holders = store.holdersOf(label(1));
  EXPECT_GE(holders.size(), 1u);
  EXPECT_LE(holders.size(), 2u);
}

}  // namespace
}  // namespace mlight::dht
