// Discrete-event simulation core for the DHT overlay.
//
// The paper's latency metric is *rounds of DHT-lookups* executed by real
// peers exchanging real messages over Bamboo.  Instead of computing that
// analytically per forwarding wave, the Network schedules every RPC as a
// timestamped delivery on this scheduler and the timeline — clock
// advances, per-peer send-queue serialization, parallel link overlap —
// emerges from execution.  Indexes pump the loop to completion via the
// synchronous facade.
//
// Determinism contract: events fire in (time, tie) order, where the tie
// is the sequence number assigned at schedule time.  Two runs that
// schedule the same callbacks at the same times execute them in the same
// order, which is what makes whole-workload replay byte-exact (see
// tests/integration/replay_test.cpp).  No event is ever taken back: an
// event is scheduled only once it is certain to run, so every scheduled
// event fires and advances the clock (the fault layer arms an RPC
// timeout only for an attempt that was lost or ghost-dropped).
//
// Schedule perturbation (determinism certification): the contract above
// also says that *no simulation-visible state may depend on the relative
// order of same-time events* — only the (commutative) union of their
// effects.  MLIGHT_SCHED_SHUFFLE_SEED (or setTieShuffleSeed) replaces
// the tie with a seeded bijection of the sequence number, so ties stay
// distinct: the timeline stays a deterministic pure function of
// (workload, shuffle seed), but same-time events deliver in a different
// — still fixed — order.  State digests (common/digest.h) must be
// bit-identical across shuffle seeds; tests/determinism/ enforces it.
// Seed 0 (the default) disables the shuffle and is byte-identical to a
// build without this mechanism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mlight::dht {

/// Reads the environment variable `name` as a strict decimal uint64,
/// falling back to `fallback` when unset/empty.  Only an exact digit
/// string parses: trailing garbage ("17x"), whitespace, signs, "0x",
/// decimals and values past 2^64-1 throw common::CheckFailure naming the
/// variable — a CI matrix cell that typos its value must go red, not
/// green-under-the-fallback.  Shared by every seed knob
/// (MLIGHT_FAULT_SEED, MLIGHT_SCHED_SHUFFLE_SEED).
std::uint64_t strictDecimalEnv(const char* name, std::uint64_t fallback);

/// Reads `MLIGHT_SCHED_SHUFFLE_SEED` from the environment (strict
/// decimal, see strictDecimalEnv), falling back to `fallback` (0 =
/// shuffle off) when unset/empty — how the determinism CI job perturbs
/// every scheduler in a test binary without touching code.
std::uint64_t schedShuffleSeedFromEnv(std::uint64_t fallback = 0);

/// Single-threaded priority event queue + clock: one (time, tie)
/// min-heap.  The clock (milliseconds) only moves forward: schedule()
/// clamps a past timestamp to now, and the heap pops its minimum.
class SimScheduler {
 public:
  using Fn = std::function<void()>;

  SimScheduler() : shuffleSeed_(schedShuffleSeedFromEnv()) {}

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  double now() const noexcept { return now_; }

  /// Installs the same-time tie-break shuffle seed (0 = off, the
  /// default order: ties fire in schedule order).  Only affects events
  /// scheduled after the call; tests install it on a quiet scheduler.
  void setTieShuffleSeed(std::uint64_t seed) noexcept { shuffleSeed_ = seed; }
  std::uint64_t tieShuffleSeed() const noexcept { return shuffleSeed_; }

  /// Deliveries where another event with the same timestamp was still
  /// pending — ties the shuffle could genuinely reorder (same-time
  /// events in a causal chain never coexist in the heap and don't
  /// count).  A perturbation test asserts this is nonzero for its
  /// workload, otherwise shuffling proved nothing.
  std::uint64_t tieDeliveries() const noexcept { return tieDeliveries_; }

  /// Schedules `fn` to run at simulated time `at` (clamped to `now`).
  /// Its sequence number is the global issue order.  There is no way to
  /// take an event back: schedule only what will run.
  ///
  /// Event nodes live in a reused vector-backed heap, so scheduling is
  /// allocation-free once the heap has grown — *provided the closure
  /// fits std::function's inline buffer* (two pointers on libstdc++).
  /// Every closure Network schedules, delivery and timeout alike, is
  /// {this, slot}: the per-message state lives in a pooled slot.
  void schedule(double at, Fn fn);

  /// Delivers the next event in (time, tie) order, advancing the clock
  /// to its timestamp.  Returns false when the queue is empty.
  bool runOne();

  /// Pumps the queue dry.  Re-entrant: a callback may itself call run()
  /// (the synchronous store facade does) — the inner call drains the
  /// queue and the outer loop simply finds it empty.
  void run() {
    while (runOne()) {
    }
  }

  std::size_t pending() const noexcept { return heap_.size(); }

  /// Total events ever scheduled (timeline fingerprint for replay tests).
  std::uint64_t scheduledCount() const noexcept { return nextSeq_; }

 private:
  /// 48 bytes on libstdc++: the unit every heap sift moves.
  struct Event {
    double at = 0.0;
    /// Tie-break key among same-time events: the sequence number when
    /// the shuffle is off, a seeded bijection of it when on — distinct
    /// either way, so (at, tie) orders events totally.
    std::uint64_t tie = 0;
    Fn fn;
  };
  /// std::push_heap keeps the *greatest* element on top, so "greater"
  /// here means "fires later": min-(time, tie) ends up at the front.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.tie > b.tie;
    }
  };

  double now_ = 0.0;
  std::vector<Event> heap_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t shuffleSeed_ = 0;
  std::uint64_t tieDeliveries_ = 0;
};

}  // namespace mlight::dht
