// Typed RPC envelope exchanged between peers.
//
// Every remote bucket access an index performs — locate probes, range
// forwarding, replica pushes — travels as one of these envelopes.  The
// envelope crosses the simulated wire through the serde layer, so the
// header bytes metered by CostMeter are the bytes a deployed node would
// actually put on the network, and the receiving handler works from the
// deserialized copy (never from initiator-side state).
//
// `round` is the RPC chain depth: a handler that issues a follow-up RPC
// stamps it `round + 1`.  The maximum round delivered during an
// operation is exactly the paper's "rounds of DHT-lookups" — parallel
// fan-out at the same depth shares a round, sequential dependency
// chains deepen it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "dht/id.h"

namespace mlight::dht {

enum class RpcKind : std::uint8_t {
  kGet = 1,    ///< Read a bucket at the owner.
  kPut = 2,    ///< Store a serialized bucket at the owner.
  kVisit = 3,  ///< Run arbitrary logic at the owner (read-modify-write).
  kResponse = 4,
  /// Direct probe of a cached label hint: the body is the probe key
  /// alone, and the owner answers with the bucket stored under it, like
  /// kGet; the initiator decides from that bucket whether the hint is
  /// live or stale.  Travels and meters exactly like kGet — one
  /// DHT-lookup — but is its own verb so traces and dead letters
  /// distinguish hint traffic from search probes.
  kHintProbe = 5,
  /// Store a batch of records into the bucket at the owner: the body
  /// carries the target key plus the serialized record group (assembled
  /// in a pooled buffer by the client-side batcher).  One envelope
  /// replaces N per-record kVisit round-trips; travels through the same
  /// retry/failover machinery as every other access.
  kBatchPut = 6,
};

struct RpcEnvelope {
  std::uint64_t id = 0;  ///< Assigned by Network::sendRpc (global order).
  RpcKind kind = RpcKind::kGet;
  RingId from{};
  RingId to{};  ///< Owner vnode; filled in at routing time.
  std::uint32_t round = 1;
  std::vector<std::uint8_t> payload;  ///< Kind-specific body (serde bytes).

  /// Exact size of the serialized envelope.
  std::size_t wireSize() const noexcept {
    // id + kind + from + to + round + payload length prefix + payload.
    return 8 + 1 + 8 + 8 + 4 + 4 + payload.size();
  }

  void serialize(common::Writer& w) const;
  static RpcEnvelope deserialize(common::Reader& r);
  /// deserialize into *this, reusing the existing payload capacity (the
  /// pooled-delivery path: one buffer cycles through every message
  /// instead of a fresh vector per envelope).
  void deserializeFrom(common::Reader& r);
};

/// Grace added on top of the RTT-derived timeout floor of every attempt
/// (Network::rpcTimeoutMs); the TCP transport's default backoff floor.
inline constexpr double kTimeoutBaseMs = 50.0;

/// Capped exponential retry backoff shared by the simulated fault layer
/// and the real TCP transport: the timeout for transmission `attempt`
/// (0 = the original send) is `floorMs` doubled per attempt, with the
/// exponent capped at 8.  One formula in one place so the simulator's
/// predicted retry schedule and the wire's measured one cannot drift.
inline double retryBackoffMs(double floorMs, std::size_t attempt) noexcept {
  return floorMs * static_cast<double>(
                       std::uint64_t{1}
                       << (attempt < 8 ? attempt : std::size_t{8}));
}

/// An envelope that exhausted its transmission attempts — recorded by the
/// simulated fault layer (Network) and the real TCP transport alike.
struct DeadLetter {
  std::uint64_t rpcId = 0;
  RpcKind kind = RpcKind::kGet;
  RingId from{};
  RingId lastTarget{};    ///< Owner of the key on the last attempt.
  std::size_t attempts = 0;
  double at = 0.0;        ///< Simulated ms (Network) / wall ms (TCP).
};

/// Fixed-capacity ring of the most recent dead letters.  A flapping peer
/// can dead-letter without bound; diagnostics only need the tail, so the
/// ring keeps the latest `capacity` entries and counts what it evicted
/// (`dropped`) next to the all-time total.
class DeadLetterRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit DeadLetterRing(std::size_t capacity = kDefaultCapacity)
      : cap_(capacity) {}

  void record(DeadLetter dl) {
    ++total_;
    if (cap_ == 0) {
      ++dropped_;
      return;
    }
    if (ring_.size() < cap_) {
      ring_.push_back(std::move(dl));
      return;
    }
    ring_[head_] = std::move(dl);  // overwrite the oldest entry
    head_ = (head_ + 1) % cap_;
    ++dropped_;
  }

  /// All-time dead letters recorded (the correctness-facing counter).
  std::uint64_t total() const noexcept { return total_; }
  /// Entries evicted from the ring to stay within capacity (gauge of how
  /// much diagnostic tail has been lost, not of additional failures).
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Entries currently held (== min(total, capacity)) — the gauge.
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return cap_; }

  /// The retained tail, oldest first.
  std::vector<DeadLetter> snapshot() const {
    std::vector<DeadLetter> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  void clear() {
    ring_.clear();
    head_ = 0;
    total_ = 0;
    dropped_ = 0;
  }

 private:
  std::size_t cap_;
  std::size_t head_ = 0;  ///< Oldest entry once the ring is full.
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<DeadLetter> ring_;
};

/// Free list of byte buffers for the per-message hot path.  Every RPC
/// needs two transient vectors (the serialized wire image and the
/// deserialized payload); recycling them through this pool makes the
/// steady-state message cycle allocation-free.  Purely a host-side
/// optimization: buffers are cleared on acquire and carry no simulated
/// state, so pooling cannot perturb the timeline (pinned by the replay
/// pooling on/off test).
class BufferPool {
 public:
  /// An empty buffer, recycled when available (capacity retained).
  std::vector<std::uint8_t> acquire() {
    if (free_.empty()) return {};
    std::vector<std::uint8_t> b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  /// Returns a buffer to the pool (dropped when disabled or full).
  void release(std::vector<std::uint8_t>&& b) noexcept {
    if (enabled_ && free_.size() < kMaxPooled) free_.push_back(std::move(b));
  }

  /// Disabling clears the pool; acquire() then always allocates fresh —
  /// the A/B switch for the pooling-transparency replay test.
  void setEnabled(bool on) {
    enabled_ = on;
    if (!on) free_.clear();
  }
  bool enabled() const noexcept { return enabled_; }

  /// Buffers currently parked in the free list.
  std::size_t pooledCount() const noexcept { return free_.size(); }

 private:
  /// Cap on parked buffers: bounds worst-case retained memory under a
  /// burst (fan-outs park one wire buffer per in-flight message).
  static constexpr std::size_t kMaxPooled = 256;

  bool enabled_ = true;
  std::vector<std::vector<std::uint8_t>> free_;
};

}  // namespace mlight::dht
