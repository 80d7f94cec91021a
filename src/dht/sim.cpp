#include "dht/sim.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/check.h"

namespace mlight::dht {

std::uint64_t strictDecimalEnv(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  // strtoull alone would accept "17x" (trailing garbage), " 17", "-1"
  // (wraps), and saturate on overflow — all silent wrong-config runs.
  for (const char* p = raw; *p != '\0'; ++p) {
    MLIGHT_CHECK(*p >= '0' && *p <= '9',
                 std::string(name) + " must be a plain decimal integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw, &end, 10);
  MLIGHT_CHECK(end != raw && *end == '\0',
               std::string(name) + " must be a plain decimal integer");
  MLIGHT_CHECK(errno != ERANGE, std::string(name) + " overflows 64 bits");
  return static_cast<std::uint64_t>(value);
}

std::uint64_t schedShuffleSeedFromEnv(std::uint64_t fallback) {
  return strictDecimalEnv("MLIGHT_SCHED_SHUFFLE_SEED", fallback);
}

namespace {
/// splitmix64 finalizer: for a fixed seed a bijection of seq, so shuffled
/// tie keys are distinct whenever sequence numbers are.
std::uint64_t mixTie(std::uint64_t seed, std::uint64_t seq) noexcept {
  std::uint64_t z = seq + seed * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

void SimScheduler::schedule(double at, Fn fn) {
  const std::uint64_t seq = nextSeq_++;
  const std::uint64_t tie =
      shuffleSeed_ == 0 ? seq : mixTie(shuffleSeed_, seq);
  // Skip the initial capacity ramp (1, 2, 4, ...): even a single RPC
  // schedules a handful of events, and the heap never shrinks, so one
  // up-front block makes steady-state scheduling allocation-free.
  if (heap_.capacity() == 0) heap_.reserve(64);
  heap_.push_back(Event{std::max(at, now_), tie, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool SimScheduler::runOne() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  // A reorderable tie: another event with the same timestamp is still
  // pending, so the tie-break genuinely chose between the two.  (An
  // event scheduled *by* an earlier handler at the same timestamp is
  // causally ordered — it never coexisted with its parent in the heap —
  // and does not count: shuffling cannot reorder causality.)
  if (!heap_.empty() && heap_.front().at == ev.at) ++tieDeliveries_;
  now_ = ev.at;
  ev.fn();
  return true;
}

}  // namespace mlight::dht
