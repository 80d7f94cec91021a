// The benchmark's three workloads.
//
// Each is single-process, single-threaded and closed-loop: one client
// issues index call i+1 only after call i returned.  Inputs come from the
// workload's seed alone; the index sees only the generated records and
// queries.  The measurement loop (main.cpp) drives a workload through
//
//   setup()                      build everything, timed as set-up
//   prepare(i)                   stage op i's inputs           (untimed)
//   exec(i)                      exactly one index call        (timed)
//   inspect(i)                   check the answer, read stats  (untimed)
//   finalCheck()                 deferred answer checks + invariants
//
// for i in [0, checkedOps()), and may read the live network and index
// between calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/geometry.h"
#include "dht/network.h"
#include "mlight/index.h"

namespace perfbench {

enum class OpKind : std::uint8_t {
  kInsert,       ///< MLightIndex::insert
  kBatchInsert,  ///< MLightIndex::insertBatched
  kRangeQuery,   ///< MLightIndex::rangeQuery
  kPointQuery,   ///< MLightIndex::pointQuery
};

inline bool isRead(OpKind k) noexcept {
  return k == OpKind::kRangeQuery || k == OpKind::kPointQuery;
}

struct OpOutcome {
  bool ok = true;           ///< answer correct and complete / write acked
  std::size_t records = 0;  ///< records written (writes only)
  double simMs = 0.0;       ///< simulated latency of the call
  std::size_t locates = 0;  ///< point locates issued (batched: groups)
  std::size_t rounds = 0;   ///< QueryStats::rounds (range queries)
};

/// Seed of one independent input stream derived from the benchmark seed.
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t tag) noexcept;

class Workload {
 public:
  /// Arguments the ring is built with (a twin built from them is
  /// bit-identical).
  struct NetShape {
    std::size_t peers = 0;
    std::uint64_t seed = 0;
    std::size_t vnodes = 1;
  };

  explicit Workload(std::uint64_t seed) : seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual const char* name() const = 0;
  virtual NetShape netShape() const = 0;
  virtual mlight::core::MLightConfig config() const = 0;
  /// Ops per epoch; each is checked.
  virtual std::size_t checkedOps() const = 0;

  /// Ring construction, dataset generation, bulk load and warm-up.
  virtual void setup() = 0;
  virtual void prepare(std::size_t i) = 0;
  virtual OpKind exec(std::size_t i) = 0;
  virtual OpOutcome inspect(std::size_t i) = 0;
  /// Points the last prepared op touches: keys written or read, range
  /// corners.  Feeds the traced run's key-interleaving replay.
  virtual void opPoints(std::vector<mlight::common::Point>& out) const = 0;
  /// Deferred checks after a pass; appends one line per problem and
  /// returns the number of failed ops found.
  virtual std::size_t finalCheck(std::vector<std::string>& problems) = 0;

  mlight::dht::Network& net() { return *net_; }
  mlight::core::MLightIndex& index() { return *index_; }

 protected:
  /// Drops the ring, the index and all inputs.
  void reset();
  /// Builds the ring and an empty index from netShape()/config().
  void build();
  /// failedInserts() == 0 and checkInvariants() passes.
  std::size_t checkIndex(std::vector<std::string>& problems);
  virtual void dropInputs() = 0;

  std::uint64_t seed_;
  std::unique_ptr<mlight::dht::Network> net_;
  std::unique_ptr<mlight::core::MLightIndex> index_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                       std::uint64_t seed);

}  // namespace perfbench
