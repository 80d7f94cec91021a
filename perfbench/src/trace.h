// The traced run: per-op capture through public hooks, then replays into
// each lower layer.
//
// While the traced pass runs, each index call is one op span (timed by
// the measurement loop).  Its inputs are captured through public hooks
// only — Network::setRpcTrace (kind, envelope, hops and delivery time of
// every delivery), MLightIndex::setTracer (probe keys, NULL probes) and
// network/index counters read between calls.  After the pass the inputs
// are replayed into each layer's public function and every replay block
// becomes a child span of its op:
//
//   dht.route     Network::lookup(from, to) per delivery, on a twin ring
//   dht.sched     SimScheduler::schedule + run at the op's delivery times
//   dht.serde     RpcEnvelope::serialize + deserialize per delivery
//   common.*      interleave / core::naming / dht::keyId on the op's keys
//   cache.find    LabelHintCache::findCovering (cache-on workloads)
//   store.serde   LeafBucket deserialize + serialize per bucket image put
//
// mlight.self is the op span minus its children.  Nothing is put inside
// src/: the traced index's digest must equal the untraced one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/cost.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

class TraceCapture {
 public:
  /// Installs the hooks on `w`'s live network and index.
  explicit TraceCapture(Workload& w);
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

  /// Call just before the op's timed call / just after its inspection.
  void beginOp();
  void endOp(OpKind kind, double hostNs, const mlight::dht::CostMeter& cost,
             const OpOutcome& outcome);

  /// Removes the hooks (the pass is over); counters are read here.
  void detach();

  /// Runs the replays and adds every per-layer metric to `report`.
  /// `untracedOpsPerS` is the untraced pass's rate over the same ops.
  void addPerLayerMetrics(Report& report, double untracedOpsPerS);

 private:
  struct Delivery {
    mlight::dht::RpcEnvelope env;
    std::size_t hops = 0;
    double deliveredAt = 0.0;
  };
  struct Span {
    OpKind kind{};
    double hostNs = 0.0;
    mlight::dht::CostMeter cost;
    OpOutcome outcome;
    std::size_t deliveryBegin = 0, deliveryEnd = 0;
    std::size_t probeBegin = 0, probeEnd = 0;
    std::size_t pointBegin = 0, pointEnd = 0;
    std::size_t ringKeyMisses = 0;
  };
  struct Counters {
    std::uint64_t ties = 0;
    std::uint64_t promotions = 0, demotions = 0;
    std::size_t failoverReads = 0, failedReads = 0;
    std::uint64_t splitStay = 0, splitMoves = 0;
    std::size_t walFrames = 0, walBytes = 0;
  };
  Counters readCounters() const;

  Workload& w_;
  bool attached_ = false;
  Counters start_, end_;
  std::size_t ringKeysBefore_ = 0;
  std::vector<Delivery> deliveries_;
  std::vector<mlight::core::MLightIndex::TraceEvent> probes_;
  std::vector<mlight::common::Point> points_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
