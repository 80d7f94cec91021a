#include "trace.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <string>

#include "cache/hint_cache.h"
#include "common/serde.h"
#include "common/zorder.h"
#include "dht/id.h"
#include "dht/rpc.h"
#include "dht/sim.h"
#include "mlight/bucket.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using mlight::common::BitString;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median cost of an empty timed block, subtracted from every replay
/// block so that one-call blocks are not dominated by the clock.
double clockOverheadNs() {
  std::vector<double> v(4001);
  for (double& x : v) {
    const auto t0 = Clock::now();
    x = nsSince(t0);
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

enum Layer {
  kRoute,
  kSched,
  kSerde,
  kInterleave,
  kNaming,
  kSha1,
  kCacheFind,
  kBucketSerde,
  kLayerCount
};

struct LayerTotals {
  double ns = 0.0;
  std::uint64_t calls = 0;
  double perCall() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

TraceCapture::TraceCapture(Workload& w) : w_(w) {
  start_ = readCounters();
  w_.net().setRpcTrace([this](const mlight::dht::RpcDelivery& d) {
    deliveries_.push_back(Delivery{d.env, d.route.hops, d.deliveredAt});
  });
  w_.index().setTracer(&probes_);
  attached_ = true;
}

TraceCapture::~TraceCapture() { detach(); }

void TraceCapture::detach() {
  if (!attached_) return;
  w_.net().setRpcTrace(nullptr);
  w_.index().setTracer(nullptr);
  end_ = readCounters();
  attached_ = false;
}

TraceCapture::Counters TraceCapture::readCounters() const {
  auto& index = w_.index();
  Counters c;
  c.ties = w_.net().schedulerTieDeliveries();
  c.promotions = index.store().hotPromotions();
  c.demotions = index.store().hotDemotions();
  c.failoverReads = index.store().failoverReads();
  c.failedReads = index.store().failedReads();
  c.splitStay = index.maintenanceBreakdown().splitStayLocal;
  c.splitMoves = index.maintenanceBreakdown().splitBucketMoves;
  if (index.walSet() != nullptr) {
    c.walFrames = index.walSet()->totalFrames();
    c.walBytes = index.walSet()->totalBytes();
  }
  return c;
}

void TraceCapture::beginOp() {
  ringKeysBefore_ = w_.index().store().ringKeyCacheSize();
  Span s;
  s.deliveryBegin = deliveries_.size();
  s.probeBegin = probes_.size();
  s.pointBegin = points_.size();
  spans_.push_back(s);
}

void TraceCapture::endOp(OpKind kind, double hostNs,
                         const mlight::dht::CostMeter& cost,
                         const OpOutcome& outcome) {
  Span& s = spans_.back();
  s.kind = kind;
  s.hostNs = hostNs;
  s.cost = cost;
  s.outcome = outcome;
  s.deliveryEnd = deliveries_.size();
  s.probeEnd = probes_.size();
  w_.opPoints(points_);
  s.pointEnd = points_.size();
  const std::size_t ringKeysAfter = w_.index().store().ringKeyCacheSize();
  s.ringKeyMisses =
      ringKeysAfter > ringKeysBefore_ ? ringKeysAfter - ringKeysBefore_ : 0;
}

void TraceCapture::addPerLayerMetrics(Report& report,
                                      double untracedOpsPerS) {
  detach();
  auto& index = w_.index();
  const auto& cfg = index.config();
  const std::size_t dims = cfg.dims;
  const Workload::NetShape shape = w_.netShape();
  // The twin ring: same arguments, hence the same ring, fingers and
  // link latencies; the traced network's meters stay untouched.
  mlight::dht::Network twin(shape.peers, shape.seed, shape.vnodes);
  mlight::dht::SimScheduler sched;
  std::optional<mlight::cache::LabelHintCache> twinCache;
  if (cfg.cache.enabled) {
    twinCache.emplace(dims, cfg.cache);
    index.store().forEach([&](const BitString&,
                              const mlight::core::LeafBucket& b,
                              mlight::dht::RingId) {
      twinCache->learn(b.label, static_cast<std::uint32_t>(
                                    mlight::core::edgeDepth(b.label, dims)));
    });
  }
  const double overhead = clockOverheadNs();
  std::array<LayerTotals, kLayerCount> layers{};
  std::uint64_t sink = 0;
  std::uint64_t fired = 0;

  // Times `body` (which makes `calls` calls into one layer) as one child
  // span of an op.
  auto timed = [&](Layer layer, std::size_t calls, auto&& body) -> double {
    if (calls == 0) return 0.0;
    const auto t0 = Clock::now();
    body();
    const double ns = std::max(0.0, nsSince(t0) - overhead);
    layers[layer].ns += ns;
    layers[layer].calls += calls;
    return ns;
  };

  // Replay inputs derived from the capture, prepared before any timing:
  // probe key strings, the bucket images of kPut deliveries, and the
  // full path labels the cache is consulted with.
  const std::size_t ops = spans_.size();
  std::vector<std::string> probeKeys;
  probeKeys.reserve(probes_.size());
  for (const auto& ev : probes_) {
    std::string key = cfg.dhtNamespace;
    for (std::size_t b = 0; b < ev.key.size(); ++b) {
      key.push_back(ev.key.bit(b) ? '1' : '0');
    }
    probeKeys.push_back(std::move(key));
  }
  std::vector<std::vector<std::uint8_t>> putImages;
  std::vector<std::size_t> putBegin{0};
  std::vector<BitString> paths;
  std::vector<std::size_t> pathBegin{0};
  for (const Span& s : spans_) {
    for (std::size_t d = s.deliveryBegin; d < s.deliveryEnd; ++d) {
      const auto& env = deliveries_[d].env;
      if (env.kind != mlight::dht::RpcKind::kPut) continue;
      // Replica-update puts carry only the label; placements carry the
      // serialized bucket after it.
      mlight::common::Reader r(env.payload);
      r.readBitString();
      if (r.atEnd()) continue;
      putImages.emplace_back();
      r.readBytesInto(putImages.back());
    }
    putBegin.push_back(putImages.size());
    if (twinCache && (s.kind == OpKind::kPointQuery ||
                      s.kind == OpKind::kBatchInsert)) {
      const std::size_t n =
          std::min(s.outcome.locates, s.pointEnd - s.pointBegin);
      for (std::size_t p = 0; p < n; ++p) {
        paths.push_back(mlight::core::pointPathLabel(
            points_[s.pointBegin + p], dims, cfg.maxEdgeDepth));
      }
    }
    pathBegin.push_back(paths.size());
  }

  // One sweep per layer over all ops, each op's calls timed as one
  // block: the layer's code stays warm across the sweep, as it does in
  // a long run.
  std::vector<double> childNs(ops, 0.0);
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    childNs[i] += timed(kRoute, s.deliveryEnd - s.deliveryBegin, [&] {
      for (std::size_t d = s.deliveryBegin; d < s.deliveryEnd; ++d) {
        const auto& env = deliveries_[d].env;
        sink += twin.lookup(env.from, env.to).hops;
      }
    });
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    childNs[i] += timed(kSched, s.deliveryEnd - s.deliveryBegin, [&] {
      for (std::size_t d = s.deliveryBegin; d < s.deliveryEnd; ++d) {
        sched.schedule(deliveries_[d].deliveredAt, [&fired] { ++fired; });
      }
      sched.run();
    });
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    childNs[i] += timed(kSerde, s.deliveryEnd - s.deliveryBegin, [&] {
      for (std::size_t d = s.deliveryBegin; d < s.deliveryEnd; ++d) {
        mlight::common::Writer wr;
        deliveries_[d].env.serialize(wr);
        mlight::common::Reader rd(wr.bytes());
        sink += mlight::dht::RpcEnvelope::deserialize(rd).payload.size();
      }
    });
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    childNs[i] += timed(kInterleave, s.pointEnd - s.pointBegin, [&] {
      for (std::size_t p = s.pointBegin; p < s.pointEnd; ++p) {
        sink += mlight::common::interleave(points_[p], cfg.maxEdgeDepth).size();
      }
    });
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    std::size_t hits = 0;
    for (std::size_t p = s.probeBegin; p < s.probeEnd; ++p) hits += probes_[p].hit;
    childNs[i] += timed(kNaming, hits, [&] {
      for (std::size_t p = s.probeBegin; p < s.probeEnd; ++p) {
        if (probes_[p].hit) {
          sink += mlight::core::naming(probes_[p].foundLeaf, dims).size();
        }
      }
    });
  }
  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    const std::size_t n = s.probeEnd - s.probeBegin;
    const double ns = timed(kSha1, n, [&] {
      for (std::size_t p = s.probeBegin; p < s.probeEnd; ++p) {
        sink += mlight::dht::keyId(probeKeys[p]).value;
      }
    });
    // The store memoizes ring keys: only first-seen labels hash in the
    // live run, so only that share of the block is charged to the op.
    // (A memo at its size cap would hash without growing; none of the
    // workloads reaches the cap.)
    if (n > 0) {
      childNs[i] += ns * std::min(1.0, static_cast<double>(s.ringKeyMisses) /
                                           static_cast<double>(n));
    }
  }
  if (twinCache) {
    for (std::size_t i = 0; i < ops; ++i) {
      const Span& s = spans_[i];
      childNs[i] += timed(kCacheFind, pathBegin[i + 1] - pathBegin[i], [&] {
        for (std::size_t p = pathBegin[i]; p < pathBegin[i + 1]; ++p) {
          const auto* hint = twinCache->findCovering(paths[p]);
          sink += hint == nullptr ? 0 : hint->depth;
        }
      });
      for (std::size_t p = s.probeBegin; p < s.probeEnd; ++p) {
        const auto& ev = probes_[p];
        if (!ev.hit) continue;
        twinCache->learn(ev.foundLeaf,
                         static_cast<std::uint32_t>(
                             mlight::core::edgeDepth(ev.foundLeaf, dims)));
      }
    }
  }
  for (std::size_t i = 0; i < ops; ++i) {
    childNs[i] += timed(kBucketSerde, putBegin[i + 1] - putBegin[i], [&] {
      for (std::size_t p = putBegin[i]; p < putBegin[i + 1]; ++p) {
        mlight::common::Reader rd(putImages[p]);
        const auto bucket = mlight::core::LeafBucket::deserialize(rd);
        mlight::common::Writer wr;
        bucket.serialize(wr);
        sink += wr.bytes().size();
      }
    });
  }

  std::vector<double> selfUs;
  selfUs.reserve(ops);
  double spanNs = 0.0;
  double excessNs = 0.0;
  mlight::dht::CostMeter cost;
  std::uint64_t wireBytes = 0;
  std::array<std::uint64_t, 8> kinds{};
  std::size_t maxFanout = 0;
  std::size_t locates = 0, locateProbes = 0, nullProbes = 0;
  std::size_t rangeOps = 0, rangeRounds = 0, rangeProbes = 0, rangeHits = 0;
  std::size_t pointReads = 0, pointReadHits = 0, recordsWritten = 0;
  std::vector<std::size_t> perRound;

  for (std::size_t i = 0; i < ops; ++i) {
    const Span& s = spans_[i];
    const auto dBegin = deliveries_.begin() + static_cast<std::ptrdiff_t>(s.deliveryBegin);
    const auto dEnd = deliveries_.begin() + static_cast<std::ptrdiff_t>(s.deliveryEnd);
    const double children = childNs[i];
    std::size_t hits = 0;
    for (std::size_t p = s.probeBegin; p < s.probeEnd; ++p) hits += probes_[p].hit;
    double self = s.hostNs - children;
    if (self < 0.0) {
      excessNs += -self;
      self = 0.0;
    }
    selfUs.push_back(self / 1000.0);
    spanNs += s.hostNs;
    cost += s.cost;

    // Counts over the op's deliveries and probes.
    perRound.clear();
    for (auto d = dBegin; d != dEnd; ++d) {
      wireBytes += d->env.wireSize();
      const auto k = static_cast<std::size_t>(d->env.kind);
      if (k < kinds.size()) ++kinds[k];
      if (perRound.size() <= d->env.round) perRound.resize(d->env.round + 1, 0);
      maxFanout = std::max(maxFanout, ++perRound[d->env.round]);
    }
    const std::size_t np = s.probeEnd - s.probeBegin;
    nullProbes += np - hits;
    if (s.kind == OpKind::kRangeQuery) {
      ++rangeOps;
      rangeRounds += s.outcome.rounds;
      rangeProbes += np;
      rangeHits += hits;
    } else {
      locates += s.outcome.locates;
      locateProbes += np;
    }
    if (s.kind == OpKind::kPointQuery) {
      ++pointReads;
      pointReadHits += s.cost.cacheHits;
    }
    recordsWritten += s.outcome.records;
  }

  const auto nd = static_cast<double>(deliveries_.size());
  const auto written = static_cast<double>(recordsWritten);
  const auto probes = static_cast<double>(probes_.size());
  const auto nOps = static_cast<double>(ops);
  const double tracedOpsPerS = spanNs == 0.0 ? 0.0 : nOps / (spanNs * 1e-9);
  using mlight::dht::RpcKind;
  auto kindPerOp = [&](RpcKind k) {
    return ratio(static_cast<double>(kinds[static_cast<std::size_t>(k)]), nOps);
  };

  report.add("dht.route_ns", layers[kRoute].perCall(), "ns", layers[kRoute].calls);
  report.add("dht.hops_per_lookup",
             ratio(static_cast<double>(cost.hops), static_cast<double>(cost.lookups)),
             "count");
  report.add("dht.route_share", ratio(layers[kRoute].ns, spanNs), "ratio");
  report.add("dht.sched_event_ns", layers[kSched].perCall(), "ns", layers[kSched].calls);
  report.add("dht.deliveries_per_op", ratio(nd, nOps), "count");
  report.add("dht.max_round_fanout", static_cast<double>(maxFanout), "count");
  report.add("dht.tie_deliveries", static_cast<double>(end_.ties - start_.ties), "count");
  report.add("dht.rpc_serde_ns", layers[kSerde].perCall(), "ns", layers[kSerde].calls);
  report.add("dht.messages_per_op", ratio(static_cast<double>(cost.messages), nOps), "count");
  report.add("dht.bytes_per_message", ratio(static_cast<double>(wireBytes), nd), "B");
  report.add("dht.kind.get", kindPerOp(RpcKind::kGet), "count/op");
  report.add("dht.kind.put", kindPerOp(RpcKind::kPut), "count/op");
  report.add("dht.kind.visit", kindPerOp(RpcKind::kVisit), "count/op");
  report.add("dht.kind.hint_probe", kindPerOp(RpcKind::kHintProbe), "count/op");
  report.add("dht.kind.batch_put", kindPerOp(RpcKind::kBatchPut), "count/op");

  report.addPercentile("mlight.self_us_p50", percentile(selfUs, 50), "us");
  report.addPercentile("mlight.self_us_p99", percentile(selfUs, 99), "us");
  report.add("mlight.probes_per_locate",
             ratio(static_cast<double>(locateProbes), static_cast<double>(locates)),
             "count");
  report.add("mlight.null_probe_ratio", ratio(static_cast<double>(nullProbes), probes),
             "ratio");
  const auto splits = static_cast<double>(end_.splitMoves - start_.splitMoves);
  const auto stays = static_cast<double>(end_.splitStay - start_.splitStay);
  report.add("mlight.splits_per_kwrite", ratio(1000.0 * splits, written), "count");
  report.add("mlight.split_stay_local_ratio", ratio(stays, stays + splits), "ratio");
  report.add("mlight.range_rounds",
             ratio(static_cast<double>(rangeRounds), static_cast<double>(rangeOps)),
             "count");
  report.add("mlight.range_useful_probe_ratio",
             ratio(static_cast<double>(rangeHits), static_cast<double>(rangeProbes)),
             "ratio");

  report.add("common.interleave_ns", layers[kInterleave].perCall(), "ns",
             layers[kInterleave].calls);
  report.add("common.naming_ns", layers[kNaming].perCall(), "ns", layers[kNaming].calls);
  report.add("common.sha1_ns", layers[kSha1].perCall(), "ns", layers[kSha1].calls);

  const auto hits = static_cast<double>(cost.cacheHits);
  report.add("cache.hit_ratio",
             ratio(static_cast<double>(pointReadHits), static_cast<double>(pointReads)),
             "ratio");
  report.add("cache.stale_ratio",
             ratio(static_cast<double>(cost.staleHints),
                   hits + static_cast<double>(cost.staleHints)),
             "ratio");
  report.add("cache.evictions", static_cast<double>(cost.hintEvictions), "count");
  report.add("cache.occupancy", static_cast<double>(index.hintCaches().totalHints()),
             "count");
  if (twinCache) {
    report.add("cache.find_ns", layers[kCacheFind].perCall(), "ns",
               layers[kCacheFind].calls);
  } else {
    report.addAbsent("cache.find_ns", "ns", "cache off");
  }

  const auto& store = index.store();
  report.add("store.bytes_per_op", ratio(static_cast<double>(cost.bytesMoved), nOps), "B");
  report.add("store.records_moved_per_op",
             ratio(static_cast<double>(cost.recordsMoved), nOps), "count");
  report.add("store.hot_promotions",
             static_cast<double>(end_.promotions - start_.promotions), "count");
  report.add("store.hot_demotions",
             static_cast<double>(end_.demotions - start_.demotions), "count");
  report.add("store.boosted_leaves", static_cast<double>(store.boostedLeafCount()),
             "count");
  report.add("store.failover_reads",
             static_cast<double>(end_.failoverReads - start_.failoverReads), "count");
  report.add("store.failed_reads",
             static_cast<double>(end_.failedReads - start_.failedReads), "count");
  report.add("store.ringkey_cache_size", static_cast<double>(store.ringKeyCacheSize()),
             "count");
  report.add("store.bucket_count", static_cast<double>(store.bucketCount()), "count");
  report.add("store.bucket_serde_ns", layers[kBucketSerde].perCall(), "ns",
             layers[kBucketSerde].calls);

  report.add("wal.frames_per_write",
             ratio(static_cast<double>(end_.walFrames - start_.walFrames), written),
             "count");
  report.add("wal.bytes_per_write",
             ratio(static_cast<double>(end_.walBytes - start_.walBytes), written), "B");

  report.add("trace.overhead_ratio", ratio(tracedOpsPerS, untracedOpsPerS), "ratio");
  report.add("trace.unattributed_share", ratio(excessNs, spanNs), "ratio");
  std::printf("trace replay: %zu ops, %zu deliveries, %zu probes, %llu events "
              "fired, clock overhead %.1f ns, checksum %llx\n",
              spans_.size(), deliveries_.size(), probes_.size(),
              static_cast<unsigned long long>(fired), overhead,
              static_cast<unsigned long long>(sink));
}

}  // namespace perfbench
