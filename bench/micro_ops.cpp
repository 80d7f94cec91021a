// Microbenchmarks (google-benchmark) for the hot primitives underneath
// the figure harnesses: the naming function, bit interleaving, Algorithm 1
// planning, SHA-1 key hashing, overlay routing, and the host-side memory
// paths (label copies, serde round-trips, RPC envelope delivery) tracked
// by BENCH_PERF.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/hint_cache.h"
#include "common/label_table.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/sha1.h"
#include "common/zorder.h"
#include "dht/network.h"
#include "dht/rpc.h"
#include "mlight/bucket.h"
#include "mlight/index.h"
#include "mlight/kdspace.h"
#include "mlight/naming.h"
#include "mlight/split.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace {

using namespace mlight;

void BM_NamingFunction(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  std::vector<common::BitString> labels;
  for (int i = 0; i < 256; ++i) {
    common::BitString label = core::rootLabel(dims);
    const std::size_t depth = 1 + rng.below(28);
    for (std::size_t d = 0; d < depth; ++d) label.pushBack(rng.chance(0.5));
    labels.push_back(label);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::naming(labels[i++ % labels.size()], dims));
  }
}
BENCHMARK(BM_NamingFunction)->Arg(2)->Arg(4);

// Cycles through 4,096 pre-drawn points, as inserts do: re-interleaving
// one point would let the branch predictor learn its path.
void BM_Interleave(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  common::Rng rng(2);
  std::vector<common::Point> points(4096, common::Point(dims));
  for (common::Point& p : points) {
    for (std::size_t d = 0; d < dims; ++d) p[d] = rng.uniform();
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        common::interleave(points[i++ % points.size()], 28));
  }
}
BENCHMARK(BM_Interleave)->Arg(2)->Arg(4);

void BM_LabelRegion(benchmark::State& state) {
  common::Rng rng(3);
  common::BitString label = core::rootLabel(2);
  for (int d = 0; d < 24; ++d) label.pushBack(rng.chance(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::labelRegion(label, 2));
  }
}
BENCHMARK(BM_LabelRegion);

void BM_Sha1Key(benchmark::State& state) {
  std::string key = "mlight/001011010111001";
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::sha1(key));
  }
}
BENCHMARK(BM_Sha1Key);

void BM_DataAwarePlan(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  // Planned from a bucket's record and key arrays, as the online
  // data-aware split (dataAwareAdjust) plans.
  const core::LeafBucket bucket(
      core::rootLabel(2), workload::clusteredDataset(records, 2, 3, 0.05, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::planSplit(
        core::SplitStrategy::kDataAware, 70.0, bucket.label,
        common::Rect::unit(2), bucket.records(), bucket.keys(), 2, 28));
  }
  state.SetComplexityN(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_DataAwarePlan)->Arg(128)->Arg(512)->Arg(2048)->Complexity();

void BM_OverlayRouting(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  dht::Network net(peers, 5);
  common::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net.lookup(net.peers()[rng.below(peers)], dht::RingId{rng.next()}));
  }
}
BENCHMARK(BM_OverlayRouting)->Arg(16)->Arg(128)->Arg(1024)->Arg(10240);

// The key -> owner slot search every RPC starts with (responsible()).
void BM_OwnerIndexOf(benchmark::State& state) {
  const auto peers = static_cast<std::size_t>(state.range(0));
  dht::Network net(peers, 5);
  common::Rng rng(7);
  std::vector<dht::RingId> keys(4096);
  for (dht::RingId& key : keys) key = dht::RingId{rng.next()};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.responsible(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_OwnerIndexOf)->Arg(128)->Arg(10240);

// --- Hot-path memory microbenches ------------------------------------
//
// These isolate the allocation behavior of the label and message paths:
// every figure harness funnels through BitString manipulation (naming,
// prefix binary search, branch enumeration) and RPC envelope
// serialization, so ns/op here is the host wall-clock floor of the whole
// simulation.  Bodies use only the public API so the series is
// comparable across representation changes (BENCH_PERF.json).

mlight::common::BitString randomLabel(std::size_t bits, std::uint64_t seed) {
  common::Rng rng(seed);
  common::BitString out;
  for (std::size_t i = 0; i < bits; ++i) out.pushBack(rng.chance(0.5));
  return out;
}

void BM_BitStringCopy(benchmark::State& state) {
  const auto label =
      randomLabel(static_cast<std::size_t>(state.range(0)), 21);
  for (auto _ : state) {
    common::BitString copy = label;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_BitStringCopy)->Arg(31)->Arg(120)->Arg(200);

void BM_BitStringPrefixChain(benchmark::State& state) {
  // prefix() at every length of a D=28 label — the shape of branch
  // enumeration in range forwarding and of split planning.
  common::BitString label = core::rootLabel(2);
  label.append(randomLabel(28, 22));
  for (auto _ : state) {
    for (std::size_t n = 0; n <= label.size(); ++n) {
      benchmark::DoNotOptimize(label.prefix(n));
    }
  }
}
BENCHMARK(BM_BitStringPrefixChain);

void BM_BitStringAppend(benchmark::State& state) {
  // pointPathLabel's shape: root label + D interleaved bits.
  const common::BitString tail = randomLabel(28, 23);
  for (auto _ : state) {
    common::BitString label = core::rootLabel(2);
    label.append(tail);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_BitStringAppend);

void BM_LookupPrefixSearch(benchmark::State& state) {
  // The label arithmetic of one §5 lookup: a ⌈log₂D⌉-probe binary search
  // over candidate prefixes of the point's full path, naming each probe
  // key (store access and routing excluded).
  constexpr std::size_t m = 2;
  constexpr std::size_t D = 28;
  common::Rng rng(24);
  std::vector<common::BitString> fulls;
  for (int i = 0; i < 64; ++i) {
    const common::Point p{rng.uniform(), rng.uniform()};
    fulls.push_back(core::pointPathLabel(p, m, D));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const common::BitString& full = fulls[i++ % fulls.size()];
    std::size_t lo = 0;
    std::size_t hi = D;
    while (lo < hi) {
      const std::size_t t = lo + (hi - lo) / 2;
      const common::BitString key = core::naming(full.prefix(m + 1 + t), m);
      benchmark::DoNotOptimize(key);
      if (key.size() % 2 == 0) {
        hi = t;
      } else {
        lo = t + 1;
      }
    }
  }
}
BENCHMARK(BM_LookupPrefixSearch);

void BM_SerdeBitStringRoundTrip(benchmark::State& state) {
  const auto label =
      randomLabel(static_cast<std::size_t>(state.range(0)), 25);
  for (auto _ : state) {
    common::Writer w;
    w.writeBitString(label);
    common::Reader r(w.bytes());
    benchmark::DoNotOptimize(r.readBitString());
  }
}
BENCHMARK(BM_SerdeBitStringRoundTrip)->Arg(31)->Arg(120);

void BM_RpcEnvelopeRoundTrip(benchmark::State& state) {
  // One envelope's serialize → wire → deserialize cycle, the per-message
  // work both the fault-free and fault paths perform.
  dht::RpcEnvelope env;
  env.id = 7;
  env.kind = dht::RpcKind::kVisit;
  env.from = dht::RingId{0x1234};
  env.to = dht::RingId{0x5678};
  env.round = 3;
  env.payload.assign(48, 0xAB);
  for (auto _ : state) {
    common::Writer w;
    env.serialize(w);
    common::Reader r(w.bytes());
    benchmark::DoNotOptimize(dht::RpcEnvelope::deserialize(r));
  }
}
BENCHMARK(BM_RpcEnvelopeRoundTrip);

void BM_RpcSendDeliver(benchmark::State& state) {
  // Full fault-free message cycle: route, serialize through the send
  // queue, scheduler delivery, handler dispatch.
  dht::Network net(64, 13);
  const auto& peers = net.peers();
  common::Rng rng(14);
  const std::vector<std::uint8_t> payload(48, 0xAB);
  for (auto _ : state) {
    dht::RpcEnvelope env;
    env.kind = dht::RpcKind::kGet;
    env.from = peers[rng.below(peers.size())];
    env.payload = payload;
    net.sendRpc(dht::RingId{rng.next()}, std::move(env),
                [](const dht::RpcDelivery&) {});
    net.run();
  }
}
BENCHMARK(BM_RpcSendDeliver);

void BM_MLightInsert(benchmark::State& state) {
  dht::Network net(128, 7);
  core::MLightConfig cfg;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  core::MLightIndex idx(net, cfg);
  auto data = workload::northeastDataset(200000, 8);
  std::size_t i = 0;
  for (auto _ : state) {
    idx.insert(data[i++ % data.size()]);
  }
}
BENCHMARK(BM_MLightInsert);

// Batched counterpart of BM_MLightInsert: one iteration consumes a
// whole 64-record batch through the kBatchPut path, so time/64 is the
// amortized per-record cost the BENCH_PERF batch: section tracks.
void BM_MLightInsertBatch(benchmark::State& state) {
  dht::Network net(128, 7);
  core::MLightConfig cfg;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  core::MLightIndex idx(net, cfg);
  auto data = workload::northeastDataset(200000, 8);
  const std::size_t kBatch = 64;
  std::size_t i = 0;
  for (auto _ : state) {
    if (i + kBatch > data.size()) i = 0;
    idx.insertBatched(
        std::span<const index::Record>(data.data() + i, kBatch), kBatch);
    i += kBatch;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MLightInsertBatch);

// Threshold bulk load of the full NE dataset (θ = 100) into a fresh index
// on 128 peers: the partition, the one record copy into each leaf and
// the one put per bucket.  Building and destroying the network and the
// index are outside the timed region.
void BM_MLightBulkLoad(benchmark::State& state) {
  const auto data =
      workload::northeastDataset(workload::kNortheastSize, 8);
  core::MLightConfig cfg;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  for (auto _ : state) {
    state.PauseTiming();
    auto net = std::make_unique<dht::Network>(128, 7);
    auto idx = std::make_unique<core::MLightIndex>(*net, cfg);
    state.ResumeTiming();
    idx->bulkLoad(data);
    state.PauseTiming();
    benchmark::DoNotOptimize(idx->bucketCount());
    idx.reset();
    net.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_MLightBulkLoad);

// Range harvest over one fixed seeded layout: 20k NE records on 128
// peers, 64 square queries of area state.range(0) x 1e-4.  Area 1 hits a
// leaf or two, 100 mixes covered and partial leaves, 500 and 2500 are
// dominated by fully covered leaves.  The query and count variants scan
// identical buckets, so their gap is the cost of shipping records.
struct RangeBench {
  explicit RangeBench(const benchmark::State& state)
      : net(128, 9), idx(net, config()) {
    for (const auto& r : workload::northeastDataset(20000, 10)) idx.insert(r);
    queries = workload::uniformRangeQueries(
        64, 2, 1e-4 * static_cast<double>(state.range(0)), 11);
  }

  static core::MLightConfig config() {
    core::MLightConfig cfg;
    cfg.thetaSplit = 100;
    cfg.thetaMerge = 50;
    return cfg;
  }

  dht::Network net;
  core::MLightIndex idx;
  std::vector<common::Rect> queries;
};

void BM_MLightRangeQuery(benchmark::State& state) {
  RangeBench bench(state);
  std::size_t i = 0;
  std::size_t records = 0;
  for (auto _ : state) {
    const auto res = bench.idx.rangeQuery(
        bench.queries[i++ % bench.queries.size()]);
    records += res.records.size();
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_MLightRangeQuery)->Arg(1)->Arg(100)->Arg(500)->Arg(2500);

void BM_MLightRangeCount(benchmark::State& state) {
  RangeBench bench(state);
  std::size_t i = 0;
  std::size_t records = 0;
  for (auto _ : state) {
    const auto res =
        bench.idx.rangeCount(bench.queries[i++ % bench.queries.size()]);
    records += res.count;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_MLightRangeCount)->Arg(1)->Arg(100)->Arg(500)->Arg(2500);

// Owner-side leaf scan (docs/COST_MODEL.md "Owner-side harvest"): 2048
// leaves of state.range(0) = theta records each (far more than the L2
// cache holds, like a real index), visited round-robin with one scope per
// leaf of the kind state.range(1) picks.  Covered (0): the scope holds
// the leaf's cell, which is taken as one run without reading a record.
// Partial (1): the scope clips about half of the cell, filtered on the
// key array.  Disjoint (2): the scope clips a sliver of the cell that no
// record lies in — the whole key array is scanned for nothing.  Items are
// the records the scan decides on.
struct LeafScanBench {
  static constexpr std::size_t kLeaves = 2048;

  explicit LeafScanBench(const benchmark::State& state) {
    const auto theta = static_cast<std::size_t>(state.range(0));
    common::Rng rng(31);
    leaves.reserve(kLeaves);
    for (std::size_t l = 0; l < kLeaves; ++l) {
      std::vector<index::Record> records(theta);
      for (std::size_t i = 0; i < theta; ++i) {
        records[i].key = common::Point{rng.uniform(), rng.uniform()};
        records[i].id = l * theta + i;
        records[i].payload = "addr-" + std::to_string(records[i].id);
      }
      leaves.emplace_back(common::BitString::fromString("000"),
                          std::move(records));
    }
    const common::Rect cell = common::Rect::unit(2);
    switch (state.range(1)) {
      case 0:
        scope = cell;
        break;
      case 1:
        scope = common::Rect(common::Point{0.25, 0.0},
                             common::Point{0.75, 1.0});
        break;
      default:
        scope = common::Rect(common::Point{0.5, 0.5},
                             common::Point{0.5 + 1e-12, 0.5 + 1e-12});
        break;
    }
  }

  std::vector<core::LeafBucket> leaves;
  common::Rect scope;
};

void BM_LeafScan(benchmark::State& state) {
  const LeafScanBench bench(state);
  const common::Rect cell = common::Rect::unit(2);
  std::size_t l = 0;
  std::size_t matched = 0;
  std::size_t scanned = 0;
  for (auto _ : state) {
    const core::LeafBucket& leaf = bench.leaves[l++ % bench.leaves.size()];
    if (bench.scope.containsRect(cell)) {
      matched += leaf.recordCount();
    } else {
      matched += leaf.scanBox(bench.scope.intersection(cell),
                              [](std::size_t first, std::size_t n) {
                                benchmark::DoNotOptimize(first + n);
                              });
    }
    scanned += leaf.recordCount();
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(scanned));
}
BENCHMARK(BM_LeafScan)
    ->ArgsProduct({{25, 100, 400}, {0, 1, 2}})
    ->ArgNames({"theta", "kind"});

void BM_MLightKnnQuery(benchmark::State& state) {
  dht::Network net(128, 9);
  core::MLightConfig cfg;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  core::MLightIndex idx(net, cfg);
  for (const auto& r : workload::northeastDataset(20000, 10)) idx.insert(r);
  common::Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        idx.knnQuery(common::Point{rng.uniform(), rng.uniform()},
                     static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_MLightKnnQuery)->Arg(1)->Arg(10)->Arg(50);

// Point query on a read-hot key with query-load balancing on: every
// query first refreshes the frozen read route of each boosted leaf, so
// this tracks the per-operation cost of that refresh at the hot-leaf cap
// (64 leaves, 16 copies each) on a 128x8-vnode ring.
void BM_HotPointQuery(benchmark::State& state) {
  dht::Network net(128, 13, /*vnodesPerPeer=*/8);
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  cfg.loadBalance.enabled = true;
  cfg.loadBalance.promoteReads = 16;
  cfg.loadBalance.boostCopies = 15;
  cfg.loadBalance.windowMs = 1e9;
  core::MLightIndex idx(net, cfg);
  const auto data = workload::northeastDataset(30000, 14);
  idx.bulkLoad(data);
  // Warm-up: read a stride of keys until the hot-leaf cap is reached.
  const std::size_t cap = cfg.loadBalance.maxHotLeaves;
  for (std::size_t k = 0; idx.store().boostedLeafCount() < cap &&
                          k < data.size();
       k += 97) {
    for (std::uint32_t r = 0; r < cfg.loadBalance.promoteReads; ++r) {
      idx.pointQuery(data[k].key);
    }
  }
  if (idx.store().boostedLeafCount() < cap) {
    state.SkipWithError("warm-up did not reach the hot-leaf cap");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.pointQuery(data[0].key));
  }
}
BENCHMARK(BM_HotPointQuery);

// --- Lookup hint cache ----------------------------------------------------
//
// One peer's LabelHintCache holding n hints of 57-bit leaf labels (a
// D=28, m=2 tree's depth), probed with 120-bit point paths.  The hit
// series finds a covering hint on every probe; the miss series probes
// paths no hint covers.

std::vector<common::BitString> hintLabels(std::size_t n,
                                          std::uint64_t seed) {
  std::vector<common::BitString> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(randomLabel(57, seed + i));
  }
  return out;
}

// The store's and the hint cache's per-probe shape: one wire label
// resolved to its slot in the shared label directory (16k 57-bit labels,
// the hotspot workload's leaf-key length).  Misses probe labels the table
// does not hold.
void BM_LabelTableFind(benchmark::State& state, bool hit) {
  constexpr std::size_t kLabels = 16384;
  common::LabelTable<std::uint32_t> table;
  const auto labels = hintLabels(kLabels, 7000);
  for (const auto& l : labels) table.insert(l);
  const auto probes = hit ? labels : hintLabels(kLabels, 900000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(probes[(i++ * 7919) % kLabels]));
  }
}
BENCHMARK_CAPTURE(BM_LabelTableFind, hit, true);
BENCHMARK_CAPTURE(BM_LabelTableFind, miss, false);

void BM_HintCacheFindCovering(benchmark::State& state, bool hit) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cache::CachePolicy policy;
  policy.enabled = true;
  policy.perDimCapacity = n;
  cache::LabelHintCache hints(1, policy);
  const auto labels = hintLabels(n, 1000);
  for (const auto& l : labels) hints.learn(l, 28);
  std::vector<common::BitString> paths;
  for (std::size_t i = 0; i < n; ++i) {
    common::BitString p = hit ? labels[(i * 7919) % n] : randomLabel(57, ~i);
    p.appendBits(randomLabel(63, 50000 + i));
    paths.push_back(std::move(p));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hints.findCovering(paths[i++ % n]));
  }
}
BENCHMARK_CAPTURE(BM_HintCacheFindCovering, hit, true)->Arg(1024)->Arg(8192);
BENCHMARK_CAPTURE(BM_HintCacheFindCovering, miss, false)
    ->Arg(1024)
    ->Arg(8192);

// A full cache fed labels it does not hold: every learn evicts the LRU
// victim (the labels cycle through twice the capacity).
void BM_HintCacheLearnEvict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cache::CachePolicy policy;
  policy.enabled = true;
  policy.perDimCapacity = n;
  cache::LabelHintCache hints(1, policy);
  const auto labels = hintLabels(2 * n, 3000);
  std::size_t i = 0;
  for (; i < n; ++i) hints.learn(labels[i], 28);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hints.learn(labels[i++ % labels.size()], 28));
  }
}
BENCHMARK(BM_HintCacheLearnEvict)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
