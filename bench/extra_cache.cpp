// Beyond the paper: the adaptive lookup cache (src/cache).
//
// Per-peer label-hint caches remember the last leaf observed for a cell
// so the next point operation issues one direct probe instead of the §5
// binary search; stale hints are repaired in place at O(log Δdepth)
// extra probes.  This bench quantifies the subsystem three ways:
//  * hit rate and metered DHT-lookups per query as a function of query
//    skew (cold caches, organic warm-up through the workload itself);
//  * steady state: with every per-peer cache warm, uniform lookups over
//    D >= 1024 leaves average ~1 DHT-lookup vs the uncached ~log2(D)
//    (the same table row for the PHT baseline with the same cache);
//  * churn: splits and merges invalidate hints, which are detected as
//    staleHints and repaired without ever changing a query result.
//
// ##CACHE <key> <value> lines are collected by scripts/run_benches.sh
// into the "cache" section of BENCH_PERF.json.
#include <cinttypes>
#include <cmath>

#include "bench_util.h"
#include "common/rng.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "mlight/naming.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"

namespace {

using namespace mlight;

struct QueryTally {
  std::uint64_t lookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t staleHints = 0;
  std::size_t queries = 0;
  std::size_t ok = 0;

  void add(const index::QueryStats& stats, bool answerOk) {
    lookups += stats.cost.lookups;
    cacheHits += stats.cost.cacheHits;
    staleHints += stats.cost.staleHints;
    ++queries;
    ok += answerOk;
  }
  double avgLookups() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(lookups) /
                              static_cast<double>(queries);
  }
  double hitRate() const {
    return queries == 0 ? 0.0
                        : 100.0 * static_cast<double>(cacheHits) /
                              static_cast<double>(queries);
  }
};

/// One point query against `idx`, correctness-checked: the result must
/// contain a record with exactly the queried key (every query key in
/// this bench is a live record's key).
template <typename Index>
void queryOne(Index& idx, const common::Point& key, QueryTally& tally) {
  const auto out = idx.pointQuery(key);
  bool ok = false;
  for (const auto& r : out.records) ok = ok || r.key == key;
  tally.add(out.stats, ok);
}

void printRow(const char* name, const QueryTally& t) {
  std::printf("%-26s %14.2f %10.1f%% %12" PRIu64 " %10zu/%zu\n", name,
              t.avgLookups(), t.hitRate(), t.staleHints, t.ok, t.queries);
}

void tableHeader() {
  std::printf("%-26s %14s %11s %12s %12s\n", "workload", "lookups/query",
              "hit rate", "stale hints", "queries ok");
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::Args::parse(argc, argv);
  const bench::WallClock wall(bench::benchName(argv[0]));
  if (args.records == 123593) args.records = 30000;

  bench::banner("Extension — adaptive lookup cache",
                "per-peer label hints: hit rate vs skew, steady-state "
                "lookups vs log2(D), stale-hint repair under churn");

  const auto data = workload::northeastDataset(args.records, 31);
  const std::size_t queryCount = args.quick ? 800 : 4000;

  // Part 1: organic warm-up — cold caches, point queries with a varying
  // fraction drawn from an 8-record hotspot.  The cache pays off exactly
  // where repetition lives: per-(peer, leaf) reuse.
  std::printf("\nSkew sweep (cold start, %zu queries, %zu-record hotspot, "
              "theta=16):\n",
              queryCount, std::size_t{8});
  tableHeader();
  for (const int hotPercent : {0, 50, 90}) {
    for (const bool cacheOn : {false, true}) {
      dht::Network net(args.peers, 1);
      core::MLightConfig cfg;
      cfg.thetaSplit = 16;
      cfg.thetaMerge = 8;
      cfg.cache.enabled = cacheOn;  // explicit: ignore MLIGHT_CACHE here
      core::MLightIndex index(net, cfg);
      index.bulkLoad(data);
      common::Rng rng(7);
      QueryTally tally;
      for (std::size_t q = 0; q < queryCount; ++q) {
        const bool hot = rng.below(100) < static_cast<std::uint64_t>(
                                              hotPercent);
        const std::size_t j =
            hot ? rng.below(8) : rng.below(data.size());
        queryOne(index, data[j].key, tally);
      }
      char name[64];
      std::snprintf(name, sizeof name, "skew %d%% cache=%s", hotPercent,
                    cacheOn ? "on" : "off");
      printRow(name, tally);
      if (cacheOn) {
        char key[64];
        std::snprintf(key, sizeof key, "skew%d_hit_rate", hotPercent);
        std::printf("##CACHE %s %.3f\n", key, tally.hitRate());
      }
    }
  }

  // Part 2: steady state.  Every peer's cache is pre-warmed with the
  // full leaf set — the state any long-running per-peer workload
  // converges to — then uniform lookups are metered.  theta=16 keeps
  // D >= 1024 leaves at full scale, so the uncached reference pays the
  // §5 binary search while a warm cache resolves in one direct probe.
  std::printf("\nSteady state, uniform keys (%zu queries):\n", queryCount);
  tableHeader();
  double coldAvg = 0.0;
  double steadyAvg = 0.0;
  double steadyHit = 0.0;
  std::size_t leafCountMl = 0;
  for (const bool cacheOn : {false, true}) {
    dht::Network net(args.peers, 1);
    core::MLightConfig cfg;
    cfg.thetaSplit = 16;
    cfg.thetaMerge = 8;
    cfg.cache.enabled = cacheOn;
    cfg.cache.perDimCapacity = 4096;  // hold the whole leaf set
    core::MLightIndex index(net, cfg);
    index.bulkLoad(data);
    leafCountMl = index.bucketCount();
    if (cacheOn) {
      std::vector<common::BitString> leaves;
      index.store().forEach(
          [&](const common::BitString&, const core::LeafBucket& b,
              dht::RingId) { leaves.push_back(b.label); });
      for (const auto peer : net.peers()) {
        auto& cache = index.hintCaches().forPeer(peer.value);
        for (const auto& leaf : leaves) {
          cache.learn(leaf, static_cast<std::uint32_t>(
                                core::edgeDepth(leaf, cfg.dims)));
        }
      }
    }
    common::Rng rng(11);
    QueryTally tally;
    for (std::size_t q = 0; q < queryCount; ++q) {
      queryOne(index, data[rng.below(data.size())].key, tally);
    }
    printRow(cacheOn ? "m-LIGHT warm cache" : "m-LIGHT no cache", tally);
    (cacheOn ? steadyAvg : coldAvg) = tally.avgLookups();
    if (cacheOn) steadyHit = tally.hitRate();
  }
  {
    // The PHT baseline gets the same cache (src/pht): a warm hint skips
    // the prefix binary search the same way.
    dht::Network net(args.peers, 1);
    pht::PhtConfig cfg;
    cfg.cache.enabled = true;
    cfg.cache.perDimCapacity = 4096;
    pht::PhtIndex index(net, cfg);
    for (const auto& r : data) index.insert(r);
    index.store().forEach([&](const common::BitString&,
                              const mlight::index::CellNode& n, dht::RingId) {
      if (!n.complete) return;
      for (const auto peer : net.peers()) {
        index.hintCaches().forPeer(peer.value).learn(
            n.label, static_cast<std::uint32_t>(n.label.size()));
      }
    });
    common::Rng rng(11);
    QueryTally tally;
    for (std::size_t q = 0; q < queryCount; ++q) {
      queryOne(index, data[rng.below(data.size())].key, tally);
    }
    printRow("PHT warm cache", tally);
    std::printf("##CACHE pht_steady_avg_lookups %.3f\n", tally.avgLookups());
  }
  std::printf("\nD = %zu leaves; uncached reference ~log2 of the probe "
              "range, warm cache resolves in one hint probe.\n",
              leafCountMl);
  std::printf("##CACHE mlight_leaves %zu\n", leafCountMl);
  std::printf("##CACHE mlight_cold_avg_lookups %.3f\n", coldAvg);
  std::printf("##CACHE mlight_steady_avg_lookups %.3f\n", steadyAvg);
  std::printf("##CACHE mlight_steady_hit_rate %.3f\n", steadyHit);

  // Part 3: churn.  A hotspot workload warms hints, then splits (hot
  // inserts), merges (hot erases), and peer churn go after them; stale
  // hints must be detected, metered, and repaired — never answer wrong.
  std::printf("\nStale-hint repair under churn (theta=100, 32 hot keys, "
              "%zu queries per phase):\n",
              queryCount / 2);
  tableHeader();
  {
    const std::size_t phaseQueries = queryCount / 2;
    dht::Network net(args.peers, 1);
    core::MLightConfig cfg;
    cfg.thetaSplit = 100;
    cfg.thetaMerge = 50;
    cfg.cache.enabled = true;
    core::MLightIndex index(net, cfg);
    const std::size_t buildN = args.quick ? 5000 : 20000;
    for (std::size_t i = 0; i < buildN; ++i) index.insert(data[i]);
    common::Rng rng(13);
    auto hotKey = [&]() { return data[rng.below(32)].key; };

    QueryTally warm;
    for (std::size_t q = 0; q < phaseQueries; ++q) {
      queryOne(index, hotKey(), warm);
    }
    printRow("warm-up", warm);

    // Split churn: flood the hot leaves with jittered copies until they
    // split several times, turning cached hints into on-path ancestors.
    std::vector<index::Record> jittered;
    common::Rng jrng(17);
    for (std::size_t k = 0; k < 32; ++k) {
      for (std::size_t c = 0; c < 64; ++c) {
        index::Record r = data[k];
        r.id = 1000000 + k * 64 + c;
        for (std::size_t d = 0; d < r.key.dims(); ++d) {
          const double jitter =
              (static_cast<double>(jrng.below(2001)) - 1000.0) * 1e-6;
          double v = r.key[d] + jitter;
          if (v < 0.0) v = 0.0;
          if (v >= 1.0) v = 1.0 - 1e-9;
          r.key[d] = v;
        }
        jittered.push_back(std::move(r));
      }
    }
    for (const auto& r : jittered) index.insert(r);
    QueryTally afterSplit;
    for (std::size_t q = 0; q < phaseQueries; ++q) {
      queryOne(index, hotKey(), afterSplit);
    }
    printRow("after split churn", afterSplit);

    // Merge churn: drain the jittered records again so the hot leaves
    // merge back up — cached hints now probe pruned subtrees (NULL).
    for (const auto& r : jittered) index.erase(r.key, r.id);
    QueryTally afterMerge;
    for (std::size_t q = 0; q < phaseQueries; ++q) {
      queryOne(index, hotKey(), afterMerge);
    }
    printRow("after merge churn", afterMerge);
    std::printf("##CACHE churn_stale_hints %" PRIu64 "\n",
                afterSplit.staleHints + afterMerge.staleHints);
    std::printf("##CACHE churn_queries_ok %zu\n",
                warm.ok + afterSplit.ok + afterMerge.ok);

    // Peer churn bounds the store's ring-key cache: crashing a peer
    // mourns its unreplicated labels, and mourned labels are evicted.
    const std::size_t ringKeysBefore = index.store().ringKeyCacheSize();
    net.crashPeer(net.peers()[rng.below(net.peerCount())]);
    std::printf("\nring-key cache entries: %zu before crash, %zu after "
                "(%zu mourned labels evicted; %zu buckets lost)\n",
                ringKeysBefore, index.store().ringKeyCacheSize(),
                ringKeysBefore - index.store().ringKeyCacheSize(),
                index.store().lostBuckets());
    std::printf("##CACHE ringkey_cache_size %zu\n",
                index.store().ringKeyCacheSize());
  }

  std::printf("\nshape check: hit rate rises with skew and never changes "
              "an answer;\nwarm caches collapse uniform lookups to ~1 "
              "DHT-lookup (uncached: ~log2 D);\nchurn shows up as metered "
              "stale hints, each repaired in place.\n");
  return 0;
}
