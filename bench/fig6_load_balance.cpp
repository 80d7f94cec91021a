// Reproduces Fig. 6 of the paper: storage load balance of the data-aware
// splitting strategy vs the conventional threshold-based strategy.
//
//   Fig 6a: variance of per-peer storage load vs tree size
//   Fig 6b: percentage of empty buckets vs tree size
//
// Setup mirrors §7.3: ε = 70 and θ_split = 100 so both trees grow to
// comparable sizes over the NE dataset.  Expected shapes: the data-aware
// strategy lowers load variance (paper: ≈15%) and empty-bucket share
// (paper: ≈35%).  Variance is reported on loads normalized by their mean
// (the dimensionless relative variance), so the number is comparable
// across checkpoints with different totals.
#include <algorithm>
#include <cinttypes>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"

namespace {

using namespace mlight;

struct Sample {
  std::size_t treeSize = 0;
  double loadVariance = 0.0;    // per physical peer
  double bucketVariance = 0.0;  // per bucket
  double emptyPct = 0.0;
  double queryMax = 0.0;  // max per-peer envelope delta over the probe set
  double queryAvg = 0.0;  // avg per-peer envelope delta over the probe set
};

/// Relative (mean-normalized) variance of storage per *physical* peer.
/// The overlay runs 8 virtual nodes per peer, as real Chord/Bamboo
/// deployments do, so arc imbalance does not drown the strategy effect.
double relativePeerVariance(const core::MLightIndex& index,
                            const dht::Network& net) {
  const auto perVnode = index.store().perPeerRecords();
  std::vector<double> load(net.physicalCount(), 0.0);
  for (const auto& [vnode, records] : perVnode) {
    load[net.physicalOf(vnode)] += static_cast<double>(records);
  }
  common::RunningStat stat;
  for (double l : load) stat.add(l);
  const double mean = stat.mean();
  return mean == 0.0 ? 0.0 : stat.variance() / (mean * mean);
}

/// Relative variance of per-bucket load — the quantity Theorem 6's
/// objective Σ(l-ε)² directly controls.
double relativeBucketVariance(const core::MLightIndex& index) {
  common::RunningStat stat;
  index.store().forEach(
      [&](const auto&, const core::LeafBucket& b, auto) {
        stat.add(static_cast<double>(b.recordCount()));
      });
  const double mean = stat.mean();
  return mean == 0.0 ? 0.0 : stat.variance() / (mean * mean);
}

/// Per-physical-peer *query* load at a checkpoint: run a fixed set of
/// uniform point queries over the records inserted so far and report the
/// max/avg envelope delta per peer (dht::PeerLoadMeter) — the query-side
/// companion to the storage columns.
void queryLoadProbe(core::MLightIndex& index, const dht::Network& net,
                    const std::vector<index::Record>& data,
                    std::size_t inserted, Sample* s) {
  const std::size_t probes = 100;
  const std::vector<std::uint64_t> before = net.peerLoads().counts();
  common::Rng rng(2009 + inserted);
  for (std::size_t q = 0; q < probes; ++q) {
    index.pointQuery(data[rng.below(inserted)].key);
  }
  const std::vector<std::uint64_t>& after = net.peerLoads().counts();
  double total = 0.0;
  for (std::size_t p = 0; p < net.physicalCount(); ++p) {
    const std::uint64_t a = p < after.size() ? after[p] : 0;
    const std::uint64_t b = p < before.size() ? before[p] : 0;
    const double d = static_cast<double>(a - b);
    total += d;
    s->queryMax = std::max(s->queryMax, d);
  }
  s->queryAvg = total / static_cast<double>(net.physicalCount());
}

std::vector<Sample> run(core::SplitStrategy strategy,
                        const std::vector<index::Record>& data,
                        std::size_t peers, std::size_t checkpointEvery) {
  dht::Network net(peers, 1, /*vnodesPerPeer=*/8);
  core::MLightConfig cfg;
  cfg.strategy = strategy;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  cfg.epsilon = 70.0;
  cfg.maxEdgeDepth = 28;
  core::MLightIndex index(net, cfg);
  std::vector<Sample> samples;
  for (std::size_t i = 0; i < data.size(); ++i) {
    index.insert(data[i]);
    if ((i + 1) % checkpointEvery == 0 || i + 1 == data.size()) {
      Sample s;
      s.treeSize = index.bucketCount();
      s.loadVariance = relativePeerVariance(index, net);
      s.bucketVariance = relativeBucketVariance(index);
      s.emptyPct = 100.0 * static_cast<double>(index.emptyBucketCount()) /
                   static_cast<double>(index.bucketCount());
      queryLoadProbe(index, net, data, i + 1, &s);
      samples.push_back(s);
    }
  }
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const bench::WallClock wall(bench::benchName(argv[0]));
  const auto data = bench::experimentDataset(args, 20090401);
  const std::size_t checkpointEvery = data.size() / 10;

  bench::banner("Fig 6 — storage load balance",
                "m-LIGHT (ICDCS'09) §7.3: threshold (theta=100) vs "
                "data-aware (epsilon=70) splitting on the NE dataset");

  const auto threshold =
      run(core::SplitStrategy::kThreshold, data, args.peers, checkpointEvery);
  const auto aware =
      run(core::SplitStrategy::kDataAware, data, args.peers, checkpointEvery);

  std::printf("\n%52s | %52s\n", "threshold-based splitting",
              "data-aware splitting");
  std::printf("%10s %9s %9s %7s %6s %6s | %10s %9s %9s %7s %6s %6s\n",
              "tree size", "peer var", "bkt var", "empty%", "qmax", "qavg",
              "tree size", "peer var", "bkt var", "empty%", "qmax", "qavg");
  for (std::size_t i = 0; i < threshold.size() && i < aware.size(); ++i) {
    std::printf("%10zu %9.4f %9.4f %6.2f%% %6.0f %6.1f | %10zu %9.4f %9.4f "
                "%6.2f%% %6.0f %6.1f\n",
                threshold[i].treeSize, threshold[i].loadVariance,
                threshold[i].bucketVariance, threshold[i].emptyPct,
                threshold[i].queryMax, threshold[i].queryAvg,
                aware[i].treeSize, aware[i].loadVariance,
                aware[i].bucketVariance, aware[i].emptyPct,
                aware[i].queryMax, aware[i].queryAvg);
  }

  const auto& t = threshold.back();
  const auto& a = aware.back();
  std::printf("\nheadline (paper: variance -15%%, empty buckets -35%%):\n");
  std::printf("  peer-load variance reduction:    %+.1f%%\n",
              100.0 * (a.loadVariance - t.loadVariance) / t.loadVariance);
  std::printf("  bucket-load variance reduction:  %+.1f%%\n",
              100.0 * (a.bucketVariance - t.bucketVariance) /
                  t.bucketVariance);
  if (t.emptyPct > 0.0) {
    std::printf("  empty-bucket reduction:          %+.1f%%\n",
                100.0 * (a.emptyPct - t.emptyPct) / t.emptyPct);
  }
  return 0;
}
