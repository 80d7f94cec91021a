// Reproduces Fig. 5 of the paper: index maintenance costs.
//
//   Fig 5a: cumulative DHT-lookup cost vs data size      (m-LIGHT/PHT/DST)
//   Fig 5b: cumulative data-movement cost vs data size   (m-LIGHT/PHT/DST)
//   Fig 5c: DHT-lookup cost vs θ_split                   (full dataset)
//   Fig 5d: data-movement cost vs θ_split                (full dataset)
//
// Setup mirrors §7.1–7.2: a >100-peer DHT, the NE dataset (123,593 2-D
// points; synthetic stand-in, see DESIGN.md) inserted progressively,
// θ_split = 100 by default, D = 28.  Expected shapes: costs linear in
// data size, insensitive to θ_split (except DST's data movement, which
// shrinks for small θ as nodes saturate earlier), DST about an order of
// magnitude above the others, m-LIGHT cheapest (≈40% below PHT).
#include <cinttypes>
#include <memory>

#include "bench_util.h"
#include "dht/network.h"
#include "dst/dst_index.h"
#include "mlight/index.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"

namespace {

using namespace mlight;

struct SchemeRun {
  const char* name;
  std::vector<dht::CostMeter> checkpoints;  // cumulative cost per step
};

constexpr std::size_t kMaxDepth = 28;

std::unique_ptr<index::IndexBase> makeIndex(const char* scheme,
                                            dht::Network& net,
                                            std::size_t theta) {
  if (std::strcmp(scheme, "m-LIGHT") == 0) {
    core::MLightConfig cfg;
    cfg.thetaSplit = theta;
    cfg.thetaMerge = theta / 2;
    cfg.maxEdgeDepth = kMaxDepth;
    return std::make_unique<core::MLightIndex>(net, cfg);
  }
  if (std::strcmp(scheme, "PHT") == 0) {
    pht::PhtConfig cfg;
    cfg.thetaSplit = theta;
    cfg.thetaMerge = theta / 2;
    cfg.maxDepth = kMaxDepth;
    return std::make_unique<pht::PhtIndex>(net, cfg);
  }
  dst::DstConfig cfg;
  cfg.maxDepth = kMaxDepth;
  cfg.gamma = theta;  // the paper couples DST's node capacity to θ_split
  return std::make_unique<dst::DstIndex>(net, cfg);
}

/// Inserts `data` into a fresh index, metering cumulative cost at
/// `steps` evenly spaced checkpoints.
SchemeRun runScheme(const char* scheme, const std::vector<index::Record>& data,
                    std::size_t peers, std::size_t theta, std::size_t steps) {
  dht::Network net(peers, 1);
  auto index = makeIndex(scheme, net, theta);
  SchemeRun run{scheme, {}};
  const dht::CostMeter start = net.totalCost();
  const std::size_t stride = data.size() / steps;
  for (std::size_t i = 0; i < data.size(); ++i) {
    index->insert(data[i]);
    if ((i + 1) % stride == 0 || i + 1 == data.size()) {
      run.checkpoints.push_back(net.totalCost() - start);
    }
  }
  return run;
}

void printSeries(const char* title, const char* unit,
                 const std::vector<std::size_t>& sizes,
                 const std::vector<SchemeRun>& runs, bool bytes) {
  std::printf("\n%s (%s)\n", title, unit);
  std::printf("%12s", "data size");
  for (const auto& run : runs) std::printf(" %14s", run.name);
  std::printf("\n");
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    std::printf("%12zu", sizes[c]);
    for (const auto& run : runs) {
      const auto& m = run.checkpoints[c];
      std::printf(" %14" PRIu64, bytes ? m.bytesMoved : m.lookups);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const bench::WallClock wall(bench::benchName(argv[0]));
  const auto data = bench::experimentDataset(args, 20090401);

  bench::banner("Fig 5a/5b — maintenance cost vs data size",
                "m-LIGHT (ICDCS'09) §7.2, progressive insertion, "
                "theta_split=100, D=28");

  constexpr std::size_t kSteps = 8;
  std::vector<SchemeRun> runs;
  for (const char* scheme : {"m-LIGHT", "PHT", "DST"}) {
    runs.push_back(runScheme(scheme, data, args.peers, 100, kSteps));
  }
  std::vector<std::size_t> sizes;
  const std::size_t stride = data.size() / kSteps;
  for (std::size_t s = 1; s <= kSteps; ++s) {
    sizes.push_back(s == kSteps ? data.size() : s * stride);
  }
  printSeries("Fig 5a: DHT-lookup cost", "# of DHT-lookups, cumulative",
              sizes, runs, false);
  printSeries("Fig 5b: data-movement cost", "bytes moved, cumulative",
              sizes, runs, true);

  const auto& ml = runs[0].checkpoints.back();
  const auto& ph = runs[1].checkpoints.back();
  const auto& ds = runs[2].checkpoints.back();
  std::printf("\nheadline ratios at %zu records:\n", data.size());
  std::printf("  lookups:  m-LIGHT/PHT = %.2f   DST/PHT = %.2f\n",
              double(ml.lookups) / double(ph.lookups),
              double(ds.lookups) / double(ph.lookups));
  std::printf("  movement: m-LIGHT/PHT = %.2f   DST/PHT = %.2f\n",
              double(ml.bytesMoved) / double(ph.bytesMoved),
              double(ds.bytesMoved) / double(ph.bytesMoved));

  bench::banner("Fig 5c/5d — maintenance cost vs theta_split",
                "full dataset per point; DST's gamma follows theta");
  const std::size_t thetas[] = {50, 100, 300, 600, 900};
  std::printf("\n%12s %14s %14s %14s   (Fig 5c: DHT-lookups)\n",
              "theta_split", "m-LIGHT", "PHT", "DST");
  std::vector<std::vector<dht::CostMeter>> byTheta;
  for (const std::size_t theta : thetas) {
    std::vector<dht::CostMeter> row;
    for (const char* scheme : {"m-LIGHT", "PHT", "DST"}) {
      row.push_back(
          runScheme(scheme, data, args.peers, theta, 1).checkpoints.back());
    }
    byTheta.push_back(row);
    std::printf("%12zu %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n", theta,
                row[0].lookups, row[1].lookups, row[2].lookups);
  }
  std::printf("\n%12s %14s %14s %14s   (Fig 5d: bytes moved)\n",
              "theta_split", "m-LIGHT", "PHT", "DST");
  for (std::size_t t = 0; t < std::size(thetas); ++t) {
    std::printf("%12zu %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                thetas[t], byTheta[t][0].bytesMoved, byTheta[t][1].bytesMoved,
                byTheta[t][2].bytesMoved);
  }
  return 0;
}
