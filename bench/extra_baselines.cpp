// Beyond the paper's figures: all four over-DHT schemes side by side —
// m-LIGHT, PHT, DST, and RST (§2.1's fourth scheme, cited but not
// plotted in the paper) — on one workload, maintenance and queries.
#include <cinttypes>

#include "bench_util.h"
#include "dht/network.h"
#include "dst/dst_index.h"
#include "mlight/index.h"
#include "pht/pht_index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

int main(int argc, char** argv) {
  using namespace mlight;
  auto args = bench::Args::parse(argc, argv);
  const bench::WallClock wall(bench::benchName(argv[0]));
  if (args.records == 123593) args.records = 40000;

  bench::banner("Extension — four over-DHT schemes side by side",
                "m-LIGHT / PHT / DST / RST; NE data, theta=gamma=100, "
                "D=24, span-0.1 queries");

  dht::Network net(args.peers, 1);
  core::MLightConfig mc;
  mc.thetaSplit = 100;
  mc.thetaMerge = 50;
  mc.maxEdgeDepth = 24;
  core::MLightIndex ml(net, mc);
  pht::PhtConfig pc;
  pc.thetaSplit = 100;
  pc.thetaMerge = 50;
  pc.maxDepth = 24;
  pht::PhtIndex ph(net, pc);
  dst::DstConfig dc;
  dc.maxDepth = 24;
  dc.gamma = 100;
  dst::DstIndex ds(net, dc);
  dst::DstConfig rc;
  rc.maxDepth = 24;
  rc.gamma = 100;
  rc.levelWidth = dst::LevelWidth::kOneBit;
  rc.bandCeiling = 4;
  rc.seed = 45;
  rc.dhtNamespace = "rst/";
  dst::DstIndex rs(net, rc);

  const auto data = workload::northeastDataset(args.records, 20090401);
  dht::CostMeter meters[4];
  const char* names[] = {"m-LIGHT", "PHT", "DST", "RST"};
  {
    dht::MeterScope s(net, meters[0]);
    for (const auto& r : data) ml.insert(r);
  }
  {
    dht::MeterScope s(net, meters[1]);
    for (const auto& r : data) ph.insert(r);
  }
  {
    dht::MeterScope s(net, meters[2]);
    for (const auto& r : data) ds.insert(r);
  }
  {
    dht::MeterScope s(net, meters[3]);
    for (const auto& r : data) rs.insert(r);
  }

  const auto queries =
      workload::uniformRangeQueries(args.queries, 2, 0.1, 202);
  double qLookups[4] = {};
  double qRounds[4] = {};
  for (const auto& q : queries) {
    index::RangeResult res[4] = {ml.rangeQuery(q), ph.rangeQuery(q),
                                 ds.rangeQuery(q), rs.rangeQuery(q)};
    for (int i = 1; i < 4; ++i) {
      if (res[i].records.size() != res[0].records.size()) {
        std::fprintf(stderr, "RESULT MISMATCH on %s\n", names[i]);
        return 1;
      }
    }
    for (int i = 0; i < 4; ++i) {
      qLookups[i] += static_cast<double>(res[i].stats.cost.lookups);
      qRounds[i] += static_cast<double>(res[i].stats.rounds);
    }
  }

  bench::meterHeader(9, "scheme");
  std::printf(" %14s %10s\n", "query lookups", "rounds");
  for (int i = 0; i < 4; ++i) {
    bench::meterCells(names[i], 9, meters[i]);
    std::printf(" %14.1f %10.2f\n",
                qLookups[i] / static_cast<double>(queries.size()),
                qRounds[i] / static_cast<double>(queries.size()));
  }
  std::printf("\nshape check: the replication pair (DST, RST) pays far "
              "more maintenance than the\nbucket pair (m-LIGHT, PHT).  "
              "RST's finer binary segments save query bandwidth\nover "
              "DST's 2^m cells but double the registration levels, so "
              "its maintenance is\nhighest of all despite the band "
              "ceiling — the trade both replication schemes\nlive on.\n");
  return 0;
}
