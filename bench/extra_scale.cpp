// Scale sweep (beyond the paper): queries/sec and ring-bootstrap cost as
// the overlay grows from the paper's 128 peers to a 10k-peer ring holding
// millions of records.
//
// The paper's §7 evaluation stops at "more than one hundred" peers; this
// bench exercises the simulator itself at deployment scale.  Per sweep
// point it reports:
//
//   * construct_s  — host seconds to bootstrap the ring (bulk ctor:
//                    generate + sort all vnode ids once, one ring-slot
//                    directory build; the incremental join path would be
//                    O(n^2) at 10k peers)
//   * insert_s     — host seconds to load the dataset into m-LIGHT
//   * qps          — range queries per host second (span 0.02 squares)
//   * p50/p99_ms   — percentiles of *simulated* per-query latency, which
//                    is host-independent and bit-identical across runs
//
// Output: a table plus machine-greppable lines
//     ##SCALE <key> <number>
// which scripts/run_benches.sh folds into BENCH_PERF.json next to the
// ##WALLCLOCK and ##CACHE trajectories.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace {

using namespace mlight;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[rank < v.size() ? rank : v.size() - 1];
}

struct SweepPoint {
  std::size_t peers;
  std::size_t records;
};

struct QueryPhase {
  double wallS = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
};

QueryPhase runQueries(core::MLightIndex& ml,
                      const std::vector<common::Rect>& queries) {
  QueryPhase out;
  std::vector<double> latencies;
  latencies.reserve(queries.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& q : queries) {
    latencies.push_back(ml.rangeQuery(q).stats.latencyMs);
  }
  out.wallS = secondsSince(t0);
  out.p50Ms = percentile(latencies, 0.50);
  out.p99Ms = percentile(latencies, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv);
  const bench::WallClock wall(bench::benchName(argv[0]));

  bench::banner("Extra — scale sweep: 128 .. 10k peers",
                "beyond §7: ring bootstrap cost, load throughput, "
                "queries/sec and simulated latency at deployment scale");

  // The sweep ignores --records/--peers (each point fixes both); --quick
  // shrinks it to a smoke run for CI's bench loop.
  const std::vector<SweepPoint> sweep =
      args.quick ? std::vector<SweepPoint>{{128, 2000}, {1024, 5000}}
                 : std::vector<SweepPoint>{{128, 200000},
                                           {1024, 500000},
                                           {4096, 1000000},
                                           {10240, 2000000}};
  const std::size_t queryCount = args.queries;

  std::printf("\n%7s %9s %11s %9s %10s %9s %9s %10s\n", "peers", "records",
              "construct_s", "insert_s", "insert_rps", "qps", "p50_ms",
              "p99_ms");

  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const SweepPoint& pt = sweep[p];
    std::fprintf(stderr, "point %zu: %zu peers, %zu records...\n", p,
                 pt.peers, pt.records);
    const auto data = workload::northeastDataset(pt.records, 20090401);
    const auto queries = workload::uniformRangeQueries(
        queryCount, 2, 0.02, 9000 + static_cast<std::uint64_t>(p));

    const auto tc = std::chrono::steady_clock::now();
    dht::Network net(pt.peers, 1);
    const double constructS = secondsSince(tc);

    core::MLightConfig mc;
    mc.thetaSplit = 100;
    mc.thetaMerge = 50;
    mc.maxEdgeDepth = 28;
    core::MLightIndex ml(net, mc);

    const auto ti = std::chrono::steady_clock::now();
    for (const auto& r : data) ml.insert(r);
    const double insertS = secondsSince(ti);

    const QueryPhase phase = runQueries(ml, queries);
    const double qps = static_cast<double>(queries.size()) / phase.wallS;

    std::printf("%7zu %9zu %11.3f %9.1f %10.0f %9.2f %9.1f %10.1f\n",
                pt.peers, pt.records, constructS, insertS,
                static_cast<double>(pt.records) / insertS, qps, phase.p50Ms,
                phase.p99Ms);
    std::printf("##SCALE peers%zu_construct_s %.3f\n", pt.peers, constructS);
    std::printf("##SCALE peers%zu_insert_s %.1f\n", pt.peers, insertS);
    std::printf("##SCALE peers%zu_qps %.2f\n", pt.peers, qps);
    std::printf("##SCALE peers%zu_p50_ms %.1f\n", pt.peers, phase.p50Ms);
    std::printf("##SCALE peers%zu_p99_ms %.1f\n", pt.peers, phase.p99Ms);
  }
  return 0;
}
