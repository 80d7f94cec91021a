// Measured wire throughput vs simulated prediction (the transport PR's
// driver).
//
// Brings up a loopback TCP ring — every physical peer a real
// socket-serving thread (in-process by default, or an external
// mlight_peerd process ring via --connect) — and hammers it with
// C ∈ {1, 8, 64} concurrent client threads doing batched inserts and
// range queries over u64 records.  Reports measured aggregate qps and
// client-observed p50/p99 wall latency per concurrency level, next to
// what the deterministic simulator predicts for the identical workload
// (same ring — both worlds resolve owners on a dht::Network — same
// batches, same placement; tests/transport/wire_parity_test.cpp checks
// that both worlds place and answer alike).
//
// Every query answer is verified against the analytically known truth
// (keys are dense 0..N-1 with a fixed value mix), so the ##WIRE
// wrong_answers_total line is a hard correctness gate, not a smell test.
//
// ##WIRE <key> <value> lines feed scripts/run_benches.sh into
// BENCH_PERF.json's `wire:` section.  Host wall-clock numbers are NOT
// simulated metrics (docs/COST_MODEL.md, "Real transport").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "dht/network.h"
#include "store/wire_store.h"
#include "transport/sim_transport.h"
#include "transport/tcp.h"

namespace {

using mlight::store::WireStore;
using mlight::store::wireRingKey;
namespace dht = mlight::dht;
namespace transport = mlight::transport;

constexpr std::size_t kBatchRecords = 32;
constexpr std::size_t kClientWindow = 8;  // outstanding rpcs per client

/// Fixed record value mix: verification recomputes it instead of
/// shipping a reference copy around.
std::uint64_t valueOf(std::uint64_t key) {
  return key * 0x9E3779B97F4A7C15ull ^ 0x5DEECE66Dull;
}

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double percentileMs(std::vector<double>& ms, double q) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(ms.size() - 1) + 0.5);
  return ms[idx];
}

/// One owner-grouped insert batch.
struct Batch {
  std::size_t peer = 0;
  std::vector<WireStore::Record> records;
};

/// Groups the dense key space into per-owner batches of kBatchRecords,
/// identically for the simulated and the measured run.
std::vector<Batch> buildBatches(const dht::Network& ring,
                                std::size_t records) {
  std::vector<std::vector<WireStore::Record>> acc(ring.physicalCount());
  std::vector<Batch> out;
  for (std::uint64_t k = 0; k < records; ++k) {
    const std::size_t p = ring.physicalOf(ring.responsible(wireRingKey(k)));
    acc[p].emplace_back(k, valueOf(k));
    if (acc[p].size() == kBatchRecords) {
      out.push_back(Batch{p, std::move(acc[p])});
      acc[p].clear();
    }
  }
  for (std::size_t p = 0; p < acc.size(); ++p) {
    if (!acc[p].empty()) out.push_back(Batch{p, std::move(acc[p])});
  }
  return out;
}

dht::RpcEnvelope makeRequest(dht::RpcKind kind,
                             std::vector<std::uint8_t> payload) {
  dht::RpcEnvelope env;
  env.kind = kind;
  env.payload = std::move(payload);
  return env;
}

struct RoundResult {
  double seconds = 0.0;
  std::vector<double> latenciesMs;
  std::uint64_t deadLetters = 0;
  std::uint64_t wrongAnswers = 0;
};

/// Insert round at concurrency C: client c owns batches with
/// index % C == c, pipelined kClientWindow deep.
RoundResult insertRound(const dht::Network& ring,
                        const std::vector<transport::PeerAddr>& addrs,
                        const std::vector<Batch>& batches, std::size_t c) {
  std::vector<std::thread> threads;
  std::vector<RoundResult> perClient(c);
  const std::uint64_t t0 = nowUs();
  for (std::size_t ci = 0; ci < c; ++ci) {
    threads.emplace_back([&, ci] {
      transport::TcpTransport client(ring, addrs);
      RoundResult& r = perClient[ci];
      for (std::size_t b = ci; b < batches.size(); b += c) {
        const Batch& batch = batches[b];
        const std::uint64_t sent = nowUs();
        client.call(
            wireRingKey(batch.records[0].first),
            makeRequest(dht::RpcKind::kBatchPut,
                        WireStore::encodeBatchPut(batch.records)),
            [&r, sent, &batch](const dht::RpcEnvelope& resp) {
              r.latenciesMs.push_back(
                  static_cast<double>(nowUs() - sent) / 1000.0);
              if (WireStore::decodeBatchPutResponse(resp.payload) !=
                  batch.records.size()) {
                ++r.wrongAnswers;
              }
            },
            nullptr);
        while (client.inFlight() >= kClientWindow) client.pump(5);
      }
      client.drain();
      r.deadLetters = client.deadLetters().total();
    });
  }
  for (std::thread& t : threads) t.join();
  RoundResult total;
  total.seconds = static_cast<double>(nowUs() - t0) / 1e6;
  for (RoundResult& r : perClient) {
    total.latenciesMs.insert(total.latenciesMs.end(), r.latenciesMs.begin(),
                             r.latenciesMs.end());
    total.deadLetters += r.deadLetters;
    total.wrongAnswers += r.wrongAnswers;
  }
  return total;
}

/// Range-query round: each client runs its share of broadcast range
/// queries (one kVisit per peer, merged and verified analytically).
RoundResult queryRound(const dht::Network& ring,
                       const std::vector<transport::PeerAddr>& addrs,
                       std::size_t records, std::size_t totalQueries,
                       std::size_t c) {
  std::vector<std::thread> threads;
  std::vector<RoundResult> perClient(c);
  const std::uint64_t span = std::max<std::uint64_t>(records / 50, 1);
  const std::uint64_t t0 = nowUs();
  for (std::size_t ci = 0; ci < c; ++ci) {
    threads.emplace_back([&, ci] {
      transport::TcpTransport client(ring, addrs);
      RoundResult& r = perClient[ci];
      mlight::common::Rng rng(0xC0FFEEull + ci);
      for (std::size_t q = ci; q < totalQueries; q += c) {
        const std::uint64_t lo =
            rng.below(static_cast<std::uint64_t>(records) - span + 1);
        const std::uint64_t hi = lo + span - 1;
        std::uint64_t hits = 0;
        std::uint64_t bad = 0;
        const std::uint64_t sent = nowUs();
        for (std::size_t p = 0; p < ring.physicalCount(); ++p) {
          client.call(ring.firstVnodeOf(p),
                      makeRequest(dht::RpcKind::kVisit,
                                  WireStore::encodeRange(lo, hi)),
                      [&hits, &bad, lo, hi](const dht::RpcEnvelope& resp) {
                        for (const auto& rec :
                             WireStore::decodeRangeResponse(resp.payload)) {
                          ++hits;
                          if (rec.first < lo || rec.first > hi ||
                              rec.second != valueOf(rec.first)) {
                            ++bad;
                          }
                        }
                      },
                      nullptr);
        }
        client.drain();
        r.latenciesMs.push_back(static_cast<double>(nowUs() - sent) /
                                1000.0);
        // Keys are dense: the exact expected hit count is hi - lo + 1.
        if (hits != span || bad != 0) ++r.wrongAnswers;
      }
      r.deadLetters = client.deadLetters().total();
    });
  }
  for (std::thread& t : threads) t.join();
  RoundResult total;
  total.seconds = static_cast<double>(nowUs() - t0) / 1e6;
  for (RoundResult& r : perClient) {
    total.latenciesMs.insert(total.latenciesMs.end(), r.latenciesMs.begin(),
                             r.latenciesMs.end());
    total.deadLetters += r.deadLetters;
    total.wrongAnswers += r.wrongAnswers;
  }
  return total;
}

/// The simulator's prediction for the identical workload: same batches,
/// same broadcast queries, measured in simulated milliseconds and
/// metered messages.  Client concurrency is a wall-clock phenomenon the
/// simulator deliberately does not model — predictions are per-op.
struct SimPrediction {
  std::vector<double> insertLatMs;
  std::vector<double> queryLatMs;
  std::uint64_t messages = 0;
  std::uint64_t deadLetters = 0;
};

SimPrediction simPredict(std::size_t peers, const std::vector<Batch>& batches,
                         std::size_t records, std::size_t totalQueries) {
  transport::SimTransport sim(peers);
  SimPrediction pred;
  for (const Batch& batch : batches) {
    const double t0 = sim.network().now();
    sim.call(wireRingKey(batch.records[0].first),
             makeRequest(dht::RpcKind::kBatchPut,
                         WireStore::encodeBatchPut(batch.records)),
             [&pred, t0, &sim](const dht::RpcEnvelope&) {
               pred.insertLatMs.push_back(sim.network().now() - t0);
             },
             nullptr);
    sim.drain();
  }
  const std::uint64_t span = std::max<std::uint64_t>(records / 50, 1);
  mlight::common::Rng rng(0xC0FFEEull);
  for (std::size_t q = 0; q < totalQueries; ++q) {
    const std::uint64_t lo =
        rng.below(static_cast<std::uint64_t>(records) - span + 1);
    const double t0 = sim.network().now();
    for (std::size_t p = 0; p < peers; ++p) {
      sim.call(sim.network().firstVnodeOf(p),
               makeRequest(dht::RpcKind::kVisit,
                           WireStore::encodeRange(lo, lo + span - 1)),
               nullptr, nullptr);
    }
    sim.drain();
    pred.queryLatMs.push_back(sim.network().now() - t0);
  }
  pred.messages = sim.network().totalCost().messages;
  pred.deadLetters = sim.network().deadLetters().total();
  return pred;
}

}  // namespace

int main(int argc, char** argv) {
  // Custom flag set (Args::parse rejects unknown flags): the standard
  // scale/quick knobs plus --connect for an external mlight_peerd ring.
  std::size_t records = 123593;
  std::size_t peers = 128;
  std::size_t queries = 24;
  bool quick = false;
  std::uint16_t connectBase = 0;  // 0 = in-process servers
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::uint64_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (a == "--records") {
      records = next();
    } else if (a == "--peers") {
      peers = next();
    } else if (a == "--queries") {
      queries = next();
    } else if (a == "--connect") {
      connectBase = static_cast<std::uint16_t>(next());
    } else if (a == "--quick") {
      quick = true;
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: %s [--records N] [--peers P] [--queries Q] [--quick] "
          "[--connect BASEPORT]\n"
          "  --connect: use an external mlight_peerd ring listening on\n"
          "             127.0.0.1:BASEPORT..BASEPORT+P-1 instead of\n"
          "             in-process peer threads\n",
          argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (quick) {
    records /= 10;
    peers = std::min<std::size_t>(peers, 64);
    queries = std::min<std::size_t>(queries, 8);
  }

  mlight::bench::WallClock wall(mlight::bench::benchName(argv[0]));
  mlight::bench::banner(
      "extra_wire — measured TCP transport vs simulated prediction",
      "transport PR: loopback ring, concurrent clients, real sockets");
  std::printf("peers=%zu records=%zu queries=%zu %s\n", peers, records,
              queries,
              connectBase != 0 ? "(external peerd ring)" : "(in-process)");

  const dht::Network ring(peers);
  const std::vector<Batch> batches = buildBatches(ring, records);

  // Simulator prediction first (cheap, deterministic).
  const SimPrediction pred = simPredict(peers, batches, records, queries);
  std::vector<double> predIns = pred.insertLatMs;
  std::vector<double> predQry = pred.queryLatMs;
  const double predInsP50 = percentileMs(predIns, 0.50);
  const double predInsP99 = percentileMs(predIns, 0.99);
  const double predQryP50 = percentileMs(predQry, 0.50);
  const double predQryP99 = percentileMs(predQry, 0.99);

  // The measured ring.
  std::vector<transport::TcpPeerServer> servers;
  std::vector<transport::PeerAddr> addrs(peers);
  if (connectBase == 0) {
    servers = std::vector<transport::TcpPeerServer>(peers);
    for (std::size_t i = 0; i < peers; ++i) {
      addrs[i].port = servers[i].start();
    }
  } else {
    for (std::size_t i = 0; i < peers; ++i) {
      addrs[i].port = static_cast<std::uint16_t>(connectBase + i);
    }
  }

  std::printf("\n%-6s %12s %10s %10s %12s %10s %10s\n", "C",
              "insert qps", "ins p50", "ins p99", "query qps", "qry p50",
              "qry p99");
  mlight::bench::rule(78);

  std::uint64_t deadTotal = 0;
  std::uint64_t wrongTotal = 0;
  for (const std::size_t c : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}}) {
    RoundResult ins = insertRound(ring, addrs, batches, c);
    RoundResult qry = queryRound(ring, addrs, records, queries, c);
    const double insQps =
        static_cast<double>(records) / std::max(ins.seconds, 1e-9);
    const double qryQps =
        static_cast<double>(queries) / std::max(qry.seconds, 1e-9);
    const double insP50 = percentileMs(ins.latenciesMs, 0.50);
    const double insP99 = percentileMs(ins.latenciesMs, 0.99);
    const double qryP50 = percentileMs(qry.latenciesMs, 0.50);
    const double qryP99 = percentileMs(qry.latenciesMs, 0.99);
    std::printf("%-6zu %12.0f %9.2fms %9.2fms %12.1f %9.2fms %9.2fms\n", c,
                insQps, insP50, insP99, qryQps, qryP50, qryP99);
    deadTotal += ins.deadLetters + qry.deadLetters;
    wrongTotal += ins.wrongAnswers + qry.wrongAnswers;
    std::printf("##WIRE insert_qps_c%zu %.0f\n", c, insQps);
    std::printf("##WIRE insert_p50_ms_c%zu %.3f\n", c, insP50);
    std::printf("##WIRE insert_p99_ms_c%zu %.3f\n", c, insP99);
    std::printf("##WIRE query_qps_c%zu %.1f\n", c, qryQps);
    std::printf("##WIRE query_p50_ms_c%zu %.3f\n", c, qryP50);
    std::printf("##WIRE query_p99_ms_c%zu %.3f\n", c, qryP99);
  }
  std::printf(
      "\nsimulated prediction (per-op, concurrency-free): insert p50 "
      "%.2fms p99 %.2fms | query p50 %.2fms p99 %.2fms | %llu messages\n",
      predInsP50, predInsP99, predQryP50, predQryP99,
      static_cast<unsigned long long>(pred.messages));

  if (connectBase == 0) {
    for (auto& s : servers) s.stop();
  }

  std::printf("##WIRE wire_peers %zu\n", peers);
  std::printf("##WIRE wire_records %zu\n", records);
  std::printf("##WIRE sim_insert_p50_ms %.3f\n", predInsP50);
  std::printf("##WIRE sim_insert_p99_ms %.3f\n", predInsP99);
  std::printf("##WIRE sim_query_p50_ms %.3f\n", predQryP50);
  std::printf("##WIRE sim_query_p99_ms %.3f\n", predQryP99);
  std::printf("##WIRE sim_messages %llu\n",
              static_cast<unsigned long long>(pred.messages));
  std::printf("##WIRE sim_dead_letters %llu\n",
              static_cast<unsigned long long>(pred.deadLetters));
  std::printf("##WIRE dead_letters_total %llu\n",
              static_cast<unsigned long long>(deadTotal));
  std::printf("##WIRE wrong_answers_total %llu\n",
              static_cast<unsigned long long>(wrongTotal));
  return 0;
}
