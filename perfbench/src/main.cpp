// m-LIGHT repo benchmark: one seeded, closed-loop workload per run.
//
//   mlight_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--keys a,b,c]
//   mlight_perfbench --self-test
//
// A run is a sequence of epochs.  Epoch e builds the workload from its own
// seed (derived from --seed and e), times the set-up, then times exactly
// the workload's window of index calls.  --trace 0 runs at least three
// epochs and then whole epochs until --seconds of op loop time, and
// reports the end-to-end metrics.  --trace 1 runs epoch 0 twice, untraced
// and traced, asserts equal state digests, and reports the per-layer
// metrics.  The last stdout line is one JSON object over the metrics
// named by --keys (default: all).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/invariants.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int runSelfTests();
}  // namespace perfbench

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Epochs every --trace 0 run makes; the simulated and count metrics
/// cover exactly these.
constexpr std::size_t kDeterministicEpochs = 3;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The calling thread's CPU time (user, system) and minor page faults:
/// next to the loop's wall time they show whether a slow epoch was
/// descheduled or faulting.
struct ThreadUsage {
  double userSeconds = 0.0;
  double systemSeconds = 0.0;
  long minorFaults = 0;

  static ThreadUsage now() {
    rusage u{};
    getrusage(RUSAGE_THREAD, &u);
    auto seconds = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return {seconds(u.ru_utime), seconds(u.ru_stime), u.ru_minflt};
  }
  ThreadUsage since(const ThreadUsage& start) const {
    return {userSeconds - start.userSeconds,
            systemSeconds - start.systemSeconds,
            minorFaults - start.minorFaults};
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::vector<std::string> keys;
  bool selfTest = false;
};

std::vector<std::string> splitCommas(std::string_view s) {
  std::vector<std::string> out;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    out.emplace_back(s.substr(0, comma));
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  return out;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") {
      a.selfTest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--keys") {
        a.keys = splitCommas(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.selfTest || (!a.workload.empty() && (a.trace == 0 || a.trace == 1) &&
                        a.seconds > 0.0);
}

/// Knobs that would silently change what is measured: the sharded event
/// core, tie shuffling, fault injection and the cache override.
bool refuseOverrides() {
  bool refused = false;
  for (const char* var : {"MLIGHT_SIM_SHARDS", "MLIGHT_SCHED_SHUFFLE_SEED",
                          "MLIGHT_FAULT_SEED", "MLIGHT_CACHE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      refused = true;
    }
  }
  return refused;
}

/// What the end-to-end metrics need of one call.
struct OpRecord {
  OpKind kind{};
  std::uint32_t records = 0;  ///< records written
  double hostUs = 0.0;
  double simMs = 0.0;
  std::uint64_t lookups = 0;
  std::uint64_t bytesMoved = 0;
};

/// One epoch: a fresh set-up from the epoch's own seed, then exactly the
/// workload's window of ops.
struct Epoch {
  std::uint64_t seed = 0;
  double setupSeconds = 0.0;
  std::vector<OpRecord> ops;
  double hostSeconds = 0.0;   ///< sum of the timed index calls
  double loopSeconds = 0.0;   ///< wall time of the whole op loop
  ThreadUsage loopUsage;        ///< CPU time and faults of the op loop
  double checkSeconds = 0.0;  ///< wall time of finalCheck()
  std::uint64_t digest = 0;
  mlight::dht::CostMeter totals;  ///< network totals after the last op
  double peakRssMb = 0.0;
  double loadMaxOverAvg = 0.0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
};

double loadMaxOverAvg(const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after,
                      std::size_t peers) {
  std::uint64_t total = 0, max = 0;
  for (std::size_t p = 0; p < peers; ++p) {
    const std::uint64_t a = p < after.size() ? after[p] : 0;
    const std::uint64_t b = p < before.size() ? before[p] : 0;
    total += a - b;
    max = std::max(max, a - b);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(max) * static_cast<double>(peers) /
                          static_cast<double>(total);
}

/// The closed loop over one set-up workload: op i+1 is issued when op i
/// returned, and only the index call itself is inside the timed interval.
/// `r` arrives with the epoch's seed and set-up time filled in.
Epoch measureEpoch(Workload& w, Epoch r, TraceCapture* capture) {
  const std::size_t n = w.checkedOps();
  r.ops.reserve(n);
  auto& net = w.net();
  const std::vector<std::uint64_t> loadsBefore = net.peerLoads().counts();
  const auto loopStart = Clock::now();
  const ThreadUsage usageStart = ThreadUsage::now();
  double hostNs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    w.prepare(i);
    const mlight::dht::CostMeter before = net.totalCost();
    if (capture != nullptr) capture->beginOp();
    const auto t0 = Clock::now();
    const OpKind kind = w.exec(i);
    const auto t1 = Clock::now();
    const OpOutcome outcome = w.inspect(i);
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    const mlight::dht::CostMeter cost = net.totalCost() - before;
    if (capture != nullptr) capture->endOp(kind, ns, cost, outcome);
    hostNs += ns;
    r.ops.push_back(OpRecord{kind,
                             static_cast<std::uint32_t>(outcome.records),
                             ns / 1000.0, outcome.simMs, cost.lookups,
                             cost.bytesMoved});
    if (!outcome.ok) ++r.failed;
  }
  r.hostSeconds = hostNs * 1e-9;
  r.loopSeconds = secondsSince(loopStart);
  r.loopUsage = ThreadUsage::now().since(usageStart);
  if (capture != nullptr) capture->detach();
  r.digest = w.index().stateDigest();
  r.totals = net.totalCost();
  r.peakRssMb = peakRssMb();
  r.loadMaxOverAvg = loadMaxOverAvg(loadsBefore, net.peerLoads().counts(),
                                    net.physicalCount());
  const auto checkStart = Clock::now();
  r.failed += w.finalCheck(r.problems);
  r.checkSeconds = secondsSince(checkStart);
  return r;
}

/// Builds epoch `e` of a run: the workload seeded from the run seed and
/// the epoch number, set up, with its set-up time recorded.
std::unique_ptr<Workload> setUpEpoch(const Args& a, std::size_t e,
                                     Epoch& out) {
  out.seed = subSeed(a.seed, e);
  std::unique_ptr<Workload> w = makeWorkload(a.workload, out.seed);
  const auto t0 = Clock::now();
  w->setup();
  out.setupSeconds = secondsSince(t0);
  return w;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over epochs of each epoch's percentile; reportable only when
/// every epoch has enough samples beyond its rank.
Percentile epochMedian(const std::vector<std::vector<double>>& perEpoch,
                       double pct) {
  Percentile out;
  std::vector<double> values;
  for (const auto& samples : perEpoch) {
    const Percentile p = percentile(samples, pct);
    out.samples += p.samples;
    if (!p.ok) return out;
    values.push_back(p.value);
  }
  out.ok = !values.empty();
  if (out.ok) out.value = median(values);
  return out;
}

/// The end-to-end metrics.  Host-time metrics are medians over all
/// epochs of the per-epoch figure; the simulated and count metrics pool
/// the first `deterministic` epochs, which every run makes, so they are a
/// pure function of the seed.
void addEndToEnd(Report& rep, const std::vector<Epoch>& epochs,
                 std::size_t deterministic) {
  std::vector<double> setups, rates, simAll, simReads, loads;
  std::vector<std::vector<double>> all, reads, writes;
  double lookups = 0, readLookups = 0, writeLookups = 0, bytes = 0,
         writeBytes = 0;
  std::size_t nOps = 0, nDet = 0, nReads = 0, nWrites = 0, written = 0,
              failed = 0;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const Epoch& ep = epochs[e];
    setups.push_back(ep.setupSeconds);
    rates.push_back(static_cast<double>(ep.ops.size()) / ep.hostSeconds);
    failed += ep.failed;
    all.emplace_back();
    reads.emplace_back();
    writes.emplace_back();
    for (const OpRecord& op : ep.ops) {
      ++nOps;
      all.back().push_back(op.hostUs);
      const bool read = isRead(op.kind);
      if (read) {
        reads.back().push_back(op.hostUs);
      } else {
        writes.back().push_back(op.hostUs / static_cast<double>(op.records));
      }
      if (e >= deterministic) continue;
      ++nDet;
      simAll.push_back(op.simMs);
      const auto l = static_cast<double>(op.lookups);
      const auto b = static_cast<double>(op.bytesMoved);
      lookups += l;
      bytes += b;
      if (read) {
        simReads.push_back(op.simMs);
        readLookups += l;
        ++nReads;
      } else {
        writeLookups += l;
        writeBytes += b;
        ++nWrites;
        written += op.records;
      }
    }
    if (e < deterministic) loads.push_back(ep.loadMaxOverAvg);
  }
  const auto det = static_cast<double>(nDet);
  rep.add("setup_s", median(setups), "s", setups.size());
  rep.add("ops_per_s", median(rates), "ops/s", nOps);
  rep.addPercentile("op_us_p50", epochMedian(all, 50), "us");
  rep.addPercentile("op_us_p99", epochMedian(all, 99), "us");
  if (reads.front().empty()) {
    rep.addAbsent("read_us_p50", "us", "no reads");
    rep.addAbsent("read_us_p99", "us", "no reads");
  } else {
    rep.addPercentile("read_us_p50", epochMedian(reads, 50), "us");
    rep.addPercentile("read_us_p99", epochMedian(reads, 99), "us");
  }
  if (writes.front().empty()) {
    rep.addAbsent("write_us_p50", "us/record", "no writes");
    rep.addAbsent("write_us_p99", "us/record", "no writes");
  } else {
    rep.addPercentile("write_us_p50", epochMedian(writes, 50), "us/record");
    rep.addPercentile("write_us_p99", epochMedian(writes, 99), "us/record");
  }
  rep.addPercentile("sim_op_ms_p50", percentile(simAll, 50), "ms");
  rep.addPercentile("sim_op_ms_p99", percentile(simAll, 99), "ms");
  if (simReads.empty()) {
    rep.addAbsent("sim_read_ms_p50", "ms", "no reads");
    rep.addAbsent("sim_read_ms_p99", "ms", "no reads");
  } else {
    rep.addPercentile("sim_read_ms_p50", percentile(simReads, 50), "ms");
    rep.addPercentile("sim_read_ms_p99", percentile(simReads, 99), "ms");
  }
  rep.add("lookups_per_op", lookups / det, "count", nDet);
  if (nReads == 0) {
    rep.addAbsent("lookups_per_read", "count", "no reads");
  } else {
    rep.add("lookups_per_read", readLookups / static_cast<double>(nReads),
            "count", nReads);
  }
  if (nWrites == 0) {
    rep.addAbsent("lookups_per_write", "count", "no writes");
    rep.addAbsent("bytes_per_write", "B/record", "no writes");
  } else {
    rep.add("lookups_per_write", writeLookups / static_cast<double>(nWrites),
            "count", nWrites);
    rep.add("bytes_per_write", writeBytes / static_cast<double>(written),
            "B/record", written);
  }
  rep.add("bytes_per_op", bytes / det, "B", nDet);
  double loadSum = 0;
  for (const double l : loads) loadSum += l;
  rep.add("load_max_over_avg", loadSum / static_cast<double>(loads.size()),
          "ratio", loads.size());
  rep.add("peak_rss_mb", epochs[deterministic - 1].peakRssMb, "MB");
  rep.add("failed_ratio",
          static_cast<double>(failed) / static_cast<double>(nOps), "ratio",
          nOps);
}

void printProvenance(const Args& a) {
  std::printf(
      "provenance nproc=%u compiler=\"%s\" build=%s audit=%s seed=%" PRIu64
      " workload=%s\n",
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE,
      mlight::common::auditLevelName(mlight::common::auditLevel()), a.seed,
      a.workload.c_str());
}

void printEpoch(const char* pass, std::size_t e, const Epoch& ep) {
  const auto& t = ep.totals;
  std::vector<double> us;
  for (const OpRecord& op : ep.ops) us.push_back(op.hostUs);
  std::printf("epoch %zu pass=%s seed=%" PRIu64 " digest=%016" PRIx64
              " sim_lookups=%" PRIu64 " sim_hops=%" PRIu64
              " sim_messages=%" PRIu64
              " ops=%zu failed=%zu setup_s=%.4f calls_s=%.4f loop_s=%.3f"
              " loop_user_s=%.3f"
              " loop_sys_s=%.3f loop_minflt=%ld check_s=%.3f op_us_p50=%.3f"
              " op_us_p99=%.3f\n",
              e, pass, ep.seed, ep.digest, t.lookups, t.hops, t.messages,
              ep.ops.size(), ep.failed, ep.setupSeconds, ep.hostSeconds,
              ep.loopSeconds, ep.loopUsage.userSeconds, ep.loopUsage.systemSeconds,
              ep.loopUsage.minorFaults, ep.checkSeconds,
              percentile(us, 50).value, percentile(us, 99).value);
  for (const std::string& p : ep.problems) {
    std::printf("FAILED check: %s\n", p.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--keys a,b] | --self-test\n",
                 argv[0]);
    return 2;
  }
  if (refuseOverrides()) return 2;
  // The audit level is pinned: the default `boundaries`, never `off`.
  mlight::common::setAuditLevel(mlight::common::AuditLevel::kBoundaries);

  if (const int failures = runSelfTests(); failures != 0 || args.selfTest) {
    std::fprintf(stderr, "perfbench: self-test %s (%d failures)\n",
                 failures == 0 ? "passed" : "FAILED", failures);
    return failures == 0 ? 0 : 3;
  }

  if (makeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("# mlight perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  printProvenance(args);

  Report rep;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  try {
    if (args.trace == 0) {
      // Whole epochs, each from its own seed, until --seconds of op loop
      // time: a faster build runs more epochs of the same distribution.
      std::vector<Epoch> epochs;
      double measured = 0.0;
      for (std::size_t e = 0; e < kDeterministicEpochs || measured < args.seconds;
           ++e) {
        Epoch head;
        std::unique_ptr<Workload> w = setUpEpoch(args, e, head);
        Epoch run = measureEpoch(*w, head, nullptr);
        w.reset();
        measured += run.loopSeconds;
        printEpoch("untraced", e, run);
        attempted += run.ops.size();
        failed += run.failed;
        epochs.push_back(std::move(run));
      }
      addEndToEnd(rep, epochs, kDeterministicEpochs);
    } else {
      // Epoch 0 twice, untraced and traced: equal digests prove the hooks
      // only observe.
      Epoch head;
      std::unique_ptr<Workload> w = setUpEpoch(args, 0, head);
      const Epoch plain = measureEpoch(*w, head, nullptr);
      printEpoch("untraced", 0, plain);
      w.reset();  // one set-up in memory at a time
      w = setUpEpoch(args, 0, head);
      TraceCapture capture(*w);
      const Epoch traced = measureEpoch(*w, head, &capture);
      printEpoch("traced", 0, traced);
      if (traced.digest != plain.digest) {
        std::printf("FAILED check: traced digest %016" PRIx64
                    " != untraced %016" PRIx64 "\n",
                    traced.digest, plain.digest);
        correct = false;
      }
      capture.addPerLayerMetrics(
          rep, static_cast<double>(plain.ops.size()) / plain.hostSeconds);
      attempted = plain.ops.size() + traced.ops.size();
      failed = plain.failed + traced.failed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
  correct = correct && failed == 0;
  rep.printTable("metric");
  std::vector<std::string> keys = args.keys;
  if (keys.empty()) {
    for (const auto& m : rep.metrics()) {
      if (m.present) keys.push_back(m.name);
    }
  }
  if (!rep.printJson(correct, attempted, failed, keys)) {
    std::fprintf(stderr, "perfbench: a requested metric has no value\n");
    return 5;
  }
  return correct ? 0 : 1;
}
