// Self-tests of the benchmark's own helpers; run before every workload
// (a few milliseconds) and alone with --self-test.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "answers.h"
#include "dht/network.h"
#include "index/oracle.h"
#include "mlight/index.h"
#include "report.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void testPercentiles() {
  const Percentile p99 = percentile(iota(1000), 99);
  expect(p99.ok && p99.value == 990.0 && p99.beyond == 10 &&
             p99.samples == 1000,
         "p99 of 1..1000 is 990 with 10 samples beyond");
  expect(!percentile(iota(999), 99).ok, "p99 of 999 samples is refused");
  expect(percentile(iota(20), 50).ok && percentile(iota(20), 50).value == 10.0,
         "p50 of 20 samples is reported");
  expect(!percentile(iota(19), 50).ok, "p50 of 19 samples is refused");
  expect(!percentile({}, 50).ok, "no samples, no percentile");
  // Order of input does not matter.
  std::vector<double> shuffled = iota(1000);
  std::swap(shuffled[3], shuffled[997]);
  expect(percentile(shuffled, 99).value == 990.0, "percentile sorts its input");

  Report rep;
  rep.addPercentile("x_p99", percentile(iota(500), 99), "us");
  const Report::Metric* m = rep.find("x_p99");
  expect(m != nullptr && !m->present, "an unreportable percentile is absent");
  expect(!rep.printJson(true, 1, 0, {"x_p99"}),
         "an absent metric cannot enter the JSON line");
}

void testMetricNames() {
  for (const char* good : {"ops_per_s", "dht.kind.get", "9lives", "a-b.c_d"}) {
    expect(validMetricName(good), good);
  }
  const std::string tooLong(65, 'a');
  for (const std::string& bad :
       {std::string(), std::string("_lead"), std::string("has space"),
        std::string("\xc2\xb5s"), std::string("a/b"), tooLong}) {
    expect(!validMetricName(bad), "invalid metric name is rejected");
  }
  expect(validMetricName(std::string(64, 'a')), "64-char name is valid");
  for (const char* good : {"ms", "1/s", "%", "B/record", "ops/s", "count/op"}) {
    expect(validUnit(good), good);
  }
  for (const std::string& bad : {std::string(), std::string("\xc2\xb5s"),
                                 std::string("a b"), std::string(17, 'u')}) {
    expect(!validUnit(bad), "invalid unit is rejected");
  }
  Report rep;
  bool threw = false;
  try {
    rep.add("bad name", 1.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "Report::add rejects a bad name");
  rep.add("ok", 1.0, "s");
  threw = false;
  try {
    rep.add("ok", 2.0, "s");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "Report::add rejects a duplicate name");
}

void testOracle() {
  const auto data = mlight::workload::northeastDataset(4000, 11);
  mlight::index::Oracle brute;
  for (const auto& r : data) brute.insert(r);
  const GridOracle grid(data, 32);
  const auto queries = mlight::workload::uniformRangeQueries(60, 2, 0.01, 12);
  bool agree = true;
  for (const auto& q : queries) {
    agree = agree && grid.answer(q) == fingerprint(brute.rangeQuery(q));
  }
  expect(agree, "grid oracle equals index::Oracle");

  // The full path: a live index's answers match the oracle...
  mlight::dht::Network net(32, 1);
  mlight::core::MLightConfig cfg;
  cfg.cache.enabled = false;
  mlight::core::MLightIndex index(net, cfg);
  index.bulkLoad(data);
  bool matches = true;
  std::vector<mlight::index::Record> answer;
  for (const auto& q : queries) {
    answer = index.rangeQuery(q).records;
    matches = matches && fingerprint(answer) == grid.answer(q);
  }
  expect(matches, "index answers match the oracle");

  // ...and planted wrong answers do not.
  const auto& q = queries.front();
  auto truth = brute.rangeQuery(q);
  expect(truth.size() >= 2, "planted-answer query is non-trivial");
  const AnswerPrint expected = grid.answer(q);
  auto missing = truth;
  missing.pop_back();
  expect(!(fingerprint(missing) == expected), "a dropped record is caught");
  auto swapped = truth;
  swapped.back().id += 1000000;
  expect(!(fingerprint(swapped) == expected), "a wrong record id is caught");
  auto duplicated = missing;
  duplicated.push_back(duplicated.front());
  expect(!(fingerprint(duplicated) == expected),
         "a duplicate replacing a record is caught");
  expect(!(fingerprint({}) == expected), "an empty answer is caught");
}

}  // namespace

int runSelfTests() {
  failures = 0;
  testPercentiles();
  testMetricNames();
  testOracle();
  return failures;
}

}  // namespace perfbench
