// Result helpers of the benchmark: percentile selection, metric naming
// rules, the metric table and the final JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile that is reported only when at least
/// kMinBeyond samples lie strictly above its rank: a p99 over 200
/// samples is the second-largest value, not a p99.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;
  bool ok = false;
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked strictly above it
};

/// Percentile `pct` (0 < pct < 100) of `values` (taken by value: sorted
/// in place).  ok == false when fewer than kMinBeyond samples lie beyond.
Percentile percentile(std::vector<double> values, double pct);

/// Metric names: a letter or digit first, then letters, digits, '_',
/// '.' and '-', at most 64 in all.
bool validMetricName(std::string_view name);
/// Units: 1..16 of letters, digits, '_', '/', '%', '.' and '-'.
bool validUnit(std::string_view unit);

/// Process peak resident memory so far, MB.
double peakRssMb();

/// An ordered set of named metrics: printed as a table (with sample
/// counts) and as the JSON line the benchmark ends with.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  ///< 0 = not a sampled statistic
    bool present = true;      ///< false = "n/a" (op type absent)
    std::string note;
  };

  /// Adds a metric; throws std::invalid_argument on a name or unit
  /// outside the charsets above, or on a duplicate name.
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0, std::string note = {});
  /// Adds a percentile metric; an unreportable percentile is recorded
  /// as absent with the reason.
  void addPercentile(std::string name, const Percentile& p, std::string unit);
  /// Records that a metric does not apply to this workload.
  void addAbsent(std::string name, std::string unit, std::string why);

  const Metric* find(std::string_view name) const;
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// One "metric <name> <value> <unit> n=<samples>" line per metric.
  void printTable(const char* prefix) const;

  /// The final JSON object over the metrics named in `keys` (in that
  /// order).  Returns false — printing nothing — when one is missing.
  bool printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::string>& keys) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
