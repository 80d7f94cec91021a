#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> values, double pct) {
  Percentile p;
  p.samples = values.size();
  if (values.empty() || pct <= 0.0 || pct >= 100.0) return p;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least pct% of the samples
  // at or below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  p.value = values[idx];
  p.beyond = values.size() - 1 - idx;
  p.ok = p.beyond >= Percentile::kMinBeyond;
  return p;
}

namespace {

bool isAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !isAlnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return isAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool validUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return isAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  if (!validMetricName(name)) {
    throw std::invalid_argument("bad metric name: " + name);
  }
  if (!validUnit(unit)) throw std::invalid_argument("bad unit: " + unit);
  if (find(name) != nullptr) {
    throw std::invalid_argument("duplicate metric: " + name);
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples,
                            true, std::move(note)});
}

void Report::addPercentile(std::string name, const Percentile& p,
                           std::string unit) {
  if (p.ok) {
    add(std::move(name), p.value, std::move(unit), p.samples);
    return;
  }
  addAbsent(std::move(name), std::move(unit),
            "only " + std::to_string(p.beyond) + " of " +
                std::to_string(p.samples) + " samples beyond the rank");
}

void Report::addAbsent(std::string name, std::string unit, std::string why) {
  add(std::move(name), 0.0, std::move(unit), 0, std::move(why));
  metrics_.back().present = false;
}

const Report::Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::printTable(const char* prefix) const {
  for (const Metric& m : metrics_) {
    if (!m.present) {
      std::printf("%s %-34s %16s %-8s (%s)\n", prefix, m.name.c_str(), "n/a",
                  m.unit.c_str(), m.note.c_str());
      continue;
    }
    std::printf("%s %-34s %16.6g %-8s", prefix, m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (!m.note.empty()) std::printf(" (%s)", m.note.c_str());
    std::printf("\n");
  }
}

bool Report::printJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<std::string>& keys) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Metric* m = find(keys[i]);
    if (m == nullptr || !m->present || !std::isfinite(m->value)) {
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m->value);
    if (i > 0) out += ", ";
    out += "\"" + m->name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return true;
}

}  // namespace perfbench
