#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int HighestSupportedPercentile(size_t n, size_t min_tail) {
  if (n <= min_tail) return -1;
  // Nearest rank r = ceil(p n / 100) leaves n - r samples above; the
  // largest whole p with r <= n - min_tail is floor(100 (n - min_tail) / n).
  const int p = static_cast<int>((100 * (n - min_tail)) / n);
  return p >= 1 ? p : -1;
}

double NearestRankPercentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  // The epsilon keeps p n / 100 that is whole in exact arithmetic (90% of
  // 100) from rounding up to the next rank.
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double MedianPassRate(std::vector<std::pair<double, bool>> completions,
                      size_t pass) {
  std::sort(completions.begin(), completions.end());
  std::vector<double> rates;
  double pass_start = 0;
  for (size_t end = pass; end <= completions.size(); end += pass) {
    const double pass_end = completions[end - 1].first;
    const auto ok = std::count_if(
        completions.begin() + static_cast<std::ptrdiff_t>(end - pass),
        completions.begin() + static_cast<std::ptrdiff_t>(end),
        [](const auto& c) { return c.second; });
    if (pass_end > pass_start) {
      rates.push_back(static_cast<double>(ok) / (pass_end - pass_start));
    }
    pass_start = pass_end;
  }
  if (rates.empty()) return 0;
  std::sort(rates.begin(), rates.end());
  const size_t n = rates.size();
  return n % 2 == 1 ? rates[n / 2] : (rates[n / 2 - 1] + rates[n / 2]) / 2;
}

int64_t CoveredMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<int64_t> SelfMicros(const std::vector<TimedSpan>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const TimedSpan& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_us,
                                                              span.end_us);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const TimedSpan& span = spans[i];
    self[i] = span.end_us - span.start_us -
              CoveredMicros(std::move(children[i]), span.start_us,
                            span.end_us);
  }
  return self;
}

std::string CheckMetrics(const std::vector<MetricSpec>& table,
                         const MetricValues& values) {
  std::string problems;
  for (const MetricSpec& spec : table) {
    auto it = values.find(spec.name);
    if (it == values.end()) {
      problems += "missing metric " + spec.name + "\n";
    } else if (!std::isfinite(it->second)) {
      problems += "non-finite metric " + spec.name + "\n";
    }
  }
  for (const auto& [name, value] : values) {
    const bool known =
        std::any_of(table.begin(), table.end(),
                    [&](const MetricSpec& spec) { return spec.name == name; });
    if (!known) problems += "unexpected metric " + name + "\n";
  }
  return problems;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<MetricSpec>& table,
                       const MetricValues& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : table) {
    auto it = values.find(spec.name);
    if (it == values.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    json += first ? "" : ", ";
    json += "\"" + spec.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            spec.unit + "\"}";
    first = false;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
