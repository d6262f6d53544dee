#ifndef CLYDESDALE_PERFBENCH_BENCH_STATS_H_
#define CLYDESDALE_PERFBENCH_BENCH_STATS_H_

// The benchmark's own arithmetic: the percentile rule for reported
// latencies, span self time, and the metric table a run must fill. Kept
// free of engine headers so bench_stats_test can check it in isolation.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile, so the
/// percentile is backed by more than a handful of slow queries.
inline constexpr size_t kMinTailSamples = 10;

/// The highest whole percentile of `n` samples that leaves at least
/// `min_tail` samples above it under the nearest-rank rule, or -1 when `n`
/// is too small for any. 100 samples support p90; 99 support only p89.
int HighestSupportedPercentile(size_t n, size_t min_tail = kMinTailSamples);

/// Nearest-rank percentile: the sample at rank ceil(p/100 * n), 1-based.
/// `p` is in (0, 100]; `samples` must be non-empty.
double NearestRankPercentile(std::vector<double> samples, double p);

/// Throughput that a burst of outside load during part of a run does not
/// move: the completions are cut into consecutive passes of `pass` queries
/// (by completion time, seconds from the window start), each pass's rate
/// is its successful queries over its duration, and the median rate is
/// returned. A trailing partial pass is ignored; 0 without a whole pass.
double MedianPassRate(std::vector<std::pair<double, bool>> completions,
                      size_t pass);

/// A span on the benchmark's merged timeline. `parent` indexes the same
/// vector (-1 for a root); times are microseconds on one clock.
struct TimedSpan {
  std::string name;
  std::string layer;
  int64_t query = -1;  ///< Id shared by every span of one query.
  int parent = -1;
  int64_t start_us = 0;
  int64_t end_us = 0;
};

/// Length of the union of `intervals` ([start, end) pairs), each clipped to
/// [lo, hi).
int64_t CoveredMicros(std::vector<std::pair<int64_t, int64_t>> intervals,
                      int64_t lo, int64_t hi);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child reaching past its parent is clipped to the parent.
std::vector<int64_t> SelfMicros(const std::vector<TimedSpan>& spans);

/// One reported metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metric values of one run, keyed by name.
using MetricValues = std::map<std::string, double>;

/// Empty when every metric of `table` has a finite value in `values` and
/// `values` holds nothing else; otherwise one line per problem.
std::string CheckMetrics(const std::vector<MetricSpec>& table,
                         const MetricValues& values);

/// The run's result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}, values printed with
/// every significant digit.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<MetricSpec>& table,
                       const MetricValues& values);

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_BENCH_STATS_H_
