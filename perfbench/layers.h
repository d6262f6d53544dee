#ifndef CLYDESDALE_PERFBENCH_LAYERS_H_
#define CLYDESDALE_PERFBENCH_LAYERS_H_

// The benchmark's view of the program's layers, taken from outside: its
// own spans around each call into a layer, timed direct calls to the
// layers' public functions, and the per-layer figures read from the
// counters, task reports and spans a JobReport already carries.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/clydesdale.h"
#include "core/star_schema.h"
#include "mapreduce/engine.h"

namespace perfbench {

/// In-memory span log on one steady clock, shared by client threads.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index.
  int Begin(std::string name, std::string layer, int64_t query, int parent);
  void End(int index);
  int64_t StartOf(int index);
  /// Adds the spans of one executed job, placed so the job span starts at
  /// `start_us`; returns the end of the job span. The job's own nesting is
  /// recovered from span categories, task ids and containment.
  int64_t AddJob(const clydesdale::mr::JobReport& report, int64_t query,
                 int parent, int64_t start_us);
  /// Every span so far. Call once the client threads have finished.
  const std::vector<TimedSpan>& spans() const { return spans_; }

 private:
  int64_t NowMicros() const;

  const std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::vector<TimedSpan> spans_;
};

/// The outside-timed layer calls for one query, in the shape the engine
/// makes them for a CIF fact scan.
struct ProbeTimes {
  int64_t splits = 0;
  double list_splits_ms = 0;       ///< storage::ListTableSplits
  double block_locations_us = 0;   ///< MiniDfs::BlockLocations, per split
  double open_us = 0;  ///< MiniDfs::Open of each projected column, per split
  double stat_us = 0;  ///< MiniDfs::Stat of each projected column, per split
  double build_ms = 0;  ///< DimHashTable::Build of each dimension, node 0
};

/// Times the layer calls of `spec` against the CIF fact of `star`,
/// recording one span per layer under `parent`.
clydesdale::Result<ProbeTimes> ProbeQuery(
    clydesdale::mr::MrCluster* cluster, const clydesdale::core::StarSchema& star,
    const clydesdale::core::StarQuerySpec& spec, SpanLog* log, int64_t query,
    int parent);

/// Rows per second of one single-threaded batch-reader pass over every
/// split of the CIF fact, projected to the flight-4 columns.
clydesdale::Result<double> ScanRowsPerSecond(
    clydesdale::mr::MrCluster* cluster, const clydesdale::core::StarSchema& star);

/// One query of the traced pass: its result and its span in the log.
struct TracedQuery {
  clydesdale::core::QueryResult result;
  int span = -1;
};

/// Prints Afrati et al.'s two cost parameters for each job of the first
/// traced run of every SSB template: the replication rate (map output over
/// map input bytes) and the largest reducer input.
void PrintJobCosts(const std::vector<TracedQuery>& traced, const SpanLog& log);

/// The per-layer metrics that come from job reports and spans (hdfs,
/// storage counters, core, mapreduce, stage jobs), per query of `traced`.
void AddReportMetrics(const std::vector<TracedQuery>& traced,
                      const SpanLog& log, MetricValues* out);

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_LAYERS_H_
