#ifndef CLYDESDALE_MAPREDUCE_JOB_REPORT_H_
#define CLYDESDALE_MAPREDUCE_JOB_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hdfs/block.h"
#include "mapreduce/counters.h"
#include "obs/query_profile.h"
#include "obs/trace.h"

namespace clydesdale {
namespace mr {

/// Everything recorded about one executed task; the discrete-event cost
/// model replays these profiles at cluster scale.
struct TaskReport {
  int index = 0;
  /// Which attempt at this task produced the report (0 unless retried).
  int attempt = 0;
  bool is_map = true;
  hdfs::NodeId node = hdfs::kNoNode;
  /// Input bytes read from HDFS, split by locality.
  uint64_t hdfs_local_bytes = 0;
  uint64_t hdfs_remote_bytes = 0;
  /// Bytes read from the node-local disk (dimension replicas, dist cache).
  uint64_t local_disk_bytes = 0;
  uint64_t input_records = 0;
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;
  /// Reduce only: shuffle input, split by map-task node locality.
  uint64_t shuffle_bytes_total = 0;
  uint64_t shuffle_bytes_remote = 0;
  /// True when the task ran on a node holding its input locally.
  bool data_local = false;
  /// Constituent storage splits processed (multi-splits > 1).
  int num_constituents = 1;
  double wall_seconds = 0;
};

/// The outcome of one MapReduce job.
struct JobReport {
  std::string job_name;
  int num_nodes = 0;
  std::vector<TaskReport> map_tasks;
  std::vector<TaskReport> reduce_tasks;
  Counters counters;
  /// Spans drained from the job's TraceRecorder, sorted by start time.
  /// Empty unless the job ran with kConfTraceEnabled.
  std::vector<obs::SpanRecord> spans;
  /// Per-operator execution profile merged tree-structurally across task
  /// attempts (obs/query_profile.h). Empty unless kConfProfileEnabled.
  obs::QueryProfile profile;
  double wall_seconds = 0;

  uint64_t TotalMapInputBytes() const;
  uint64_t TotalShuffleBytes() const;
  int DataLocalMaps() const;
  /// Exact nearest-rank p50/p95/p99 of the map tasks' wall times and of the
  /// reduce tasks' shuffle input, one "<what> p50/p95/p99=a/b/c<unit>"
  /// entry each (absent when the job has no such tasks).
  std::vector<std::string> TaskPercentiles() const;
  std::string Summary() const;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_JOB_REPORT_H_
