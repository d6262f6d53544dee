#ifndef CLYDESDALE_MAPREDUCE_JOB_TRACE_H_
#define CLYDESDALE_MAPREDUCE_JOB_TRACE_H_

#include <string>

#include "common/status.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/job_report.h"

namespace clydesdale {
namespace mr {

// Tracing configuration (JobConf string properties). Engines forward these
// from their options; see ClydesdaleOptions / HiveOptions.
/// "true" turns span recording on for the job (counters and task wall times
/// are always maintained; only span records are gated).
inline constexpr const char kConfTraceEnabled[] = "obs.trace.enabled";
/// When set (and tracing is on), the engine writes
/// `<dir>/<job_name>-<instance>.trace.json` (Chrome trace_event format) and
/// `<dir>/<job_name>-<instance>.timeline.txt` next to the job's output.
inline constexpr const char kConfTraceDir[] = "obs.trace.dir";
/// "true" turns the per-operator profiler on (JobReport::profile). When
/// kConfTraceDir is also set, the engine writes the EXPLAIN ANALYZE report
/// as `<dir>/<job_name>-<instance>.profile.{json,txt}`.
inline constexpr const char kConfProfileEnabled[] = "obs.profile.enabled";

/// Forwards an engine's observability options (span tracing, the trace and
/// profile output directory, the profiler) into one stage job's conf. Every
/// engine's stage jobs go through this, so their traces stay comparable.
void ApplyObsConf(bool trace, const std::string& trace_dir, bool profile,
                  JobConf* conf);

/// The straggler chain of one job: the slowest map feeds the shuffle
/// barrier, which gates the slowest reduce (the classic MapReduce
/// critical path). Skew = slowest / mean task time per phase; a skew near
/// 1 means the phase is balanced, large skew names the straggler.
struct CriticalPathReport {
  double setup_seconds = 0;       ///< pre-map work (splits, cache, open)
  double map_phase_seconds = 0;   ///< start of first map to last map done
  double reduce_phase_seconds = 0;
  double commit_seconds = 0;
  /// Pipelined shuffle: how long reducers were fetching while maps still
  /// ran (the derived "shuffle-overlap" span). 0 = hard barrier.
  double shuffle_overlap_seconds = 0;
  double wall_seconds = 0;

  int slowest_map = -1;  ///< task index, -1 when the job had no maps
  hdfs::NodeId slowest_map_node = hdfs::kNoNode;
  double slowest_map_seconds = 0;
  double map_skew = 0;

  int slowest_reduce = -1;  ///< -1 for map-only jobs
  hdfs::NodeId slowest_reduce_node = hdfs::kNoNode;
  double slowest_reduce_seconds = 0;
  double reduce_skew = 0;

  /// "m-3@node1 (1.2s, skew 1.8) -> shuffle barrier -> r-0@node2 ...".
  std::string ToString() const;
};

/// Derives the straggler chain and per-phase skew from a finished report.
/// Phase durations come from the report's phase spans when present and
/// fall back to per-task wall times otherwise.
CriticalPathReport CriticalPath(const JobReport& report);

/// Human-readable per-job timeline: one line per phase/task span with a
/// proportional bar, plus the task percentiles and the critical path.
std::string TimelineText(const JobReport& report);

/// Writes `<dir>/<base>.trace.json` + `<dir>/<base>.timeline.txt` where
/// `base` is "<job_name>-<instance>". Used by the engine when
/// kConfTraceDir is set; callers may also invoke it directly.
Status WriteJobTrace(const JobReport& report, const std::string& dir,
                     int64_t instance);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_JOB_TRACE_H_
