#include "mapreduce/job_trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "obs/chrome_trace.h"

namespace clydesdale {
namespace mr {

namespace {

/// Slowest task + skew (max / mean wall time) over one phase's tasks.
struct PhaseSkew {
  int slowest = -1;
  hdfs::NodeId slowest_node = hdfs::kNoNode;
  double slowest_seconds = 0;
  double skew = 0;
};

PhaseSkew ComputeSkew(const std::vector<TaskReport>& tasks) {
  PhaseSkew out;
  if (tasks.empty()) return out;
  double total = 0;
  for (const TaskReport& t : tasks) {
    total += t.wall_seconds;
    if (t.wall_seconds > out.slowest_seconds) {
      out.slowest_seconds = t.wall_seconds;
      out.slowest = t.index;
      out.slowest_node = t.node;
    }
  }
  const double mean = total / static_cast<double>(tasks.size());
  out.skew = mean > 0 ? out.slowest_seconds / mean : 0;
  return out;
}

/// Duration (seconds) of the first phase-category span named `name`, or
/// `fallback` when the report carries no spans (tracing was off).
double PhaseSeconds(const JobReport& report, const char* name,
                    double fallback) {
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name == name) {
      return static_cast<double>(span.dur_us) * 1e-6;
    }
  }
  return fallback;
}

}  // namespace

void ApplyObsConf(bool trace, const std::string& trace_dir, bool profile,
                  JobConf* conf) {
  if (trace) conf->SetBool(kConfTraceEnabled, true);
  if (!trace_dir.empty()) conf->Set(kConfTraceDir, trace_dir);
  if (profile) conf->SetBool(kConfProfileEnabled, true);
}

CriticalPathReport CriticalPath(const JobReport& report) {
  CriticalPathReport out;
  out.wall_seconds = report.wall_seconds;

  const PhaseSkew map_skew = ComputeSkew(report.map_tasks);
  out.slowest_map = map_skew.slowest;
  out.slowest_map_node = map_skew.slowest_node;
  out.slowest_map_seconds = map_skew.slowest_seconds;
  out.map_skew = map_skew.skew;

  const PhaseSkew reduce_skew = ComputeSkew(report.reduce_tasks);
  out.slowest_reduce = reduce_skew.slowest;
  out.slowest_reduce_node = reduce_skew.slowest_node;
  out.slowest_reduce_seconds = reduce_skew.slowest_seconds;
  out.reduce_skew = reduce_skew.skew;

  out.setup_seconds = PhaseSeconds(report, "setup", 0);
  out.map_phase_seconds =
      PhaseSeconds(report, "map-phase", map_skew.slowest_seconds);
  out.reduce_phase_seconds =
      PhaseSeconds(report, "reduce-phase", reduce_skew.slowest_seconds);
  out.commit_seconds = PhaseSeconds(report, "commit", 0);
  out.shuffle_overlap_seconds = PhaseSeconds(report, "shuffle-overlap", 0);
  return out;
}

std::string CriticalPathReport::ToString() const {
  std::string out = StrCat("critical path (", FormatDouble(wall_seconds, 3),
                           "s wall): setup ", FormatDouble(setup_seconds, 3),
                           "s -> ");
  if (slowest_map >= 0) {
    out += StrCat("m-", slowest_map, "@node", slowest_map_node, " (",
                  FormatDouble(slowest_map_seconds, 3), "s, skew ",
                  FormatDouble(map_skew, 2), ")");
  } else {
    out += "no maps";
  }
  if (slowest_reduce >= 0) {
    // "shuffle overlap" replaces "shuffle barrier" when reducers were
    // already fetching during the map phase (pipelined shuffle).
    out += shuffle_overlap_seconds > 0
               ? StrCat(" -> shuffle overlap ",
                        FormatDouble(shuffle_overlap_seconds, 3), "s -> r-",
                        slowest_reduce, "@node", slowest_reduce_node, " (",
                        FormatDouble(slowest_reduce_seconds, 3), "s, skew ",
                        FormatDouble(reduce_skew, 2), ")")
               : StrCat(" -> shuffle barrier -> r-", slowest_reduce, "@node",
                        slowest_reduce_node, " (",
                        FormatDouble(slowest_reduce_seconds, 3), "s, skew ",
                        FormatDouble(reduce_skew, 2), ")");
  } else {
    out += " -> map-only";
  }
  out += StrCat(" -> commit ", FormatDouble(commit_seconds, 3), "s");
  return out;
}

std::string TimelineText(const JobReport& report) {
  std::ostringstream out;
  out << report.job_name << " timeline ("
      << FormatDouble(report.wall_seconds, 3) << "s wall, "
      << report.map_tasks.size() << " map / " << report.reduce_tasks.size()
      << " reduce)\n";

  if (!report.spans.empty()) {
    // Proportional bars over the job's span window. Only job/phase/task
    // spans get a line; stage spans would drown the output (they are in
    // the Chrome trace for drill-down).
    constexpr int kBarWidth = 40;
    int64_t span_end = 1;
    for (const obs::SpanRecord& s : report.spans) {
      span_end = std::max(span_end, s.end_us());
    }
    for (const obs::SpanRecord& s : report.spans) {
      if (std::string_view(s.category) == "stage") continue;
      const int lead = static_cast<int>(s.start_us * kBarWidth / span_end);
      const int len = std::max<int>(
          1, static_cast<int>(s.dur_us * kBarWidth / span_end));
      out << "  [" << std::string(static_cast<size_t>(lead), ' ')
          << std::string(static_cast<size_t>(std::min(len, kBarWidth - lead)),
                         '#')
          << std::string(
                 static_cast<size_t>(std::max(0, kBarWidth - lead - len)), ' ')
          << "] " << std::string(static_cast<size_t>(2 * s.depth), ' ')
          << s.name;
      if (s.task >= 0) out << " #" << s.task;
      if (s.node >= 0) out << " @node" << s.node;
      out << " " << FormatDouble(static_cast<double>(s.dur_us) * 1e-6, 3)
          << "s\n";
    }
  }

  for (const std::string& entry : report.TaskPercentiles()) {
    out << "  " << entry << "\n";
  }
  out << "  " << CriticalPath(report).ToString() << "\n";
  return out.str();
}

Status WriteJobTrace(const JobReport& report, const std::string& dir,
                     int64_t instance) {
  const std::string base =
      StrCat(dir, "/", report.job_name, "-", instance);
  CLY_RETURN_IF_ERROR(obs::WriteChromeTrace(report.spans, report.job_name,
                                            StrCat(base, ".trace.json")));
  const std::string timeline_path = StrCat(base, ".timeline.txt");
  std::ofstream file(timeline_path, std::ios::trunc);
  if (!file) {
    return Status::IoError("cannot open timeline file: " + timeline_path);
  }
  file << TimelineText(report);
  return Status::OK();
}

}  // namespace mr
}  // namespace clydesdale
