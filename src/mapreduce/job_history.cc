#include "mapreduce/job_history.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <tuple>
#include <utility>

#include "common/strings.h"
#include "obs/json_util.h"
#include "obs/query_profile.h"

namespace clydesdale {
namespace mr {

namespace {

using obs::JsonDouble;
using obs::JsonQuote;

/// One parsed flat JSON object: string/number/bool members plus at most one
/// level of nesting for the "counters" map. Numbers keep their raw token so
/// int64 and %.17g doubles both round-trip without loss.
struct HistoryEvent {
  std::map<std::string, std::string> strings;
  std::map<std::string, std::string> numbers;  // raw tokens
  std::map<std::string, bool> bools;
  std::map<std::string, int64_t> counters;

  const std::string* FindString(const std::string& key) const {
    auto it = strings.find(key);
    return it == strings.end() ? nullptr : &it->second;
  }
  int64_t Int(const std::string& key, int64_t fallback = 0) const {
    auto it = numbers.find(key);
    return it == numbers.end() ? fallback
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  double Double(const std::string& key, double fallback = 0) const {
    auto it = numbers.find(key);
    return it == numbers.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }
};

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\t')) ++(*pos);
}

bool ParseJsonString(std::string_view s, size_t* pos, std::string* out) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  ++(*pos);
  out->clear();
  while (*pos < s.size()) {
    char c = s[*pos];
    if (c == '"') {
      ++(*pos);
      return true;
    }
    if (c == '\\') {
      if (*pos + 1 >= s.size()) return false;
      char esc = s[*pos + 1];
      *pos += 2;
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (*pos + 4 > s.size()) return false;
          const std::string hex(s.substr(*pos, 4));
          *pos += 4;
          *out += static_cast<char>(std::strtol(hex.c_str(), nullptr, 16));
          break;
        }
        default:
          return false;
      }
      continue;
    }
    *out += c;
    ++(*pos);
  }
  return false;  // unterminated
}

bool ParseNumberToken(std::string_view s, size_t* pos, std::string* out) {
  out->clear();
  while (*pos < s.size()) {
    char c = s[*pos];
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
        c == 'e' || c == 'E') {
      *out += c;
      ++(*pos);
    } else {
      break;
    }
  }
  return !out->empty();
}

/// Parses `{"k":v,...}` where v is a string, number, true/false, or (one
/// level deep) an object of integer members. Tolerant of trailing content.
bool ParseEvent(std::string_view line, HistoryEvent* out) {
  size_t pos = 0;
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '{') return false;
  ++pos;
  while (true) {
    SkipSpace(line, &pos);
    if (pos < line.size() && line[pos] == '}') return true;
    std::string key;
    if (!ParseJsonString(line, &pos, &key)) return false;
    SkipSpace(line, &pos);
    if (pos >= line.size() || line[pos] != ':') return false;
    ++pos;
    SkipSpace(line, &pos);
    if (pos >= line.size()) return false;
    char c = line[pos];
    if (c == '"') {
      std::string value;
      if (!ParseJsonString(line, &pos, &value)) return false;
      out->strings[key] = std::move(value);
    } else if (c == 't' || c == 'f') {
      const bool value = (c == 't');
      pos += value ? 4 : 5;
      if (pos > line.size()) return false;
      out->bools[key] = value;
    } else if (c == '{') {
      ++pos;
      while (true) {
        SkipSpace(line, &pos);
        if (pos < line.size() && line[pos] == '}') {
          ++pos;
          break;
        }
        std::string nested_key, token;
        if (!ParseJsonString(line, &pos, &nested_key)) return false;
        SkipSpace(line, &pos);
        if (pos >= line.size() || line[pos] != ':') return false;
        ++pos;
        SkipSpace(line, &pos);
        if (!ParseNumberToken(line, &pos, &token)) return false;
        out->counters[nested_key] = std::strtoll(token.c_str(), nullptr, 10);
        SkipSpace(line, &pos);
        if (pos < line.size() && line[pos] == ',') ++pos;
      }
    } else {
      std::string token;
      if (!ParseNumberToken(line, &pos, &token)) return false;
      out->numbers[key] = std::move(token);
    }
    SkipSpace(line, &pos);
    if (pos < line.size() && line[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < line.size() && line[pos] == '}') return true;
    return false;
  }
}

/// Span categories must outlive the report (SpanRecord holds const char*),
/// so reconstructed spans map onto the same static literals the live
/// recorder uses.
const char* InternCategory(const std::string& category) {
  if (category == "overlap") return "overlap";
  if (category == "job") return "job";
  return "phase";
}

}  // namespace

std::string JobHistoryPath(int64_t instance) {
  return StrCat("/history/", instance, ".jsonl");
}

JobHistoryRecorder::JobHistoryRecorder(std::string job_name, int64_t instance)
    : job_name_(std::move(job_name)), instance_(instance) {}

void JobHistoryRecorder::Append(std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(line));
}

void JobHistoryRecorder::RecordJobSubmitted(int num_nodes, int num_maps,
                                            int num_reduces) {
  Append(StrCat("{\"event\":\"job_submitted\",\"t_us\":", NowMicros(),
                ",\"job\":", JsonQuote(job_name_),
                ",\"instance\":", instance_, ",\"num_nodes\":", num_nodes,
                ",\"num_maps\":", num_maps, ",\"num_reduces\":", num_reduces,
                "}"));
}

void JobHistoryRecorder::RecordAttemptRunning(bool is_map, int task,
                                              int attempt, int node) {
  Append(StrCat("{\"event\":\"attempt\",\"t_us\":", NowMicros(),
                ",\"state\":\"running\",\"kind\":\"",
                is_map ? "map" : "reduce", "\",\"task\":", task,
                ",\"attempt\":", attempt, ",\"node\":", node, "}"));
}

void JobHistoryRecorder::RecordAttemptFinished(const TaskReport& report,
                                               const char* state,
                                               const std::string& status_msg) {
  std::string line = StrCat(
      "{\"event\":\"attempt\",\"t_us\":", NowMicros(), ",\"state\":\"", state,
      "\",\"kind\":\"", report.is_map ? "map" : "reduce",
      "\",\"task\":", report.index, ",\"attempt\":", report.attempt,
      ",\"node\":", report.node);
  if (!status_msg.empty()) {
    line += StrCat(",\"status\":", JsonQuote(status_msg));
  }
  line += StrCat(
      ",\"hdfs_local_bytes\":", report.hdfs_local_bytes,
      ",\"hdfs_remote_bytes\":", report.hdfs_remote_bytes,
      ",\"local_disk_bytes\":", report.local_disk_bytes,
      ",\"input_records\":", report.input_records,
      ",\"output_records\":", report.output_records,
      ",\"output_bytes\":", report.output_bytes,
      ",\"shuffle_bytes_total\":", report.shuffle_bytes_total,
      ",\"shuffle_bytes_remote\":", report.shuffle_bytes_remote,
      ",\"data_local\":", report.data_local ? "true" : "false",
      ",\"num_constituents\":", report.num_constituents,
      ",\"wall_seconds\":", JsonDouble(report.wall_seconds), "}");
  Append(std::move(line));
}

void JobHistoryRecorder::RecordStraggler(const StragglerFlag& flag) {
  Append(StrCat("{\"event\":\"straggler\",\"t_us\":", NowMicros(),
                ",\"kind\":\"", flag.is_map ? "map" : "reduce",
                "\",\"task\":", flag.task, ",\"attempt\":", flag.attempt,
                ",\"node\":", flag.node, ",\"elapsed_us\":", flag.elapsed_us,
                ",\"median_us\":", flag.median_us, "}"));
}

void JobHistoryRecorder::RecordCountersSnapshot(const std::string& label,
                                                const Counters& counters) {
  std::string line = StrCat("{\"event\":\"counters\",\"t_us\":", NowMicros(),
                            ",\"label\":", JsonQuote(label), ",\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : counters.Snapshot()) {
    if (!first) line += ",";
    first = false;
    line += StrCat(JsonQuote(name), ":", value);
  }
  line += "}}";
  Append(std::move(line));
}

void JobHistoryRecorder::RecordPhase(const std::string& name,
                                     const std::string& category,
                                     int64_t start_us, int64_t dur_us) {
  Append(StrCat("{\"event\":\"phase\",\"name\":", JsonQuote(name),
                ",\"category\":", JsonQuote(category),
                ",\"start_us\":", start_us, ",\"dur_us\":", dur_us, "}"));
}

void JobHistoryRecorder::RecordJobFinished(const Status& status,
                                           const JobReport& report) {
  RecordCountersSnapshot("final", report.counters);
  // Per-operator profile, flattened pre-order with '>'-joined paths: one
  // event per node plus the attempt-span envelope, enough for
  // ReconstructJobReport to rebuild the exact tree (wall_seconds is
  // recovered from the job_finished line).
  if (!report.profile.empty()) {
    for (const obs::FlatProfileNode& flat :
         obs::FlattenProfile(report.profile)) {
      const obs::OperatorProfile& n = *flat.node;
      std::string line =
          StrCat("{\"event\":\"profile\",\"path\":", JsonQuote(flat.path),
                 ",\"kind\":", JsonQuote(n.kind), ",\"rows_in\":", n.rows_in,
                 ",\"rows_out\":", n.rows_out, ",\"batches\":", n.batches,
                 ",\"wall_ns\":", n.wall_ns, ",\"wall_max_ns\":", n.wall_max_ns,
                 ",\"cpu_ns\":", n.cpu_ns, ",\"bytes_decoded\":",
                 n.bytes_decoded, ",\"bytes_raw\":", n.bytes_raw,
                 ",\"blocks_skipped\":", n.blocks_skipped,
                 ",\"rows_pruned\":", n.rows_pruned);
      for (int i = 0; i < 6; ++i) {
        line += StrCat(",\"enc", i, "\":", n.blocks_by_encoding[i]);
      }
      line += StrCat(",\"mem_current_bytes\":", n.mem_current_bytes,
                     ",\"mem_peak_bytes\":", n.mem_peak_bytes,
                     ",\"tasks\":", n.tasks, "}");
      Append(std::move(line));
    }
    Append(StrCat("{\"event\":\"profile_span\",\"first_start_us\":",
                  report.profile.first_start_us,
                  ",\"last_end_us\":", report.profile.last_end_us, "}"));
  }
  Append(StrCat("{\"event\":\"job_finished\",\"t_us\":", NowMicros(),
                ",\"ok\":", status.ok() ? "true" : "false",
                ",\"status\":", JsonQuote(status.ToString()),
                ",\"job\":", JsonQuote(report.job_name),
                ",\"num_nodes\":", report.num_nodes,
                ",\"wall_seconds\":", JsonDouble(report.wall_seconds), "}"));
}

size_t JobHistoryRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string JobHistoryRecorder::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& event : events_) {
    out += event;
    out += '\n';
  }
  return out;
}

Status WriteJobHistory(hdfs::LocalStore* store,
                       const JobHistoryRecorder& recorder) {
  const std::string doc = recorder.Serialize();
  return store->Write(JobHistoryPath(recorder.instance()),
                      std::vector<uint8_t>(doc.begin(), doc.end()));
}

Result<std::string> ReadJobHistory(hdfs::LocalStore* store, int64_t instance) {
  auto bytes = store->Read(JobHistoryPath(instance));
  if (!bytes.ok()) return bytes.status();
  const hdfs::BlockBuffer& buffer = *bytes;  // shared_ptr<const vector<u8>>
  return std::string(buffer->begin(), buffer->end());
}

Result<JobReport> ReconstructJobReport(std::string_view jsonl) {
  JobReport report;
  bool saw_job_event = false;
  size_t line_no = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    const std::string_view line = jsonl.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    HistoryEvent event;
    if (!ParseEvent(line, &event)) {
      return Status::InvalidArgument(
          StrCat("job history: malformed event at line ", line_no));
    }
    const std::string* kind = event.FindString("event");
    if (kind == nullptr) {
      return Status::InvalidArgument(
          StrCat("job history: event without type at line ", line_no));
    }
    if (*kind == "job_submitted") {
      saw_job_event = true;
      if (const std::string* job = event.FindString("job")) {
        report.job_name = *job;
      }
      report.num_nodes = static_cast<int>(event.Int("num_nodes"));
    } else if (*kind == "attempt") {
      const std::string* state = event.FindString("state");
      if (state == nullptr || *state != "succeeded") continue;
      TaskReport task;
      const std::string* task_kind = event.FindString("kind");
      task.is_map = (task_kind == nullptr || *task_kind == "map");
      task.index = static_cast<int>(event.Int("task"));
      task.attempt = static_cast<int>(event.Int("attempt"));
      task.node = static_cast<hdfs::NodeId>(event.Int("node"));
      task.hdfs_local_bytes = event.Int("hdfs_local_bytes");
      task.hdfs_remote_bytes = event.Int("hdfs_remote_bytes");
      task.local_disk_bytes = event.Int("local_disk_bytes");
      task.input_records = event.Int("input_records");
      task.output_records = event.Int("output_records");
      task.output_bytes = event.Int("output_bytes");
      task.shuffle_bytes_total = event.Int("shuffle_bytes_total");
      task.shuffle_bytes_remote = event.Int("shuffle_bytes_remote");
      auto data_local = event.bools.find("data_local");
      task.data_local = data_local != event.bools.end() && data_local->second;
      task.num_constituents = static_cast<int>(event.Int("num_constituents", 1));
      task.wall_seconds = event.Double("wall_seconds");
      (task.is_map ? report.map_tasks : report.reduce_tasks)
          .push_back(std::move(task));
    } else if (*kind == "counters") {
      // Snapshots are cumulative; the last one ("final") wins.
      Counters counters;
      for (const auto& [name, value] : event.counters) {
        counters.Set(name, value);
      }
      report.counters = std::move(counters);
    } else if (*kind == "phase") {
      obs::SpanRecord span;
      if (const std::string* name = event.FindString("name")) {
        span.name = *name;
      }
      const std::string* category = event.FindString("category");
      span.category = InternCategory(category == nullptr ? "" : *category);
      span.start_us = event.Int("start_us");
      span.dur_us = event.Int("dur_us");
      report.spans.push_back(std::move(span));
    } else if (*kind == "profile") {
      const std::string* path = event.FindString("path");
      if (path == nullptr) {
        return Status::InvalidArgument(StrCat(
            "job history: profile event without path at line ", line_no));
      }
      obs::OperatorProfile* node =
          obs::EnsureProfilePath(&report.profile, *path);
      if (const std::string* op_kind = event.FindString("kind")) {
        node->kind = *op_kind;
      }
      node->rows_in = static_cast<uint64_t>(event.Int("rows_in"));
      node->rows_out = static_cast<uint64_t>(event.Int("rows_out"));
      node->batches = static_cast<uint64_t>(event.Int("batches"));
      node->wall_ns = static_cast<uint64_t>(event.Int("wall_ns"));
      node->wall_max_ns = static_cast<uint64_t>(event.Int("wall_max_ns"));
      node->cpu_ns = static_cast<uint64_t>(event.Int("cpu_ns"));
      node->bytes_decoded = static_cast<uint64_t>(event.Int("bytes_decoded"));
      node->bytes_raw = static_cast<uint64_t>(event.Int("bytes_raw"));
      node->blocks_skipped =
          static_cast<uint64_t>(event.Int("blocks_skipped"));
      node->rows_pruned = static_cast<uint64_t>(event.Int("rows_pruned"));
      for (int i = 0; i < 6; ++i) {
        node->blocks_by_encoding[i] =
            static_cast<uint64_t>(event.Int(StrCat("enc", i)));
      }
      node->mem_current_bytes =
          static_cast<uint64_t>(event.Int("mem_current_bytes"));
      node->mem_peak_bytes =
          static_cast<uint64_t>(event.Int("mem_peak_bytes"));
      node->tasks = static_cast<uint64_t>(event.Int("tasks"));
    } else if (*kind == "profile_span") {
      report.profile.first_start_us = event.Int("first_start_us");
      report.profile.last_end_us = event.Int("last_end_us");
    } else if (*kind == "job_finished") {
      saw_job_event = true;
      if (const std::string* job = event.FindString("job")) {
        report.job_name = *job;
      }
      if (event.numbers.count("num_nodes")) {
        report.num_nodes = static_cast<int>(event.Int("num_nodes"));
      }
      report.wall_seconds = event.Double("wall_seconds");
    }
    // "straggler" and "running" transitions carry no report state.
  }
  if (!saw_job_event) {
    return Status::InvalidArgument("job history: no job-level events");
  }
  auto by_task = [](const TaskReport& a, const TaskReport& b) {
    return std::tie(a.index, a.attempt) < std::tie(b.index, b.attempt);
  };
  std::sort(report.map_tasks.begin(), report.map_tasks.end(), by_task);
  std::sort(report.reduce_tasks.begin(), report.reduce_tasks.end(), by_task);
  std::sort(report.spans.begin(), report.spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  // The live profile carries the job wall clock (stamped at commit); the
  // reconstructed one recovers it from the job_finished event.
  report.profile.wall_seconds = report.wall_seconds;
  return report;
}

}  // namespace mr
}  // namespace clydesdale
