#include "mapreduce/job_report.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace clydesdale {
namespace mr {

uint64_t JobReport::TotalMapInputBytes() const {
  uint64_t total = 0;
  for (const TaskReport& t : map_tasks) {
    total += t.hdfs_local_bytes + t.hdfs_remote_bytes;
  }
  return total;
}

uint64_t JobReport::TotalShuffleBytes() const {
  uint64_t total = 0;
  for (const TaskReport& t : reduce_tasks) total += t.shuffle_bytes_total;
  return total;
}

int JobReport::DataLocalMaps() const {
  int n = 0;
  for (const TaskReport& t : map_tasks) n += t.data_local ? 1 : 0;
  return n;
}

namespace {

/// "<label> p50/p95/p99=a/b/c<unit>" over `values`: nearest-rank, so every
/// figure is one of the values.
std::string NearestRankTriple(std::vector<uint64_t> values, const char* label,
                              const char* unit) {
  std::sort(values.begin(), values.end());
  auto rank = [&values](double q) {
    const auto r = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<size_t>(r, 1) - 1];
  };
  return StrCat(label, " p50/p95/p99=", rank(0.50), "/", rank(0.95), "/",
                rank(0.99), unit);
}

}  // namespace

std::vector<std::string> JobReport::TaskPercentiles() const {
  std::vector<std::string> out;
  if (!map_tasks.empty()) {
    std::vector<uint64_t> micros;
    for (const TaskReport& t : map_tasks) {
      micros.push_back(
          static_cast<uint64_t>(std::llround(t.wall_seconds * 1e6)));
    }
    out.push_back(NearestRankTriple(std::move(micros), "map", "us"));
  }
  if (!reduce_tasks.empty()) {
    std::vector<uint64_t> bytes;
    for (const TaskReport& t : reduce_tasks) {
      bytes.push_back(t.shuffle_bytes_total);
    }
    out.push_back(NearestRankTriple(std::move(bytes), "reduce shuffle", "B"));
  }
  return out;
}

std::string JobReport::Summary() const {
  std::string out = StrCat(job_name, ": ", map_tasks.size(), " map / ",
                           reduce_tasks.size(), " reduce tasks, input ",
                           HumanBytes(TotalMapInputBytes()), ", shuffle ",
                           HumanBytes(TotalShuffleBytes()), ", ",
                           DataLocalMaps(), " data-local maps");
  for (const std::string& entry : TaskPercentiles()) {
    out += StrCat(", ", entry);
  }
  return StrCat(out, ", ", FormatDouble(wall_seconds, 3), "s");
}

}  // namespace mr
}  // namespace clydesdale
