#include "mapreduce/counters.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/mem_tracker.h"
#include "obs/query_profile.h"
#include "storage/scan_spec.h"

namespace clydesdale {
namespace mr {

std::vector<std::string> StandardCounterNames() {
  return {
      kCounterHdfsBytesReadLocal,  kCounterHdfsBytesReadRemote,
      kCounterHdfsBytesWritten,    kCounterLocalBytesRead,
      kCounterMapInputRecords,     kCounterMapOutputRecords,
      kCounterMapOutputBytes,      kCounterCombineInputRecords,
      kCounterCombineOutputRecords, kCounterReduceInputRecords,
      kCounterReduceInputGroups,   kCounterReduceOutputRecords,
      kCounterShuffleBytes,        kCounterShuffleBytesRemote,
      kCounterDataLocalMaps,       kCounterRackRemoteMaps,
      kCounterDistCacheBytes,      kCounterHdfsReadOps,
      kCounterHdfsReadMicros,      kCounterSchedPulls,
  };
}

std::vector<std::string> SituationalCounterNames() {
  return {
      kCounterCifBlocksSkipped,
      kCounterCifRowsPruned,
      kCounterCifBytesEncoded,
      kCounterCifBytesRaw,
      kCounterCifBlocksPlain,
      kCounterCifBlocksRle,
      kCounterCifBlocksBitpack,
      kCounterCifBlocksFor,
      kCounterCifBlocksDict,
      kCounterCifBlocksDictRle,
      kCounterProfOperators,
      kCounterProfTasksProfiled,
      kCounterMemJobPeakBytes,
      kCounterMemNodePeakBytes,
      kCounterCacheDimHits,
      kCounterCacheDimMisses,
      kCounterCacheDimEvictions,
      kCounterCacheBytes,
  };
}

void Counters::Add(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += delta;
}

void Counters::Set(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

int64_t Counters::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Counters::MergeFrom(const Counters& other) {
  const auto snapshot = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : snapshot) values_[name] += value;
}

std::map<std::string, int64_t> Counters::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

std::string Counters::ToString() const {
  std::string out;
  for (const auto& [name, value] : Snapshot()) {
    out += StrCat(name, "=", value, "\n");
  }
  return out;
}

void AddCifScanCounters(const storage::ScanStats& stats, Counters* counters) {
  auto add = [&](const char* name, uint64_t v) {
    if (v > 0) counters->Add(name, static_cast<int64_t>(v));
  };
  add(kCounterCifBlocksSkipped, stats.blocks_skipped);
  add(kCounterCifRowsPruned, stats.rows_pruned);
  add(kCounterCifBytesEncoded, stats.bytes_encoded);
  add(kCounterCifBytesRaw, stats.bytes_raw);
  // Indexed by the storage/column_codec.h encoding tags.
  static constexpr const char* kBlockCounters[6] = {
      kCounterCifBlocksPlain, kCounterCifBlocksRle,  kCounterCifBlocksBitpack,
      kCounterCifBlocksFor,   kCounterCifBlocksDict, kCounterCifBlocksDictRle,
  };
  for (int e = 0; e < 6; ++e) {
    add(kBlockCounters[e], stats.blocks_by_encoding[e]);
  }
}

void AddQueryProfileCounters(const obs::QueryProfile& profile,
                             Counters* counters) {
  if (profile.empty()) return;
  counters->Add(kCounterProfOperators,
                static_cast<int64_t>(obs::NumProfileOperators(profile)));
  uint64_t tasks = 0;
  for (const obs::OperatorProfile& root : profile.roots) tasks += root.tasks;
  counters->Add(kCounterProfTasksProfiled, static_cast<int64_t>(tasks));
}

void AddMemTrackerCounters(
    const std::vector<std::shared_ptr<obs::MemTracker>>& job_trackers,
    Counters* counters) {
  int64_t job_peak = 0;
  int64_t node_peak = 0;
  for (const auto& tracker : job_trackers) {
    if (tracker == nullptr) continue;
    job_peak += tracker->peak();
    node_peak = std::max(node_peak, tracker->peak());
  }
  if (job_peak > 0) counters->Add(kCounterMemJobPeakBytes, job_peak);
  if (node_peak > 0) counters->Add(kCounterMemNodePeakBytes, node_peak);
}

void AddDimCacheCounters(int64_t hits, int64_t misses, int64_t evictions,
                         int64_t resident_bytes, Counters* counters) {
  if (hits > 0) counters->Add(kCounterCacheDimHits, hits);
  if (misses > 0) counters->Add(kCounterCacheDimMisses, misses);
  if (evictions > 0) counters->Add(kCounterCacheDimEvictions, evictions);
  // Footprint, not a flow: the latest observation wins across tasks/stages.
  if (resident_bytes >= 0) counters->Set(kCounterCacheBytes, resident_bytes);
}

void AddScanDetail(const storage::ScanStats& stats, obs::OperatorProfile* node) {
  node->bytes_decoded += stats.bytes_encoded;
  node->bytes_raw += stats.bytes_raw;
  node->blocks_skipped += stats.blocks_skipped;
  node->rows_pruned += stats.rows_pruned;
  for (int i = 0; i < 6; ++i) {
    node->blocks_by_encoding[i] += stats.blocks_by_encoding[i];
  }
}

obs::OperatorProfile ScanProfileNode(const std::string& name,
                                     const storage::ScanStats& stats,
                                     uint64_t wall_ns, uint64_t cpu_ns) {
  obs::OperatorProfile scan;
  scan.name = name;
  scan.kind = "scan";
  // Every row the scan covered was either handed out or pruned.
  scan.rows_in = stats.rows_read + stats.rows_pruned;
  scan.rows_out = stats.rows_read;
  scan.wall_ns = wall_ns;
  scan.wall_max_ns = wall_ns;
  scan.cpu_ns = cpu_ns;
  AddScanDetail(stats, &scan);
  // The reader's scratch and its batch are the scan's whole footprint, and
  // it holds them until it is dropped, so current == peak here; the profile
  // merge (max) keeps the largest single-task value.
  scan.mem_current_bytes = stats.mem_peak_bytes;
  scan.mem_peak_bytes = stats.mem_peak_bytes;
  scan.tasks = 1;
  return scan;
}

}  // namespace mr
}  // namespace clydesdale
