#ifndef CLYDESDALE_MAPREDUCE_COUNTERS_H_
#define CLYDESDALE_MAPREDUCE_COUNTERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_profile.h"

namespace clydesdale {
namespace mr {

// Standard counter names (engine-maintained). Engines add their own.
inline constexpr const char kCounterHdfsBytesReadLocal[] = "HDFS_BYTES_READ_LOCAL";
inline constexpr const char kCounterHdfsBytesReadRemote[] = "HDFS_BYTES_READ_REMOTE";
inline constexpr const char kCounterHdfsBytesWritten[] = "HDFS_BYTES_WRITTEN";
inline constexpr const char kCounterLocalBytesRead[] = "LOCAL_DISK_BYTES_READ";
inline constexpr const char kCounterMapInputRecords[] = "MAP_INPUT_RECORDS";
inline constexpr const char kCounterMapOutputRecords[] = "MAP_OUTPUT_RECORDS";
inline constexpr const char kCounterMapOutputBytes[] = "MAP_OUTPUT_BYTES";
inline constexpr const char kCounterCombineInputRecords[] = "COMBINE_INPUT_RECORDS";
inline constexpr const char kCounterCombineOutputRecords[] = "COMBINE_OUTPUT_RECORDS";
inline constexpr const char kCounterReduceInputRecords[] = "REDUCE_INPUT_RECORDS";
inline constexpr const char kCounterReduceInputGroups[] = "REDUCE_INPUT_GROUPS";
inline constexpr const char kCounterReduceOutputRecords[] = "REDUCE_OUTPUT_RECORDS";
inline constexpr const char kCounterShuffleBytes[] = "SHUFFLE_BYTES";
inline constexpr const char kCounterShuffleBytesRemote[] = "SHUFFLE_BYTES_REMOTE";
inline constexpr const char kCounterDataLocalMaps[] = "DATA_LOCAL_MAPS";
inline constexpr const char kCounterRackRemoteMaps[] = "RACK_REMOTE_MAPS";
inline constexpr const char kCounterDistCacheBytes[] = "DISTRIBUTED_CACHE_BYTES";
inline constexpr const char kCounterHdfsReadOps[] = "HDFS_READ_OPS";
inline constexpr const char kCounterHdfsReadMicros[] = "HDFS_READ_MICROS";
inline constexpr const char kCounterSchedPulls[] = "SCHED_PULLS";
// CIF scan pruning: column blocks skipped whole via zone maps, and rows
// pruned by pushed-down predicates/key filters before decode.
inline constexpr const char kCounterCifBlocksSkipped[] = "CIF_BLOCKS_SKIPPED";
inline constexpr const char kCounterCifRowsPruned[] = "CIF_ROWS_PRUNED";
// CIF compressed-scan accounting: on-disk vs plain-equivalent bytes of
// the column blocks a scan actually loaded (their ratio is the observed
// compression), plus loaded-block counts per encoding tag.
inline constexpr const char kCounterCifBytesEncoded[] = "CIF_BYTES_ENCODED";
inline constexpr const char kCounterCifBytesRaw[] = "CIF_BYTES_RAW";
inline constexpr const char kCounterCifBlocksPlain[] = "CIF_BLOCKS_PLAIN";
inline constexpr const char kCounterCifBlocksRle[] = "CIF_BLOCKS_RLE";
inline constexpr const char kCounterCifBlocksBitpack[] = "CIF_BLOCKS_BITPACK";
inline constexpr const char kCounterCifBlocksFor[] = "CIF_BLOCKS_FOR";
inline constexpr const char kCounterCifBlocksDict[] = "CIF_BLOCKS_DICT";
inline constexpr const char kCounterCifBlocksDictRle[] = "CIF_BLOCKS_DICT_RLE";
// Per-operator profiler (obs.profile.enabled runs only): merged operator
// nodes in the job's QueryProfile and task attempts that contributed.
inline constexpr const char kCounterProfOperators[] = "PROF_OPERATORS";
inline constexpr const char kCounterProfTasksProfiled[] =
    "PROF_TASKS_PROFILED";
// Hierarchical memory accounting (obs::MemTracker, always on): the job's
// high-water tracked bytes summed across its per-node trackers, and the
// highest single-node high-water mark.
inline constexpr const char kCounterMemJobPeakBytes[] = "MEM_JOB_PEAK_BYTES";
inline constexpr const char kCounterMemNodePeakBytes[] = "MEM_NODE_PEAK_BYTES";
// Serving-mode cross-query dim-table cache (core/dim_table_cache.h; only
// queries running with a ClydesdaleOptions::dim_cache carry these):
// per-dimension lookups served from a resident or in-flight entry vs builds
// paid, entries evicted while the query ran, and the cache's resident bytes
// when the query flushed (Set, not summed).
inline constexpr const char kCounterCacheDimHits[] = "CACHE_DIM_HITS";
inline constexpr const char kCounterCacheDimMisses[] = "CACHE_DIM_MISSES";
inline constexpr const char kCounterCacheDimEvictions[] =
    "CACHE_DIM_EVICTIONS";
inline constexpr const char kCounterCacheBytes[] = "CACHE_BYTES";

/// Every engine-maintained counter name above, for audits asserting that a
/// suitably shaped job populates all of them (tests/mapreduce_test.cc).
std::vector<std::string> StandardCounterNames();

/// Engine-maintained counters that only fire in specific situations (e.g.
/// CIF_BLOCKS_SKIPPED needs a zone-map hit), so the all-populated audit skips
/// them. Standard + situational must cover every kCounter* above —
/// scripts/check_counters.sh enforces it.
std::vector<std::string> SituationalCounterNames();

/// Named monotonically increasing job statistics, Hadoop-style. Thread-safe.
class Counters {
 public:
  Counters() = default;

  // Copy/move take the source's lock; only safe once its producers stopped.
  Counters(const Counters& other) : values_(other.Snapshot()) {}
  Counters& operator=(const Counters& other) {
    if (this != &other) {
      auto snapshot = other.Snapshot();
      std::lock_guard<std::mutex> lock(mu_);
      values_ = std::move(snapshot);
    }
    return *this;
  }
  // Moves steal the map under the source's lock, so the noexcept claim is
  // honest (no allocation on this path, unlike Snapshot()).
  Counters(Counters&& other) noexcept {
    std::lock_guard<std::mutex> lock(other.mu_);
    values_ = std::move(other.values_);
    other.values_.clear();
  }
  Counters& operator=(Counters&& other) noexcept {
    if (this != &other) {
      std::scoped_lock lock(mu_, other.mu_);
      values_ = std::move(other.values_);
      other.values_.clear();
    }
    return *this;
  }

  void Add(const std::string& name, int64_t delta);
  void Set(const std::string& name, int64_t value);
  int64_t Get(const std::string& name) const;

  /// Merges `other` into this (summing).
  void MergeFrom(const Counters& other);

  /// Snapshot in name order.
  std::map<std::string, int64_t> Snapshot() const;

  std::string ToString() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> values_;
};

}  // namespace mr

namespace storage {
struct ScanStats;
}  // namespace storage

namespace obs {
class MemTracker;
}  // namespace obs

namespace mr {

/// Folds one scan's CIF pruning/compression stats into `counters`: the
/// zone-map skip and row-prune counts, the encoded/raw byte totals, and
/// one CIF_BLOCKS_<encoding> count per loaded block. Zero values are not
/// added, so situational counters stay absent from jobs that never trip
/// them.
void AddCifScanCounters(const storage::ScanStats& stats, Counters* counters);

/// Folds a job's merged per-operator profile into `counters`
/// (PROF_OPERATORS / PROF_TASKS_PROFILED). No-op for an empty profile.
void AddQueryProfileCounters(const obs::QueryProfile& profile,
                             Counters* counters);

/// Folds the job's MemTracker high-water marks into `counters` at job end:
/// MEM_JOB_PEAK_BYTES (sum of the job's per-node tracker peaks),
/// and MEM_NODE_PEAK_BYTES (largest single per-node peak). Zero values are
/// not added, so jobs that never charged a tracker carry no MEM_* counters.
void AddMemTrackerCounters(
    const std::vector<std::shared_ptr<obs::MemTracker>>& job_trackers,
    Counters* counters);

/// Folds serving-mode dim-table cache activity into `counters` — the only
/// place the CACHE_* counters are populated (scripts/check_counters.sh
/// audit #6). Hits/misses/evictions are summed deltas; `resident_bytes` is
/// the cache's current footprint and overwrites (Set) rather than sums.
/// Zero deltas and negative bytes are not recorded, so cache-less jobs carry
/// no CACHE_* counters.
void AddDimCacheCounters(int64_t hits, int64_t misses, int64_t evictions,
                         int64_t resident_bytes, Counters* counters);

/// Adds a scan's decoded/raw bytes, skip/prune counts and per-encoding block
/// histogram to `node` (a scan node, or a dimension build's node).
void AddScanDetail(const storage::ScanStats& stats, obs::OperatorProfile* node);

/// Builds one "scan" OperatorProfile node (tasks=1) from a completed scan's
/// stats: rows in (read + pruned) and out, the AddScanDetail fields, plus
/// the caller-measured timings.
obs::OperatorProfile ScanProfileNode(const std::string& name,
                                     const storage::ScanStats& stats,
                                     uint64_t wall_ns, uint64_t cpu_ns);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_COUNTERS_H_
