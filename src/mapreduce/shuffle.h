#ifndef CLYDESDALE_MAPREDUCE_SHUFFLE_H_
#define CLYDESDALE_MAPREDUCE_SHUFFLE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/block.h"
#include "mapreduce/mr_types.h"
#include "mapreduce/task_context.h"

namespace clydesdale {
namespace mr {


/// Map-side collector, Hadoop's spill path collapsed to one in-memory spill.
/// Each record goes to partition key.Hash() % num_partitions of the calling
/// thread's own shard, created on the thread's first Collect, so the hot
/// path touches only thread-private state even when a multi-threaded map
/// runner collects from many threads at once. The mutex is taken once per
/// thread, at shard creation. Finish concatenates the shards per partition,
/// sorts each partition by key and, when a combiner is given, folds it over
/// each key group.
class ShardedCollector final : public OutputCollector {
 public:
  explicit ShardedCollector(int num_partitions);

  Status Collect(const Row& key, const Row& value) override;

  /// Returns the finished partitions (indexed by partition id).
  Result<std::vector<std::vector<KeyValue>>> Finish(Reducer* combiner,
                                                    TaskContext* context);

  /// Records collected so far (before Finish).
  uint64_t records() const;

 private:
  /// One thread's records, indexed by partition.
  using Shard = std::vector<std::vector<KeyValue>>;

  Shard* ShardForThisThread();

  /// Distinguishes this collector from any earlier one whose shard a thread
  /// may still have cached in its thread_local slot (monotone, never reused,
  /// so a recycled address can't alias a stale cache entry).
  const uint64_t id_;
  const size_t num_partitions_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One map task's sorted output for one partition.
struct ShuffleRun {
  int map_task = 0;
  hdfs::NodeId map_node = hdfs::kNoNode;
  std::vector<KeyValue> records;
  uint64_t encoded_bytes = 0;
};

/// In-memory stand-in for the map-output files + HTTP fetch path. Thread-safe
/// producers (map tasks) / single consumer per partition (its reducer).
///
/// The consumer drains runs incrementally as maps publish them
/// (AwaitNewRuns), unblocking for good once CloseProducers marks the map
/// side done.
class ShuffleStore {
 public:
  explicit ShuffleStore(int num_partitions);
  /// Releases the tracker charges of runs never fetched (aborted jobs).
  ~ShuffleStore();

  /// Attributes published-but-unfetched run bytes to the publishing map
  /// node's MemTracker (vector indexed by NodeId; null entries disable that
  /// node). Charged at PublishRun, released when the run is fetched — or by
  /// the destructor for runs an aborted job never fetched, so trackers
  /// always drain to zero. Call before the first publish.
  void set_mem_trackers(
      std::vector<std::shared_ptr<obs::MemTracker>> trackers);

  /// Makes one map task's run visible to the partition's reducer. The engine
  /// publishes the moment the map attempt succeeds — there is no job-wide
  /// barrier between publish and fetch.
  void PublishRun(int partition, ShuffleRun run);

  /// No further PublishRun calls will happen; wakes blocked reducers.
  void CloseProducers();

  /// Blocks until the partition has unconsumed runs or producers are closed.
  /// Moves the new runs (arrival order) into `out` and returns true; returns
  /// false once closed and fully drained. Single consumer per partition.
  bool AwaitNewRuns(int partition, std::vector<ShuffleRun>* out);

  uint64_t total_bytes() const;

 private:
  /// Consume/Release run.encoded_bytes against the map node's tracker
  /// (no-ops for untracked nodes). Callers hold mu_.
  void ChargeRunLocked(const ShuffleRun& run);
  void ReleaseRunLocked(const ShuffleRun& run);

  std::vector<std::shared_ptr<obs::MemTracker>> mem_trackers_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<ShuffleRun>> partitions_;
  /// Per partition: how many runs the consumer already drained.
  std::vector<size_t> consumed_;
  uint64_t total_bytes_ = 0;
  bool closed_ = false;
};

/// Gathers a reducer's sorted runs as they arrive and merges them once,
/// k-way, in O(N log R) for N records in R runs. Total order is (key, map
/// task, in-run position): the order a stable sort by key over the by-task
/// concatenation would produce, so a reducer fed run-by-run produces
/// byte-identical output no matter how publish and fetch interleave.
class ShuffleMerger {
 public:
  /// Adds a batch of runs (any arrival order).
  void Add(std::vector<ShuffleRun> runs);

  uint64_t input_records() const { return input_records_; }

  /// Merges every added run into one sequence; the merger holds no runs
  /// afterwards.
  std::vector<KeyValue> Take();

 private:
  std::vector<ShuffleRun> runs_;
  uint64_t input_records_ = 0;
};

/// Streams the merged sequence's key groups to `reducer` (Setup / Reduce per
/// group / Cleanup), counting the groups into `input_groups`.
Status ReduceMergedRecords(std::vector<KeyValue> records, Reducer* reducer,
                           TaskContext* context, OutputCollector* out,
                           uint64_t* input_groups);

/// Sum of encoded key+value bytes of a record (shuffle accounting unit).
uint64_t EncodedKeyValueBytes(const Row& key, const Row& value);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_SHUFFLE_H_
