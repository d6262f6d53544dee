#include "mapreduce/shuffle.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "common/logging.h"
#include "mapreduce/counters.h"
#include "storage/row_codec.h"

namespace clydesdale {
namespace mr {

namespace {
bool KeyLess(const KeyValue& a, const KeyValue& b) {
  return a.key.Compare(b.key) < 0;
}

/// Collector that appends into a vector (combiner output, reducer staging).
class VectorCollector final : public OutputCollector {
 public:
  explicit VectorCollector(std::vector<KeyValue>* out) : out_(out) {}
  Status Collect(const Row& key, const Row& value) override {
    out_->push_back(KeyValue{key, value});
    return Status::OK();
  }

 private:
  std::vector<KeyValue>* out_;
};

/// Sorts one partition by key and, when a combiner is given, folds it over
/// each key group in place. Shared by MapOutputBuffer::Finish and
/// ShardedCollector::Finish.
Status SortAndCombinePartition(std::vector<KeyValue>* partition,
                               Reducer* combiner, TaskContext* context) {
  std::stable_sort(partition->begin(), partition->end(), KeyLess);
  if (combiner == nullptr || partition->empty()) return Status::OK();

  context->counters()->Add(kCounterCombineInputRecords,
                           static_cast<int64_t>(partition->size()));
  std::vector<KeyValue> combined;
  VectorCollector collector(&combined);
  CLY_RETURN_IF_ERROR(combiner->Setup(context));
  size_t group_start = 0;
  std::vector<Row> values;
  for (size_t i = 0; i <= partition->size(); ++i) {
    const bool boundary =
        i == partition->size() ||
        (*partition)[i].key.Compare((*partition)[group_start].key) != 0;
    if (!boundary) continue;
    values.clear();
    for (size_t j = group_start; j < i; ++j) {
      values.push_back((*partition)[j].value);
    }
    CLY_RETURN_IF_ERROR(combiner->Reduce((*partition)[group_start].key, values,
                                         context, &collector));
    group_start = i;
  }
  CLY_RETURN_IF_ERROR(combiner->Cleanup(context, &collector));
  context->counters()->Add(kCounterCombineOutputRecords,
                           static_cast<int64_t>(combined.size()));
  *partition = std::move(combined);
  // A combiner must preserve key order for the merge; ours produce one
  // output per group in order, but guard against user combiners that don't.
  CLY_DCHECK(std::is_sorted(partition->begin(), partition->end(), KeyLess));
  return Status::OK();
}
}  // namespace

uint64_t EncodedKeyValueBytes(const Row& key, const Row& value) {
  return storage::EncodedRowSize(key) + storage::EncodedRowSize(value) + 8;
}

MapOutputBuffer::MapOutputBuffer(Partitioner* partitioner, int num_partitions)
    : partitioner_(partitioner),
      partitions_(static_cast<size_t>(std::max(num_partitions, 1))) {}

Status MapOutputBuffer::Collect(const Row& key, const Row& value) {
  const int p = partitions_.size() == 1
                    ? 0
                    : partitioner_->Partition(key, static_cast<int>(partitions_.size()));
  if (p < 0 || p >= static_cast<int>(partitions_.size())) {
    return Status::Internal("partitioner returned out-of-range partition");
  }
  partitions_[static_cast<size_t>(p)].push_back(KeyValue{key, value});
  ++records_;
  return Status::OK();
}

Result<std::vector<std::vector<KeyValue>>> MapOutputBuffer::Finish(
    Reducer* combiner, TaskContext* context) {
  obs::Span sort_span(context->trace(), "sort", "stage", context->task_index(),
                      context->node());
  for (auto& partition : partitions_) {
    CLY_RETURN_IF_ERROR(SortAndCombinePartition(&partition, combiner, context));
  }
  return std::move(partitions_);
}

ShardedCollector::ShardedCollector(Partitioner* partitioner,
                                   int num_partitions)
    : id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      partitioner_(partitioner),
      num_partitions_(num_partitions) {}

MapOutputBuffer* ShardedCollector::ShardForThisThread() {
  // Cache the (collector id, shard) pair per thread: repeat Collects from
  // the same thread bypass the mutex entirely. The id check guards against
  // a stale entry left by a previous collector this thread fed.
  thread_local uint64_t cached_id = 0;
  thread_local MapOutputBuffer* cached_shard = nullptr;
  if (cached_id == id_) return cached_shard;

  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(
      std::make_unique<MapOutputBuffer>(partitioner_, num_partitions_));
  cached_id = id_;
  cached_shard = shards_.back().get();
  return cached_shard;
}

Status ShardedCollector::Collect(const Row& key, const Row& value) {
  return ShardForThisThread()->Collect(key, value);
}

uint64_t ShardedCollector::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->records();
  return total;
}

int ShardedCollector::num_shards() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(shards_.size());
}

Result<std::vector<std::vector<KeyValue>>> ShardedCollector::Finish(
    Reducer* combiner, TaskContext* context) {
  // The "spill" of our collapsed spill path: concatenate shards, sort, and
  // (optionally) combine. One span covers it all.
  obs::Span sort_span(context->trace(), "sort", "stage", context->task_index(),
                      context->node());
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<KeyValue>> merged(
      static_cast<size_t>(std::max(num_partitions_, 1)));
  for (auto& shard : shards_) {
    for (size_t p = 0; p < merged.size(); ++p) {
      auto& from = shard->partitions_[p];
      merged[p].insert(merged[p].end(),
                       std::make_move_iterator(from.begin()),
                       std::make_move_iterator(from.end()));
      from.clear();
    }
  }
  for (auto& partition : merged) {
    CLY_RETURN_IF_ERROR(SortAndCombinePartition(&partition, combiner, context));
  }
  return merged;
}

ShuffleStore::ShuffleStore(int num_partitions)
    : partitions_(static_cast<size_t>(std::max(num_partitions, 1))),
      consumed_(static_cast<size_t>(std::max(num_partitions, 1)), 0) {}

ShuffleStore::~ShuffleStore() {
  // Aborted jobs leave published runs unfetched; release their tracker
  // charges so the trackers stay net-zero across jobs.
  for (size_t p = 0; p < partitions_.size(); ++p) {
    for (size_t i = consumed_[p]; i < partitions_[p].size(); ++i) {
      ReleaseRunLocked(partitions_[p][i]);
    }
  }
}

void ShuffleStore::set_mem_trackers(
    std::vector<std::shared_ptr<obs::MemTracker>> trackers) {
  std::lock_guard<std::mutex> lock(mu_);
  mem_trackers_ = std::move(trackers);
}

void ShuffleStore::ChargeRunLocked(const ShuffleRun& run) {
  if (run.map_node == hdfs::kNoNode) return;
  const size_t n = static_cast<size_t>(run.map_node);
  if (n >= mem_trackers_.size() || mem_trackers_[n] == nullptr) return;
  mem_trackers_[n]->Consume(static_cast<int64_t>(run.encoded_bytes));
}

void ShuffleStore::ReleaseRunLocked(const ShuffleRun& run) {
  if (run.map_node == hdfs::kNoNode) return;
  const size_t n = static_cast<size_t>(run.map_node);
  if (n >= mem_trackers_.size() || mem_trackers_[n] == nullptr) return;
  mem_trackers_[n]->Release(static_cast<int64_t>(run.encoded_bytes));
}

void ShuffleStore::PublishRun(int partition, ShuffleRun run) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_bytes_ += run.encoded_bytes;
    ChargeRunLocked(run);
    partitions_[static_cast<size_t>(partition)].push_back(std::move(run));
  }
  cv_.notify_all();
}

void ShuffleStore::CloseProducers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool ShuffleStore::AwaitNewRuns(int partition, std::vector<ShuffleRun>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto& runs = partitions_[static_cast<size_t>(partition)];
  size_t& consumed = consumed_[static_cast<size_t>(partition)];
  cv_.wait(lock, [&] { return closed_ || consumed < runs.size(); });
  if (consumed >= runs.size()) return false;  // closed and drained
  for (size_t i = consumed; i < runs.size(); ++i) {
    ReleaseRunLocked(runs[i]);
    out->push_back(std::move(runs[i]));
  }
  consumed = runs.size();
  return true;
}

uint64_t ShuffleStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

namespace {
/// The merge's total order: key, then producing map task. In-run position
/// never needs comparing — equivalent records always come from the same run
/// (one run per map task per partition), and both the per-run sort and the
/// stable inplace_merge below preserve in-run order among equivalents.
bool MergedLess(const MergedRecord& a, const MergedRecord& b) {
  const int c = a.kv.key.Compare(b.kv.key);
  if (c != 0) return c < 0;
  return a.map_task < b.map_task;
}
}  // namespace

void ShuffleMerger::Add(std::vector<ShuffleRun> runs) {
  for (ShuffleRun& run : runs) {
    input_records_ += run.records.size();
    const size_t old_size = merged_.size();
    merged_.reserve(old_size + run.records.size());
    for (KeyValue& kv : run.records) {
      merged_.push_back(MergedRecord{std::move(kv), run.map_task});
    }
    // Each run arrives key-sorted with a single map_task, so it is already
    // sorted under MergedLess; one stable merge folds it in.
    std::inplace_merge(merged_.begin(),
                       merged_.begin() + static_cast<ptrdiff_t>(old_size),
                       merged_.end(), MergedLess);
  }
}

Status ReduceMergedRecords(std::vector<MergedRecord> records, Reducer* reducer,
                           TaskContext* context, OutputCollector* out,
                           uint64_t* input_groups) {
  obs::Span merge_span(context->trace(), "merge-reduce", "stage",
                       context->task_index(), context->node());
  *input_groups = 0;

  CLY_RETURN_IF_ERROR(reducer->Setup(context));
  Row group_key;
  std::vector<Row> values;
  for (MergedRecord& record : records) {
    if (!values.empty() && record.kv.key.Compare(group_key) != 0) {
      CLY_RETURN_IF_ERROR(reducer->Reduce(group_key, values, context, out));
      ++*input_groups;
      values.clear();
    }
    if (values.empty()) group_key = record.kv.key;
    values.push_back(std::move(record.kv.value));
  }
  if (!values.empty()) {
    CLY_RETURN_IF_ERROR(reducer->Reduce(group_key, values, context, out));
    ++*input_groups;
  }
  return reducer->Cleanup(context, out);
}

}  // namespace mr
}  // namespace clydesdale
