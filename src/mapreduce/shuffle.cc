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
/// each key group in place.
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

ShardedCollector::ShardedCollector(int num_partitions)
    : id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      num_partitions_(static_cast<size_t>(std::max(num_partitions, 1))) {}

ShardedCollector::Shard* ShardedCollector::ShardForThisThread() {
  // Cache the (collector id, shard) pair per thread: repeat Collects from
  // the same thread bypass the mutex entirely. The id check guards against
  // a stale entry left by a previous collector this thread fed.
  thread_local uint64_t cached_id = 0;
  thread_local Shard* cached_shard = nullptr;
  if (cached_id == id_) return cached_shard;

  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>(num_partitions_));
  cached_id = id_;
  cached_shard = shards_.back().get();
  return cached_shard;
}

Status ShardedCollector::Collect(const Row& key, const Row& value) {
  const size_t p = num_partitions_ == 1 ? 0 : key.Hash() % num_partitions_;
  (*ShardForThisThread())[p].push_back(KeyValue{key, value});
  return Status::OK();
}

uint64_t ShardedCollector::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    for (const auto& partition : *shard) total += partition.size();
  }
  return total;
}

Result<std::vector<std::vector<KeyValue>>> ShardedCollector::Finish(
    Reducer* combiner, TaskContext* context) {
  // The "spill" of our collapsed spill path: concatenate shards, sort, and
  // (optionally) combine. One span covers it all.
  obs::Span sort_span(context->trace(), "sort", "stage", context->task_index(),
                      context->node());
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<KeyValue>> merged(num_partitions_);
  for (auto& shard : shards_) {
    for (size_t p = 0; p < merged.size(); ++p) {
      auto& from = (*shard)[p];
      if (merged[p].empty()) {
        merged[p].swap(from);  // the one-shard case copies nothing
      } else {
        merged[p].insert(merged[p].end(),
                         std::make_move_iterator(from.begin()),
                         std::make_move_iterator(from.end()));
        from.clear();
      }
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

void ShuffleMerger::Add(std::vector<ShuffleRun> runs) {
  for (ShuffleRun& run : runs) {
    input_records_ += run.records.size();
    runs_.push_back(std::move(run));
  }
}

std::vector<KeyValue> ShuffleMerger::Take() {
  std::vector<ShuffleRun> runs = std::move(runs_);
  runs_.clear();
  // With the runs in map-task order, (key, run index) is the merge's total
  // order: equivalent records from one run keep their in-run order because
  // a run's next record enters the heap only after the previous one left.
  std::stable_sort(runs.begin(), runs.end(),
                   [](const ShuffleRun& a, const ShuffleRun& b) {
                     return a.map_task < b.map_task;
                   });
  std::vector<size_t> next(runs.size(), 0);
  // Heap over run heads; the comparator is "comes later", so the front is
  // the smallest head.
  auto later = [&](size_t a, size_t b) {
    const int c =
        runs[a].records[next[a]].key.Compare(runs[b].records[next[b]].key);
    return c != 0 ? c > 0 : a > b;
  };
  std::vector<size_t> heap;
  size_t total = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].records.size();
    if (!runs[r].records.empty()) heap.push_back(r);
  }
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<KeyValue> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const size_t r = heap.back();
    merged.push_back(std::move(runs[r].records[next[r]]));
    if (++next[r] < runs[r].records.size()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
      std::vector<KeyValue>().swap(runs[r].records);  // drained: free it now
    }
  }
  return merged;
}

Status ReduceMergedRecords(std::vector<KeyValue> records, Reducer* reducer,
                           TaskContext* context, OutputCollector* out,
                           uint64_t* input_groups) {
  obs::Span merge_span(context->trace(), "merge-reduce", "stage",
                       context->task_index(), context->node());
  *input_groups = 0;

  CLY_RETURN_IF_ERROR(reducer->Setup(context));
  Row group_key;
  std::vector<Row> values;
  for (KeyValue& record : records) {
    if (!values.empty() && record.key.Compare(group_key) != 0) {
      CLY_RETURN_IF_ERROR(reducer->Reduce(group_key, values, context, out));
      ++*input_groups;
      values.clear();
    }
    if (values.empty()) group_key = record.key;
    values.push_back(std::move(record.value));
  }
  if (!values.empty()) {
    CLY_RETURN_IF_ERROR(reducer->Reduce(group_key, values, context, out));
    ++*input_groups;
  }
  return reducer->Cleanup(context, out);
}

}  // namespace mr
}  // namespace clydesdale
