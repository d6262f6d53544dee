#ifndef CLYDESDALE_MAPREDUCE_TASK_CONTEXT_H_
#define CLYDESDALE_MAPREDUCE_TASK_CONTEXT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hdfs/block.h"
#include "hdfs/local_store.h"
#include "mapreduce/counters.h"
#include "mapreduce/job_conf.h"
#include "obs/mem_tracker.h"
#include "obs/query_profile.h"
#include "obs/trace.h"

namespace clydesdale {
namespace mr {

class MrCluster;

/// Per-(node, job) state shared by consecutive tasks when JVM reuse is on —
/// the C++ analogue of Hadoop's static-objects-in-a-reused-JVM idiom that
/// Clydesdale uses to build dimension hash tables once per node (paper §5.2).
class SharedJvmState {
 public:
  /// Returns the value under `key`, constructing it with `factory` on first
  /// use. Construction is serialized; the factory runs at most once per key.
  template <typename T>
  std::shared_ptr<T> GetOrCreate(const std::string& key,
                                 const std::function<std::shared_ptr<T>()>& factory) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::shared_ptr<T> created = factory();
      it = values_.emplace(key, created).first;
      ++creations_;
    }
    return std::static_pointer_cast<T>(it->second);
  }

  /// How many distinct keys were constructed (== hash-table builds per node
  /// for Clydesdale jobs; tests assert on this).
  int64_t creations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return creations_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<void>> values_;
  int64_t creations_ = 0;
};

/// Everything a running task can touch: configuration, the cluster services
/// (DFS, node-local disk, distributed cache), counters and I/O attribution.
class TaskContext {
 public:
  TaskContext(const JobConf* conf, MrCluster* cluster, int task_index,
              hdfs::NodeId node, int allowed_threads,
              std::shared_ptr<SharedJvmState> shared, Counters* counters,
              obs::TraceRecorder* trace = nullptr, int attempt = 0);

  const JobConf& conf() const { return *conf_; }
  MrCluster* cluster() { return cluster_; }
  int task_index() const { return task_index_; }
  /// Attempt number of this execution (0 unless the task was retried).
  int attempt() const { return attempt_; }
  hdfs::NodeId node() const { return node_; }
  /// Number of processor slots the scheduler granted this task (paper §5.2,
  /// requirement 3). Multi-threaded runners size their thread pool with it.
  int allowed_threads() const { return allowed_threads_; }

  /// Shared per-(node, job) state; null when JVM reuse is off.
  SharedJvmState* shared_state() { return shared_.get(); }

  /// This node's local disk.
  hdfs::LocalStore* local_store();

  /// Local path of a distributed-cache file for the given DFS path, or
  /// NotFound if the job did not register it.
  Result<std::string> CacheFilePath(const std::string& dfs_path) const;

  Counters* counters() { return counters_; }

  /// The job's span sink, or null when tracing is off — pass directly to
  /// obs::Span, which treats null as "record nothing".
  obs::TraceRecorder* trace() { return trace_; }

  /// Hands an operator subtree produced by this attempt's runner to the
  /// engine, which assembles the attempt root and, when the job runs with
  /// kConfProfileEnabled, merges it into the job's QueryProfile. Runners
  /// always count and always call this (a few nodes per attempt); the
  /// engine alone reads the switch. Thread-safe (multi-threaded map runners
  /// call this from worker threads).
  void AddProfileOperator(obs::OperatorProfile op);

  /// Drains the operators recorded so far (engine-side, after the runner
  /// returned).
  std::vector<obs::OperatorProfile> TakeProfileOperators();

  /// "job/m-3@node1" (or r- for reduces): the task's log identity, used
  /// for ScopedLogContext and trace span labels.
  std::string DebugLabel(bool is_map) const;

  /// HDFS I/O attribution. Single-threaded task code may pass this to
  /// readers directly; multi-threaded runners must give each thread its own
  /// IoStats and fold them in through MergeIoStats.
  hdfs::IoStats* io_stats() { return &io_stats_; }
  const hdfs::IoStats& io_stats() const { return io_stats_; }
  void MergeIoStats(const hdfs::IoStats& stats);

  /// Installs this attempt's memory trackers (engine-side, before the task
  /// runs): `attempt` is the attempt-scoped tracker (freed when the attempt
  /// ends), `job` the per-(job, node) tracker that outlives attempts —
  /// allocations that survive the attempt (shared dim hash tables) charge
  /// the job tracker instead. Both stay null outside an engine run.
  void set_mem_trackers(std::shared_ptr<obs::MemTracker> attempt,
                        std::shared_ptr<obs::MemTracker> job) {
    mem_tracker_ = std::move(attempt);
    job_mem_tracker_ = std::move(job);
  }
  /// Attempt-scoped tracker (null outside an engine run).
  const std::shared_ptr<obs::MemTracker>& mem_tracker() const {
    return mem_tracker_;
  }
  /// Per-(job, node) tracker for attempt-outliving allocations (null = off).
  const std::shared_ptr<obs::MemTracker>& job_mem_tracker() const {
    return job_mem_tracker_;
  }

  /// Node-local disk bytes this task read (dimension replicas, dist cache).
  void AddLocalDiskBytes(uint64_t n) {
    local_disk_bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t local_disk_bytes() const {
    return local_disk_bytes_.load(std::memory_order_relaxed);
  }

 private:
  const JobConf* conf_;
  MrCluster* cluster_;
  int task_index_;
  hdfs::NodeId node_;
  int allowed_threads_;
  std::shared_ptr<SharedJvmState> shared_;
  Counters* counters_;
  obs::TraceRecorder* trace_;
  int attempt_;
  hdfs::IoStats io_stats_;
  std::mutex io_mu_;
  std::atomic<uint64_t> local_disk_bytes_{0};
  std::mutex profile_mu_;
  std::vector<obs::OperatorProfile> profile_ops_;
  std::shared_ptr<obs::MemTracker> mem_tracker_;
  std::shared_ptr<obs::MemTracker> job_mem_tracker_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_TASK_CONTEXT_H_
