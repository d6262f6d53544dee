#ifndef CLYDESDALE_MAPREDUCE_ENGINE_H_
#define CLYDESDALE_MAPREDUCE_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "hdfs/dfs.h"
#include "hdfs/local_store.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/job_report.h"
#include "mapreduce/output_format.h"
#include "mapreduce/task_context.h"
#include "mapreduce/task_tracker.h"
#include "obs/mem_tracker.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace mr {

/// Cluster-wide knobs: the simulated topology plus Hadoop slot configuration
/// (paper §6.2: six map slots and one reduce slot per node).
struct ClusterOptions {
  int num_nodes = 4;
  int map_slots_per_node = 2;
  int reduce_slots_per_node = 1;
  uint64_t dfs_block_size = 4ULL * 1024 * 1024;
  int dfs_replication = 3;
};

/// A simulated Hadoop cluster: the DFS, per-node local disks, the persistent
/// per-node TaskTracker pools, and the JVM-reuse state registry. Owns nothing
/// about any particular job; jobs run against it via RunJob, which hands a
/// JobRunner to the trackers.
class MrCluster {
 public:
  explicit MrCluster(ClusterOptions options);
  ~MrCluster();  ///< Drains every tracker pool before destroying any tracker.

  const ClusterOptions& options() const { return options_; }
  int num_nodes() const { return options_.num_nodes; }

  hdfs::MiniDfs* dfs() { return &dfs_; }
  const hdfs::MiniDfs& dfs() const { return dfs_; }
  hdfs::LocalStore* local_store(hdfs::NodeId node) {
    return local_stores_[static_cast<size_t>(node)].get();
  }
  /// The node's persistent executor pool.
  TaskTracker* tracker(hdfs::NodeId node) {
    return trackers_[static_cast<size_t>(node)].get();
  }
  /// Pokes every tracker to re-evaluate runnable work (slot freed, phase
  /// transition, abort). Callers must not hold a JobRunner lock.
  void WakeAllTrackers();

  /// Root of the cluster's MemTracker tree ("cluster"); always present.
  const std::shared_ptr<obs::MemTracker>& mem_tracker() {
    return mem_tracker_;
  }
  /// Per-node tracker ("node<N>"), child of the cluster root. Every job
  /// parents its per-(job, node) trackers here.
  const std::shared_ptr<obs::MemTracker>& node_mem_tracker(hdfs::NodeId node) {
    return node_mem_trackers_[static_cast<size_t>(node)];
  }

  /// Loads (and caches) a table's metadata.
  Result<storage::TableDesc> GetTable(const std::string& path);
  /// Drops a cached TableDesc (after rewriting a table) and bumps the
  /// path's catalog version, so serving-layer caches keyed on
  /// (path, version) can never serve entries built from the old data.
  void InvalidateTable(const std::string& path);
  /// Monotone catalog version of a table path; starts at 1 for paths never
  /// invalidated. Every (re)load path funnels through InvalidateTable, which
  /// bumps this.
  int64_t table_version(const std::string& path);
  /// Deletes every file of the table at `path` and, if there was any,
  /// invalidates it (scratch tables between and after multi-job plans).
  Status DropTable(const std::string& path);

  /// JVM-reuse registry: per-(job instance, node) shared state. The engine
  /// hands these to tasks when the job enables jvm_reuse.
  std::shared_ptr<SharedJvmState> SharedStateFor(int64_t job_instance,
                                                 hdfs::NodeId node);

  /// Drops the job's JVM-reuse registry entries (commit-time GC; the shared
  /// state dies with the last task still holding its shared_ptr).
  void ReleaseJobState(int64_t job_instance);

  /// Allocates a unique job instance id.
  int64_t NextJobInstance();

 private:
  ClusterOptions options_;
  hdfs::MiniDfs dfs_;
  std::vector<std::unique_ptr<hdfs::LocalStore>> local_stores_;

  /// MemTracker tree root and per-node children. shared_ptr-owned so a
  /// consumer outliving the cluster (late scratch GC) keeps its chain alive.
  std::shared_ptr<obs::MemTracker> mem_tracker_;
  std::vector<std::shared_ptr<obs::MemTracker>> node_mem_trackers_;

  std::mutex mu_;
  std::unordered_map<std::string, storage::TableDesc> table_cache_;
  std::unordered_map<std::string, int64_t> table_versions_;
  std::map<std::pair<int64_t, hdfs::NodeId>, std::shared_ptr<SharedJvmState>>
      shared_states_;
  int64_t next_job_instance_ = 1;

  /// Declared last: tracker workers may touch the members above until their
  /// pools drain, so they must be destroyed first.
  std::vector<std::unique_ptr<TaskTracker>> trackers_;
};

/// A multi-job query's DFS scratch: the intermediate tables and files its
/// stages write. Drop() removes everything added so far and reports the
/// first error; the destructor drops whatever is left and ignores errors,
/// so a query that fails mid-plan returns its own error and leaks nothing.
class QueryScratch {
 public:
  explicit QueryScratch(MrCluster* cluster) : cluster_(cluster) {}
  ~QueryScratch() { (void)Drop(); }
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

  /// `path` is a table (DropTable) or a plain DFS file.
  void Add(std::string path) { paths_.push_back(std::move(path)); }
  Status Drop();

 private:
  MrCluster* cluster_;
  std::vector<std::string> paths_;
};

/// The outcome of RunJob: execution report plus, for memory-output jobs, the
/// collected result rows.
struct JobResult {
  JobReport report;
  std::vector<Row> output_rows;
};

/// Runs one MapReduce job to completion on the cluster: splits, pull-based
/// locality scheduling over the persistent tracker pools, combiner, sorted
/// shuffle (pipelined with the map phase), reduce, output commit,
/// and job-scratch GC (dcache files) on every exit path.
Result<JobResult> RunJob(MrCluster* cluster, const JobConf& conf);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_ENGINE_H_
