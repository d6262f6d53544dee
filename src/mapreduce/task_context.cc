#include "mapreduce/task_context.h"

#include "common/strings.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace mr {

TaskContext::TaskContext(const JobConf* conf, MrCluster* cluster,
                         int task_index, hdfs::NodeId node, int allowed_threads,
                         std::shared_ptr<SharedJvmState> shared,
                         Counters* counters, obs::TraceRecorder* trace,
                         int attempt)
    : conf_(conf),
      cluster_(cluster),
      task_index_(task_index),
      node_(node),
      allowed_threads_(allowed_threads),
      shared_(std::move(shared)),
      counters_(counters),
      trace_(trace),
      attempt_(attempt) {}

void TaskContext::AddProfileOperator(obs::OperatorProfile op) {
  std::lock_guard<std::mutex> lock(profile_mu_);
  profile_ops_.push_back(std::move(op));
}

std::vector<obs::OperatorProfile> TaskContext::TakeProfileOperators() {
  std::lock_guard<std::mutex> lock(profile_mu_);
  return std::move(profile_ops_);
}

std::string TaskContext::DebugLabel(bool is_map) const {
  // Attempt 0 stays terse ("job/m-3@node1"); retries show ".<attempt>".
  if (attempt_ == 0) {
    return StrCat(conf_->job_name, "/", is_map ? "m" : "r", "-", task_index_,
                  "@node", node_);
  }
  return StrCat(conf_->job_name, "/", is_map ? "m" : "r", "-", task_index_,
                ".", attempt_, "@node", node_);
}

hdfs::LocalStore* TaskContext::local_store() {
  return cluster_->local_store(node_);
}

void TaskContext::MergeIoStats(const hdfs::IoStats& stats) {
  std::lock_guard<std::mutex> lock(io_mu_);
  io_stats_.Add(stats);
}

Result<std::string> TaskContext::CacheFilePath(
    const std::string& dfs_path) const {
  for (const std::string& registered : conf_->distributed_cache) {
    if (registered == dfs_path) {
      // The engine materialized the file here during job setup (the instance
      // id keeps concurrent jobs with equal names apart).
      return StrCat("/dcache/", conf_->GetInt("mr.job.instance"), dfs_path);
    }
  }
  return Status::NotFound(
      StrCat("'", dfs_path, "' is not in the job's distributed cache"));
}

}  // namespace mr
}  // namespace clydesdale
