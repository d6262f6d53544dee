#ifndef CLYDESDALE_MAPREDUCE_JOB_RUNNER_H_
#define CLYDESDALE_MAPREDUCE_JOB_RUNNER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/job_report.h"
#include "mapreduce/output_format.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_attempt.h"
#include "obs/mem_tracker.h"
#include "obs/trace.h"

namespace clydesdale {
namespace mr {

class MrCluster;

/// Thread-safe counting collector for records that go straight to the job's
/// OutputFormat (map-only map output, reduce output) on behalf of task
/// `task`.
class OutputFormatCollector final : public OutputCollector {
 public:
  OutputFormatCollector(OutputFormat* out, int task) : out_(out), task_(task) {}

  Status Collect(const Row& key, const Row& value) override {
    records_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(EncodedKeyValueBytes(key, value),
                     std::memory_order_relaxed);
    return out_->Write(task_, key, value);
  }

  uint64_t records() const { return records_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  OutputFormat* out_;
  const int task_;
  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> bytes_{0};
};

/// Drives one job over the cluster's TaskTracker pools. Where the old engine
/// pushed a precomputed placement onto per-node queues, the runner exposes a
/// pull API: a tracker slot that frees up asks "anything runnable for me?"
/// and the scheduling policy answers with a late-binding locality-aware
/// choice. Map completions publish shuffle runs immediately, so reducers
/// (claimed by reduce slots from the start) fetch completed runs while the
/// remaining maps run, and merge them once the last map is done.
///
/// Held as shared_ptr: trackers keep the runner alive while any of its
/// attempts is in flight, even after Execute returned the job's result.
class JobRunner {
 public:
  JobRunner(MrCluster* cluster, const JobConf* conf, int64_t instance,
            std::vector<std::shared_ptr<InputSplit>> splits,
            InputFormat* input_format, OutputFormat* output_format,
            JobReport* report, obs::TraceRecorder* trace);

  // --- tracker pull API -----------------------------------------------------
  /// Would TryRunWork from this (node, slot kind) claim an attempt now?
  /// Called by tracker workers under the tracker lock (lock order: tracker
  /// before runner).
  bool HasRunnableWork(hdfs::NodeId node, bool reduce_slot) const;

  /// Claims the next runnable attempt for the slot and runs it to a terminal
  /// state on the calling thread. Returns false when nothing was claimable
  /// (lost a race or no eligible work).
  bool TryRunWork(hdfs::NodeId node, bool reduce_slot);

  // --- driver API -----------------------------------------------------------
  /// Attaches the runner to every tracker, waits for all attempts to reach a
  /// terminal state, detaches, and moves per-task reports into the job
  /// report. `self` must own this runner. Returns the first task failure
  /// (with "<job> map task N" context) or OK.
  Status Execute(const std::shared_ptr<JobRunner>& self);

  /// The job's per-node MemTrackers ("job<I>@node<N>", children of the
  /// cluster's node trackers), indexed by NodeId. The engine's counter
  /// flush reads their peaks at job end.
  const std::vector<std::shared_ptr<obs::MemTracker>>& job_mem_trackers()
      const {
    return job_mem_trackers_;
  }

 private:
  TaskAttempt* ClaimLocked(hdfs::NodeId node, bool reduce_slot);
  std::vector<bool> SaturationLocked() const;
  Status RunMapAttempt(TaskAttempt* attempt);
  Status RunReduceAttempt(TaskAttempt* attempt);
  /// Merges one succeeded attempt's tree into JobReport::profile (callers
  /// check profile_). The root's wall, CPU and envelope are `task_span`'s
  /// readings; its memory is `tracker`'s. `rows_in` is nullopt when the
  /// attempt counts no input (a map task: its scan children do).
  void MergeAttemptProfile(const char* root_name, const obs::Span& task_span,
                           const obs::MemTracker& tracker,
                           std::optional<uint64_t> rows_in, uint64_t rows_out,
                           std::vector<obs::OperatorProfile> children);
  void FinishAttempt(TaskAttempt* attempt, Status status);
  bool aborted() const;

  MrCluster* const cluster_;
  const JobConf* const conf_;
  const int64_t instance_;
  const std::vector<std::shared_ptr<InputSplit>> splits_;
  InputFormat* const input_format_;
  OutputFormat* const output_format_;
  JobReport* const report_;
  obs::TraceRecorder* const trace_;
  /// The runner's creation time: the timebase of the profile's envelope.
  const std::chrono::steady_clock::time_point epoch_;
  /// kConfProfileEnabled, read here and nowhere else: attempts always build
  /// their operator trees, and only a job with profiling on merges them into
  /// JobReport::profile.
  const bool profile_;

  const int num_reduces_;
  const bool map_only_;
  /// Concurrent map attempts allowed per node (1 for single_task_per_node
  /// jobs, which hand all slots to the one task as threads).
  const int map_cap_per_node_;
  const int task_threads_;

  /// Per-node job trackers; populated in the ctor body and handed to
  /// shuffle_ as shared_ptr copies, so declaration order relative to
  /// shuffle_ does not matter.
  std::vector<std::shared_ptr<obs::MemTracker>> job_mem_trackers_;

  ShuffleStore shuffle_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  MapSchedulingPolicy policy_;
  std::vector<std::unique_ptr<TaskAttempt>> map_attempts_;
  std::vector<std::unique_ptr<TaskAttempt>> reduce_attempts_;
  std::vector<int> running_maps_;  ///< per node
  int maps_unfinished_;
  int reduces_unfinished_;
  bool aborted_ = false;
  Status first_failure_ = Status::OK();
  std::string first_failure_context_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_JOB_RUNNER_H_
