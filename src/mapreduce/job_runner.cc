#include "mapreduce/job_runner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "mapreduce/counters.h"
#include "mapreduce/engine.h"
#include "mapreduce/job_trace.h"
#include "mapreduce/map_runner.h"
#include "mapreduce/task_context.h"
#include "mapreduce/task_tracker.h"
#include "obs/query_profile.h"

namespace clydesdale {
namespace mr {

JobRunner::JobRunner(MrCluster* cluster, const JobConf* conf, int64_t instance,
                     std::vector<std::shared_ptr<InputSplit>> splits,
                     InputFormat* input_format, OutputFormat* output_format,
                     JobReport* report, obs::TraceRecorder* trace)
    : cluster_(cluster),
      conf_(conf),
      instance_(instance),
      splits_(std::move(splits)),
      input_format_(input_format),
      output_format_(output_format),
      report_(report),
      trace_(trace),
      epoch_(std::chrono::steady_clock::now()),
      profile_(conf->GetBool(kConfProfileEnabled)),
      num_reduces_(std::max(conf->num_reduce_tasks, 0)),
      map_only_(num_reduces_ == 0),
      map_cap_per_node_(conf->single_task_per_node
                            ? 1
                            : cluster->options().map_slots_per_node),
      task_threads_(conf->single_task_per_node
                        ? cluster->options().map_slots_per_node
                        : 1),
      shuffle_(std::max(num_reduces_, 1)),
      policy_(splits_, cluster->num_nodes()),
      running_maps_(static_cast<size_t>(cluster->num_nodes()), 0),
      maps_unfinished_(static_cast<int>(splits_.size())),
      reduces_unfinished_(map_only_ ? 0 : num_reduces_) {
  map_attempts_.reserve(splits_.size());
  for (size_t i = 0; i < splits_.size(); ++i) {
    map_attempts_.push_back(std::make_unique<TaskAttempt>(
        static_cast<int>(i), /*attempt=*/0, /*is_map=*/true));
  }
  reduce_attempts_.reserve(static_cast<size_t>(num_reduces_));
  for (int r = 0; r < num_reduces_; ++r) {
    reduce_attempts_.push_back(
        std::make_unique<TaskAttempt>(r, /*attempt=*/0, /*is_map=*/false));
  }
  // The job's memory-tracker layer: one tracker per node, parented under
  // the cluster's node trackers.
  // Everything a task charges (dim tables, scan arenas, shuffle runs)
  // propagates node -> cluster through these.
  job_mem_trackers_.reserve(static_cast<size_t>(cluster->num_nodes()));
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    job_mem_trackers_.push_back(obs::MemTracker::Create(
        obs::JobTrackerName(instance, n), cluster->node_mem_tracker(n)));
  }
  shuffle_.set_mem_trackers(job_mem_trackers_);
  if (maps_unfinished_ == 0) shuffle_.CloseProducers();
}

std::vector<bool> JobRunner::SaturationLocked() const {
  std::vector<bool> saturated(running_maps_.size());
  for (size_t n = 0; n < running_maps_.size(); ++n) {
    saturated[n] = running_maps_[n] >= map_cap_per_node_;
  }
  return saturated;
}

bool JobRunner::HasRunnableWork(hdfs::NodeId node, bool reduce_slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return false;
  if (reduce_slot) {
    if (map_only_) return false;
    for (const auto& attempt : reduce_attempts_) {
      if (attempt->state() == AttemptState::kQueued) return true;
    }
    return false;
  }
  if (running_maps_[static_cast<size_t>(node)] >= map_cap_per_node_) {
    return false;
  }
  return policy_.HasEligible(node, SaturationLocked());
}

TaskAttempt* JobRunner::ClaimLocked(hdfs::NodeId node, bool reduce_slot) {
  if (aborted_) return nullptr;
  if (reduce_slot) {
    if (map_only_) return nullptr;
    for (auto& attempt : reduce_attempts_) {
      if (attempt->state() != AttemptState::kQueued) continue;
      // Late-binding reduce placement: the task runs wherever a reduce slot
      // asked for it first (reduce input comes over the simulated network
      // either way; shuffle locality is accounted per fetched run).
      attempt->node = node;
      (void)attempt->Transition(AttemptState::kRunning);
      report_->counters.Add(kCounterSchedPulls, 1);
      return attempt.get();
    }
    return nullptr;
  }
  if (running_maps_[static_cast<size_t>(node)] >= map_cap_per_node_) {
    return nullptr;
  }
  const MapSchedulingPolicy::Choice choice =
      policy_.Pull(node, SaturationLocked());
  if (choice.task_index < 0) return nullptr;
  TaskAttempt* attempt =
      map_attempts_[static_cast<size_t>(choice.task_index)].get();
  attempt->node = node;
  attempt->data_local = choice.data_local;
  attempt->split = splits_[static_cast<size_t>(choice.task_index)];
  (void)attempt->Transition(AttemptState::kRunning);
  ++running_maps_[static_cast<size_t>(node)];
  report_->counters.Add(kCounterSchedPulls, 1);
  // Locality is recorded from the actual pull-time decision, not a plan.
  report_->counters.Add(
      choice.data_local ? kCounterDataLocalMaps : kCounterRackRemoteMaps, 1);
  return attempt;
}

bool JobRunner::TryRunWork(hdfs::NodeId node, bool reduce_slot) {
  TaskAttempt* attempt = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt = ClaimLocked(node, reduce_slot);
  }
  if (attempt == nullptr) return false;
  // The claim changed slot occupancy, which can make reserved splits
  // stealable elsewhere; wake outside our lock (lock order: tracker first).
  cluster_->WakeAllTrackers();
  Status status = attempt->is_map() ? RunMapAttempt(attempt)
                                    : RunReduceAttempt(attempt);
  FinishAttempt(attempt, std::move(status));
  return true;
}

bool JobRunner::aborted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborted_;
}

void JobRunner::FinishAttempt(TaskAttempt* attempt, Status status) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt->status = status;
    (void)attempt->Transition(status.ok() ? AttemptState::kSucceeded
                                          : AttemptState::kFailed);
    if (attempt->is_map()) {
      --running_maps_[static_cast<size_t>(attempt->node)];
      --maps_unfinished_;
      if (maps_unfinished_ == 0) shuffle_.CloseProducers();
    } else {
      --reduces_unfinished_;
    }
    if (!status.ok()) {
      if (first_failure_.ok()) {
        first_failure_ = status;
        first_failure_context_ =
            StrCat(conf_->job_name,
                   attempt->is_map() ? " map task " : " reduce task ",
                   attempt->task_index());
      }
      if (!aborted_) {
        // Kill everything still queued; running attempts finish on their
        // own (reducers bail at their next abort check, or drain once
        // CloseProducers unblocks their fetch wait).
        aborted_ = true;
        const Status killed = Status::Internal("attempt killed: job aborted");
        auto kill_queued = [&](std::vector<std::unique_ptr<TaskAttempt>>&
                                   attempts,
                               int* unfinished) {
          for (auto& a : attempts) {
            if (a->state() != AttemptState::kQueued) continue;
            a->status = killed;
            (void)a->Transition(AttemptState::kFailed);
            --(*unfinished);
          }
        };
        kill_queued(map_attempts_, &maps_unfinished_);
        kill_queued(reduce_attempts_, &reduces_unfinished_);
        shuffle_.CloseProducers();
      }
    }
  }
  cluster_->WakeAllTrackers();
  done_cv_.notify_all();
}

void JobRunner::MergeAttemptProfile(
    const char* root_name, const obs::Span& task_span,
    const obs::MemTracker& tracker, std::optional<uint64_t> rows_in,
    uint64_t rows_out, std::vector<obs::OperatorProfile> children) {
  obs::OperatorProfile root;
  root.name = root_name;
  root.kind = "task";
  root.rows_in = rows_in.value_or(0);
  root.rows_in_counted = rows_in.has_value();
  root.rows_out = rows_out;
  root.wall_ns = static_cast<uint64_t>(task_span.wall_ns());
  root.wall_max_ns = root.wall_ns;
  root.cpu_ns = static_cast<uint64_t>(task_span.cpu_ns());
  root.tasks = 1;
  root.mem_current_bytes =
      static_cast<uint64_t>(std::max<int64_t>(0, tracker.consumed()));
  root.mem_peak_bytes =
      static_cast<uint64_t>(std::max<int64_t>(0, tracker.peak()));
  root.children = std::move(children);
  auto micros = [this](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  report_->profile.MergeAttempt(root, micros(task_span.timer().start()),
                                micros(task_span.timer().end()));
}

Status JobRunner::RunMapAttempt(TaskAttempt* attempt) {
  const int index = attempt->task_index();
  const hdfs::NodeId node = attempt->node;
  // The attempt's one timer: its readings are the span, the task report's
  // wall time and the profile root alike.
  obs::Span task_span(trace_, "map-task", "task", index, node);

  std::shared_ptr<SharedJvmState> shared =
      conf_->jvm_reuse ? cluster_->SharedStateFor(instance_, node)
                       : std::make_shared<SharedJvmState>();
  TaskContext context(conf_, cluster_, index, node, task_threads_, shared,
                      &report_->counters, trace_, attempt->attempt());
  const std::shared_ptr<obs::MemTracker>& job_tracker =
      job_mem_trackers_[static_cast<size_t>(node)];
  std::shared_ptr<obs::MemTracker> attempt_tracker = obs::MemTracker::Create(
      StrCat("m-", index, ".", attempt->attempt()), job_tracker);
  context.set_mem_trackers(attempt_tracker, job_tracker);
  ScopedLogContext task_log_context(context.DebugLabel(/*is_map=*/true));

  std::unique_ptr<MapRunner> runner =
      conf_->map_runner_factory ? conf_->map_runner_factory()
                                : std::make_unique<DefaultMapRunner>();

  Status status = Status::OK();
  uint64_t out_records = 0;
  uint64_t out_bytes = 0;
  if (map_only_) {
    // One collector per attempt: its counts are this attempt's alone, even
    // with other map attempts writing the same OutputFormat beside it.
    OutputFormatCollector out(output_format_, index);
    status = runner->Run(*attempt->split, input_format_, &context, &out);
    out_records = out.records();
    out_bytes = out.bytes();
  } else {
    // Sharded per-thread buffers: no lock on the per-record collect path
    // even when the map runner collects from many threads at once.
    ShardedCollector buffer(num_reduces_);
    status = runner->Run(*attempt->split, input_format_, &context, &buffer);
    if (status.ok()) {
      std::unique_ptr<Reducer> combiner =
          conf_->combiner_factory ? conf_->combiner_factory() : nullptr;
      out_records = buffer.records();
      auto finished = buffer.Finish(combiner.get(), &context);
      if (!finished.ok()) {
        status = finished.status();
      } else {
        // Publish immediately: the partition's reducer may fetch these runs
        // before this task's siblings have even started.
        for (int p = 0; p < num_reduces_; ++p) {
          auto& partition = (*finished)[static_cast<size_t>(p)];
          if (partition.empty()) continue;
          ShuffleRun run;
          run.map_task = index;
          run.map_node = node;
          for (const KeyValue& kv : partition) {
            run.encoded_bytes += EncodedKeyValueBytes(kv.key, kv.value);
          }
          out_bytes += run.encoded_bytes;
          run.records = std::move(partition);
          shuffle_.PublishRun(p, std::move(run));
        }
      }
    }
  }

  TaskReport& tr = attempt->report;
  tr.index = index;
  tr.attempt = attempt->attempt();
  tr.is_map = true;
  tr.node = node;
  tr.data_local = attempt->data_local;
  tr.num_constituents =
      static_cast<int>(attempt->split->Constituents().size());
  tr.hdfs_local_bytes = context.io_stats()->local_bytes_read;
  tr.hdfs_remote_bytes = context.io_stats()->remote_bytes_read;
  tr.local_disk_bytes = context.local_disk_bytes();
  tr.output_records = out_records;
  tr.output_bytes = out_bytes;
  task_span.End();
  tr.wall_seconds = static_cast<double>(task_span.wall_ns()) * 1e-9;

  report_->counters.Add(kCounterHdfsReadOps,
                        static_cast<int64_t>(context.io_stats()->read_ops));
  report_->counters.Add(
      kCounterHdfsReadMicros,
      static_cast<int64_t>(context.io_stats()->read_micros()));
  report_->counters.Add(kCounterHdfsBytesReadLocal,
                        static_cast<int64_t>(tr.hdfs_local_bytes));
  report_->counters.Add(kCounterHdfsBytesReadRemote,
                        static_cast<int64_t>(tr.hdfs_remote_bytes));
  report_->counters.Add(kCounterLocalBytesRead,
                        static_cast<int64_t>(tr.local_disk_bytes));
  report_->counters.Add(kCounterMapOutputRecords,
                        static_cast<int64_t>(out_records));
  report_->counters.Add(kCounterMapOutputBytes,
                        static_cast<int64_t>(out_bytes));

  // Failed attempts are dropped from the profile: their retry contributes
  // instead, keeping merged counters loss-free per *completed* task.
  if (profile_ && status.ok()) {
    MergeAttemptProfile("map", task_span, *attempt_tracker, std::nullopt,
                        out_records, context.TakeProfileOperators());
  }
  return status;
}

Status JobRunner::RunReduceAttempt(TaskAttempt* attempt) {
  const int r = attempt->task_index();
  const hdfs::NodeId node = attempt->node;
  obs::Span task_span(trace_, "reduce-task", "task", r, node);
  TaskContext context(conf_, cluster_, r, node, /*allowed_threads=*/1,
                      std::make_shared<SharedJvmState>(), &report_->counters,
                      trace_, attempt->attempt());
  const std::shared_ptr<obs::MemTracker>& job_tracker =
      job_mem_trackers_[static_cast<size_t>(node)];
  std::shared_ptr<obs::MemTracker> attempt_tracker = obs::MemTracker::Create(
      StrCat("r-", r, ".", attempt->attempt()), job_tracker);
  context.set_mem_trackers(attempt_tracker, job_tracker);
  ScopedLogContext task_log_context(context.DebugLabel(/*is_map=*/false));

  TaskReport& tr = attempt->report;
  tr.index = r;
  tr.attempt = attempt->attempt();
  tr.is_map = false;
  tr.node = node;

  ShuffleMerger merger;
  uint64_t shuffle_batches = 0;
  uint64_t shuffle_wall_ns = 0;
  uint64_t shuffle_cpu_ns = 0;
  // Fetched runs live in the merger until the reduce ends; charge them to
  // this attempt (released wholesale when the consumer goes out of scope).
  obs::ScopedMemConsumer fetch_mem(attempt_tracker);

  // Fetch-as-published: take run batches while the map phase is still
  // producing them. Each fetch charges the shuffle ledgers; the merge runs
  // once, after the last batch, in (key, map task) order, so the
  // interleaving never shows in the output.
  while (true) {
    std::vector<ShuffleRun> batch;
    if (!shuffle_.AwaitNewRuns(r, &batch)) break;
    if (aborted()) return Status::Internal("job aborted");
    obs::Span fetch_span(trace_, "shuffle-fetch", "stage", r, node);
    for (const ShuffleRun& run : batch) {
      tr.shuffle_bytes_total += run.encoded_bytes;
      fetch_mem.Add(static_cast<int64_t>(run.encoded_bytes));
      if (run.map_node != node) tr.shuffle_bytes_remote += run.encoded_bytes;
    }
    const size_t batch_runs = batch.size();
    merger.Add(std::move(batch));
    fetch_span.End();
    // Tagged by the ambient ScopedLogContext above: "[job/r-N@nodeM] ...".
    CLY_LOG(Debug) << "fetched " << batch_runs << " shuffle run(s), "
                   << merger.input_records() << " records in all";
    ++shuffle_batches;
    shuffle_wall_ns += static_cast<uint64_t>(fetch_span.wall_ns());
    shuffle_cpu_ns += static_cast<uint64_t>(fetch_span.cpu_ns());
  }
  if (aborted()) return Status::Internal("job aborted");
  // The merge is the shuffle's last step, so its span and profile time are
  // the shuffle's too.
  obs::Span merge_span(trace_, "shuffle-fetch", "stage", r, node);
  std::vector<KeyValue> merged = merger.Take();
  merge_span.End();
  shuffle_wall_ns += static_cast<uint64_t>(merge_span.wall_ns());
  shuffle_cpu_ns += static_cast<uint64_t>(merge_span.cpu_ns());

  std::unique_ptr<Reducer> reducer = conf_->reducer_factory();
  OutputFormatCollector out(output_format_, r);
  tr.input_records = merger.input_records();
  uint64_t in_groups = 0;
  Status status = ReduceMergedRecords(std::move(merged), reducer.get(),
                                      &context, &out, &in_groups);

  tr.output_records = out.records();
  tr.output_bytes = out.bytes();
  tr.hdfs_local_bytes = context.io_stats()->local_bytes_read;
  tr.hdfs_remote_bytes = context.io_stats()->remote_bytes_read;
  task_span.End();
  tr.wall_seconds = static_cast<double>(task_span.wall_ns()) * 1e-9;

  report_->counters.Add(kCounterReduceInputRecords,
                        static_cast<int64_t>(tr.input_records));
  report_->counters.Add(kCounterReduceInputGroups,
                        static_cast<int64_t>(in_groups));
  report_->counters.Add(kCounterReduceOutputRecords,
                        static_cast<int64_t>(out.records()));
  report_->counters.Add(kCounterShuffleBytes,
                        static_cast<int64_t>(tr.shuffle_bytes_total));
  report_->counters.Add(kCounterShuffleBytesRemote,
                        static_cast<int64_t>(tr.shuffle_bytes_remote));
  report_->counters.Add(kCounterHdfsReadOps,
                        static_cast<int64_t>(context.io_stats()->read_ops));
  report_->counters.Add(
      kCounterHdfsReadMicros,
      static_cast<int64_t>(context.io_stats()->read_micros()));

  if (profile_ && status.ok()) {
    std::vector<obs::OperatorProfile> children;
    obs::OperatorProfile shuffle;
    shuffle.name = "shuffle";
    shuffle.kind = "shuffle";
    shuffle.rows_in = tr.input_records;
    shuffle.rows_out = tr.input_records;
    shuffle.batches = shuffle_batches;
    shuffle.wall_ns = shuffle_wall_ns;
    shuffle.wall_max_ns = shuffle_wall_ns;
    shuffle.cpu_ns = shuffle_cpu_ns;
    // All fetched runs were resident in the merger at once.
    shuffle.mem_current_bytes = tr.shuffle_bytes_total;
    shuffle.mem_peak_bytes = tr.shuffle_bytes_total;
    shuffle.tasks = 1;
    children.push_back(std::move(shuffle));
    for (obs::OperatorProfile& op : context.TakeProfileOperators()) {
      children.push_back(std::move(op));
    }
    MergeAttemptProfile("reduce", task_span, *attempt_tracker,
                        tr.input_records, out.records(), std::move(children));
  }
  return status;
}

Status JobRunner::Execute(const std::shared_ptr<JobRunner>& self) {
  // Tracker detach is inside the last phase span: it contends with every
  // worker the completion wake-up just roused, and an untimed multi-ms
  // lock handoff there would punch a hole in the phase accounting (the
  // integration suite asserts phase spans tile the job's wall clock).
  {
    // The map phase span covers submission to last map completion; reduce
    // attempts are already fetching inside this window (the derived
    // shuffle-overlap span measures by how much).
    obs::Span map_phase_span(trace_, "map-phase", "phase");
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      cluster_->tracker(n)->Attach(self);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return maps_unfinished_ == 0; });
    }
    if (map_only_) {
      for (int n = 0; n < cluster_->num_nodes(); ++n) {
        cluster_->tracker(n)->Detach(this);
      }
    }
  }
  if (!map_only_) {
    obs::Span reduce_phase_span(trace_, "reduce-phase", "phase");
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return reduces_unfinished_ == 0; });
    }
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      cluster_->tracker(n)->Detach(this);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!first_failure_.ok()) {
    return first_failure_.WithContext(first_failure_context_);
  }
  for (auto& attempt : map_attempts_) {
    report_->map_tasks.push_back(std::move(attempt->report));
  }
  for (auto& attempt : reduce_attempts_) {
    report_->reduce_tasks.push_back(std::move(attempt->report));
  }
  return Status::OK();
}

}  // namespace mr
}  // namespace clydesdale
