#include "mapreduce/engine.h"

#include <algorithm>
#include <fstream>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/job_trace.h"
#include "mapreduce/shuffle.h"
#include "obs/trace.h"

namespace clydesdale {
namespace mr {

MrCluster::MrCluster(ClusterOptions options)
    : options_(options),
      dfs_([&options] {
        hdfs::DfsOptions dfs_options;
        dfs_options.num_nodes = options.num_nodes;
        dfs_options.block_size = options.dfs_block_size;
        dfs_options.replication = options.dfs_replication;
        return dfs_options;
      }()) {
  local_stores_.reserve(static_cast<size_t>(options_.num_nodes));
  trackers_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int n = 0; n < options_.num_nodes; ++n) {
    local_stores_.push_back(std::make_unique<hdfs::LocalStore>(n));
  }
  mem_tracker_ = obs::MemTracker::Create("cluster");
  node_mem_trackers_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int n = 0; n < options_.num_nodes; ++n) {
    node_mem_trackers_.push_back(
        obs::MemTracker::Create(obs::NodeTrackerName(n), mem_tracker_));
  }
  for (int n = 0; n < options_.num_nodes; ++n) {
    trackers_.push_back(std::make_unique<TaskTracker>(
        n, options_.map_slots_per_node, options_.reduce_slots_per_node));
  }
}

MrCluster::~MrCluster() {
  // A straggler worker finishing its last attempt calls WakeAllTrackers on
  // its way out, touching *sibling* trackers' condition variables. Destroying
  // trackers one by one would free tracker A's cv while tracker B's worker
  // can still poke it — so stop every pool before destroying any tracker.
  for (auto& tracker : trackers_) tracker->BeginShutdown();
  for (auto& tracker : trackers_) tracker->JoinWorkers();
}

void MrCluster::WakeAllTrackers() {
  for (auto& tracker : trackers_) tracker->Wake();
}

Result<storage::TableDesc> MrCluster::GetTable(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_cache_.find(path);
    if (it != table_cache_.end()) return it->second;
  }
  CLY_ASSIGN_OR_RETURN(storage::TableDesc desc,
                       storage::LoadTableDesc(dfs_, path));
  std::lock_guard<std::mutex> lock(mu_);
  table_cache_[path] = desc;
  return desc;
}

void MrCluster::InvalidateTable(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  table_cache_.erase(path);
  // First invalidation moves the implicit version 1 to 2; every later one
  // keeps counting. Serving caches key on (path, version), so this is the
  // reload-invalidation mechanism.
  ++table_versions_.try_emplace(path, 1).first->second;
}

Status MrCluster::DropTable(const std::string& path) {
  CLY_ASSIGN_OR_RETURN(int removed, dfs_.DeleteRecursive(path + "/"));
  if (removed > 0) InvalidateTable(path);
  return Status::OK();
}

Status QueryScratch::Drop() {
  Status first = Status::OK();
  for (const std::string& path : paths_) {
    Status status = cluster_->DropTable(path);
    if (status.ok() && cluster_->dfs()->Exists(path)) {
      status = cluster_->dfs()->Delete(path);
    }
    if (first.ok()) first = std::move(status);
  }
  paths_.clear();
  return first;
}

int64_t MrCluster::table_version(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_versions_.find(path);
  return it == table_versions_.end() ? 1 : it->second;
}

std::shared_ptr<SharedJvmState> MrCluster::SharedStateFor(int64_t job_instance,
                                                          hdfs::NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shared_states_[{job_instance, node}];
  if (slot == nullptr) slot = std::make_shared<SharedJvmState>();
  return slot;
}

void MrCluster::ReleaseJobState(int64_t job_instance) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shared_states_.lower_bound({job_instance, hdfs::NodeId{0}});
  while (it != shared_states_.end() && it->first.first == job_instance) {
    it = shared_states_.erase(it);
  }
}

int64_t MrCluster::NextJobInstance() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_job_instance_++;
}

namespace {

/// Copies every distributed-cache file from DFS onto every node's local
/// disk, once per node per job (paper §6.1: Hive's mapjoin dissemination).
Status DistributeCache(MrCluster* cluster, const JobConf& conf,
                       Counters* counters) {
  for (const std::string& dfs_path : conf.distributed_cache) {
    CLY_ASSIGN_OR_RETURN(std::string contents,
                         cluster->dfs()->ReadFileToString(dfs_path));
    const std::string local_path =
        StrCat("/dcache/", conf.GetInt("mr.job.instance"), dfs_path);
    std::vector<uint8_t> bytes(contents.begin(), contents.end());
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      CLY_RETURN_IF_ERROR(
          cluster->local_store(n)->Write(local_path, bytes));
      counters->Add(kCounterDistCacheBytes,
                    static_cast<int64_t>(bytes.size()));
    }
  }
  return Status::OK();
}

/// Deletes the job's distributed-cache copies from every node and drops its
/// JVM-reuse registry entries. Without this, back-to-back jobs (an SSB
/// sweep) leak simulated local disk.
void GarbageCollectJobScratch(MrCluster* cluster, int64_t instance) {
  const std::string dcache_prefix = StrCat("/dcache/", instance, "/");
  uint64_t removed = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    removed += cluster->local_store(n)->DeleteWithPrefix(dcache_prefix);
  }
  cluster->ReleaseJobState(instance);
  if (removed > 0) {
    CLY_LOG(Debug) << "job " << instance << " scratch GC removed " << removed
                   << " local files";
  }
}

/// Runs the scratch GC on every exit path of RunJob, success or error.
struct ScratchGcGuard {
  MrCluster* cluster;
  int64_t instance;
  ~ScratchGcGuard() { GarbageCollectJobScratch(cluster, instance); }
};

/// Appends the derived "shuffle-overlap" span: the window between the first
/// reducer fetch and the end of the last map task. Synthesised post-drain
/// because the window straddles threads (a Span must start and end on one).
/// Category "overlap" keeps it out of the phase accounting — phase spans
/// tile the wall clock; this one deliberately overlaps map-phase.
void AppendShuffleOverlapSpan(std::vector<obs::SpanRecord>* spans) {
  int64_t last_map_end = 0;
  bool saw_map = false;
  int64_t first_fetch = 0;
  bool saw_fetch = false;
  for (const obs::SpanRecord& span : *spans) {
    if (span.name == "map-task") {
      saw_map = true;
      last_map_end = std::max(last_map_end, span.end_us());
    } else if (span.name == "shuffle-fetch") {
      if (!saw_fetch || span.start_us < first_fetch) {
        first_fetch = span.start_us;
      }
      saw_fetch = true;
    }
  }
  if (!saw_map || !saw_fetch || first_fetch >= last_map_end) return;
  obs::SpanRecord overlap;
  overlap.name = "shuffle-overlap";
  overlap.category = "overlap";
  overlap.start_us = first_fetch;
  overlap.dur_us = last_map_end - first_fetch;
  overlap.depth = 1;
  // Derived after the fact: it sorts after every recorded span that starts
  // in the same microsecond.
  overlap.seq = ~uint64_t{0};
  spans->push_back(std::move(overlap));
  obs::SortByStart(spans);
}

/// Writes `contents` to a real-filesystem path (profile artifacts).
Status WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) return Status::IoError("cannot open " + path);
  file << contents;
  file.close();
  if (!file) return Status::IoError("short write to " + path);
  return Status::OK();
}

}  // namespace

Result<JobResult> RunJob(MrCluster* cluster, const JobConf& user_conf) {
  JobConf conf = user_conf;
  const int64_t instance = cluster->NextJobInstance();
  conf.SetInt("mr.job.instance", instance);
  Stopwatch job_timer;

  if (!conf.input_format_factory) {
    return Status::InvalidArgument("job has no input format");
  }
  if (!conf.output_format_factory) {
    return Status::InvalidArgument("job has no output format");
  }
  if (conf.num_reduce_tasks > 0 && !conf.reducer_factory) {
    return Status::InvalidArgument(
        "job has reduce tasks but no reducer factory");
  }

  ScratchGcGuard scratch_gc{cluster, instance};

  JobReport report;
  report.job_name = conf.job_name;
  report.num_nodes = cluster->num_nodes();
  const uint64_t dfs_written_before = cluster->dfs()->TotalIo().bytes_written;

  // A null recorder pointer is how "tracing off" reaches every Span below:
  // spans constructed against nullptr cost two stores.
  obs::TraceRecorder trace_recorder;
  obs::TraceRecorder* trace =
      conf.GetBool(kConfTraceEnabled) ? &trace_recorder : nullptr;
  ScopedLogContext job_log_context(conf.job_name);
  obs::Span job_span(trace, conf.job_name, "job");
  obs::Span setup_span(trace, "setup", "phase");

  std::unique_ptr<InputFormat> input_format = conf.input_format_factory();
  std::unique_ptr<OutputFormat> output_format = conf.output_format_factory();
  CLY_RETURN_IF_ERROR(DistributeCache(cluster, conf, &report.counters));

  CLY_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<InputSplit>> splits,
                       input_format->GetSplits(cluster, conf));
  // Reduce tasks write the output, or the map tasks of a map-only job.
  const int output_tasks = conf.num_reduce_tasks > 0
                               ? conf.num_reduce_tasks
                               : static_cast<int>(splits.size());
  CLY_RETURN_IF_ERROR(output_format->Open(cluster, conf, output_tasks));

  // Map and reduce phases both run inside the runner: trackers pull attempts
  // (late-binding locality), maps publish shuffle runs as they finish, and
  // reducers fetch + merge those runs while the map phase is still going.
  // The shared_ptr keeps the runner alive for any tracker worker still
  // unwinding after the job completes.
  // Construction (attempt table, scheduling policy) is still setup time.
  auto runner = std::make_shared<JobRunner>(
      cluster, &conf, instance, std::move(splits), input_format.get(),
      output_format.get(), &report, trace);
  setup_span.End();
  CLY_RETURN_IF_ERROR(runner->Execute(runner));

  {
    obs::Span commit_span(trace, "commit", "phase");
    CLY_RETURN_IF_ERROR(output_format->Commit(cluster, conf));
  }
  // Bytes this job actually pushed into DFS (output commit, staged-join
  // intermediates): the delta of the cluster-wide write ledger.
  report.counters.Add(
      kCounterHdfsBytesWritten,
      static_cast<int64_t>(cluster->dfs()->TotalIo().bytes_written -
                           dfs_written_before));
  report.wall_seconds = job_timer.ElapsedSeconds();
  AddMemTrackerCounters(runner->job_mem_trackers(), &report.counters);
  if (!report.profile.empty()) {
    // Stamp the whole-job wall clock onto the merged profile (the renderer
    // reports the attempts' coverage against it) and surface the headline
    // PROF_* counters.
    report.profile.wall_seconds = report.wall_seconds;
    AddQueryProfileCounters(report.profile, &report.counters);
  }

  const std::string trace_dir = conf.Get(kConfTraceDir);
  if (trace != nullptr) {
    job_span.End();
    report.spans = trace_recorder.Drain();
    AppendShuffleOverlapSpan(&report.spans);
    if (!trace_dir.empty()) {
      CLY_RETURN_IF_ERROR(WriteJobTrace(report, trace_dir, instance));
      CLY_LOG(Debug) << "wrote trace to " << trace_dir << "/" << conf.job_name
                     << "-" << instance << ".trace.json";
    }
  }

  // EXPLAIN ANALYZE artifacts when profiling is on, next to the trace files
  // (ExplainAnalyzeJson / ExplainAnalyzeText of report.profile).
  if (!report.profile.empty() && !trace_dir.empty()) {
    const std::string base =
        StrCat(trace_dir, "/", conf.job_name, "-", instance);
    CLY_RETURN_IF_ERROR(WriteTextFile(
        base + ".profile.json", obs::ExplainAnalyzeJson(report.profile)));
    CLY_RETURN_IF_ERROR(WriteTextFile(
        base + ".profile.txt", obs::ExplainAnalyzeText(report.profile)));
    CLY_LOG(Debug) << "wrote query profile to " << base << ".profile.json";
  }

  JobResult result;
  result.output_rows = output_format->TakeRows();
  result.report = std::move(report);
  return result;
}

}  // namespace mr
}  // namespace clydesdale
