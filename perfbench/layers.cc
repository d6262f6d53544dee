#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/dim_hash_table.h"
#include "mapreduce/counters.h"
#include "ssb/queries.h"
#include "storage/table_format.h"

namespace perfbench {

namespace mr = clydesdale::mr;
namespace core = clydesdale::core;
namespace storage = clydesdale::storage;
using clydesdale::Result;
using clydesdale::Status;
using clydesdale::Stopwatch;
using clydesdale::StrCat;

// --- spans -------------------------------------------------------------------

namespace {

int CategoryRank(std::string_view category) {
  if (category == "job") return 0;
  if (category == "phase") return 1;
  if (category == "task") return 2;
  return 3;  // "stage"
}

/// Parent of each span of one job (-1 for the job span): the shortest span
/// that contains it and either encloses it on the same thread or sits at a
/// coarser level (job > phase > task > stage); a stage's task must have the
/// same task id and node, since stage spans may run on helper threads.
std::vector<int> JobSpanParents(const std::vector<clydesdale::obs::SpanRecord>& s) {
  std::vector<int> parent(s.size(), -1);
  int job = -1;
  for (size_t i = 0; i < s.size(); ++i) {
    if (CategoryRank(s[i].category) == 0) job = static_cast<int>(i);
  }
  for (size_t i = 0; i < s.size(); ++i) {
    const int rank = CategoryRank(s[i].category);
    if (rank == 0) continue;
    int best = -1;
    for (size_t j = 0; j < s.size(); ++j) {
      if (j == i || s[j].start_us > s[i].start_us ||
          s[j].end_us() < s[i].end_us()) {
        continue;
      }
      const int rank_j = CategoryRank(s[j].category);
      const bool same_thread = s[j].tid == s[i].tid && s[j].depth < s[i].depth;
      const bool coarser =
          rank_j < rank && (rank < 3 || (rank_j == 2 && s[j].task == s[i].task &&
                                         s[j].node == s[i].node));
      if (!same_thread && !coarser) continue;
      if (best < 0 || s[j].dur_us < s[static_cast<size_t>(best)].dur_us) {
        best = static_cast<int>(j);
      }
    }
    parent[i] = best >= 0 ? best : job;
  }
  return parent;
}

}  // namespace

int64_t SpanLog::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanLog::Begin(std::string name, std::string layer, int64_t query,
                   int parent) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(TimedSpan{std::move(name), std::move(layer), query, parent,
                             now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  const int64_t now = NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_us = now;
}

int64_t SpanLog::StartOf(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(index)].start_us;
}

int64_t SpanLog::AddJob(const mr::JobReport& report, int64_t query,
                        int parent, int64_t start_us) {
  // The shuffle-overlap span is derived from the phases, not a boundary.
  std::vector<clydesdale::obs::SpanRecord> job;
  for (const auto& span : report.spans) {
    if (std::string_view(span.category) != "overlap") job.push_back(span);
  }
  const std::vector<int> parents = JobSpanParents(job);
  int64_t origin = 0;
  int64_t end = start_us;
  for (const auto& span : job) {
    if (CategoryRank(span.category) == 0) origin = span.start_us;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (size_t i = 0; i < job.size(); ++i) {
    const auto& span = job[i];
    const int64_t begin = start_us + span.start_us - origin;
    spans_.push_back(TimedSpan{span.name, span.category, query,
                               parents[i] < 0 ? parent : base + parents[i],
                               begin, begin + span.dur_us});
    if (parents[i] < 0) end = std::max(end, begin + span.dur_us);
  }
  return end;
}

// --- outside-timed layer calls ---------------------------------------------

namespace {

/// The DFS file holding `column` of `table`'s first segment, found by
/// name in the table directory.
Result<std::string> ColumnFile(const mr::MrCluster& cluster,
                               const storage::TableDesc& table,
                               const std::string& column) {
  std::vector<std::string> files =
      cluster.dfs().List(StrCat(table.path, "/", column, "."));
  if (files.empty()) {
    return Status::NotFound(StrCat("no file of column ", column, " under ",
                                   table.path));
  }
  return files.front();
}

double MicrosOf(const Stopwatch& sw) { return sw.ElapsedSeconds() * 1e6; }

}  // namespace

Result<ProbeTimes> ProbeQuery(mr::MrCluster* cluster,
                              const core::StarSchema& star,
                              const core::StarQuerySpec& spec, SpanLog* log,
                              int64_t query, int parent) {
  const clydesdale::hdfs::MiniDfs& dfs = *cluster->dfs();
  const storage::TableDesc& fact = star.fact();
  ProbeTimes times;

  int span = log->Begin("ListTableSplits", "storage", query, parent);
  Stopwatch sw;
  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(dfs, fact));
  times.list_splits_ms = sw.ElapsedSeconds() * 1e3;
  log->End(span);
  times.splits = static_cast<int64_t>(splits.size());

  // What the split listing and the per-split column opens ask the namenode.
  CLY_ASSIGN_OR_RETURN(const std::string anchor,
                       ColumnFile(*cluster, fact, fact.schema->field(0).name));
  std::vector<std::string> files;
  for (const std::string& column : core::FactColumnsFor(spec)) {
    CLY_ASSIGN_OR_RETURN(std::string file, ColumnFile(*cluster, fact, column));
    files.push_back(std::move(file));
  }
  span = log->Begin("BlockLocations", "hdfs", query, parent);
  sw.Restart();
  for (const storage::StorageSplit& split : splits) {
    CLY_RETURN_IF_ERROR(
        dfs.BlockLocations(anchor, split.block_in_segment).status());
  }
  times.block_locations_us = MicrosOf(sw);
  log->End(span);

  span = log->Begin("Open", "hdfs", query, parent);
  sw.Restart();
  for (const storage::StorageSplit& split : splits) {
    const clydesdale::hdfs::NodeId node = split.preferred_nodes.empty()
                                              ? clydesdale::hdfs::kNoNode
                                              : split.preferred_nodes.front();
    for (const std::string& file : files) {
      CLY_RETURN_IF_ERROR(dfs.Open(file, node).status());
    }
  }
  times.open_us = MicrosOf(sw);
  log->End(span);

  span = log->Begin("Stat", "hdfs", query, parent);
  sw.Restart();
  for (size_t s = 0; s < splits.size(); ++s) {
    for (const std::string& file : files) {
      CLY_RETURN_IF_ERROR(dfs.Stat(file).status());
    }
  }
  times.stat_us = MicrosOf(sw);
  log->End(span);

  span = log->Begin("DimHashTable::Build", "core", query, parent);
  sw.Restart();
  for (const core::DimJoinSpec& join : spec.dims) {
    CLY_ASSIGN_OR_RETURN(const core::DimTableInfo* dim,
                         star.dim(join.dimension));
    CLY_ASSIGN_OR_RETURN(clydesdale::hdfs::BlockBuffer replica,
                         cluster->local_store(0)->Read(dim->local_path));
    CLY_RETURN_IF_ERROR(core::DimHashTable::Build(
                            *dim->desc.schema, replica->data(), replica->size(),
                            *join.predicate, join.dim_pk, join.aux_columns)
                            .status());
  }
  times.build_ms = sw.ElapsedSeconds() * 1e3;
  log->End(span);
  return times;
}

Result<double> ScanRowsPerSecond(mr::MrCluster* cluster,
                                 const core::StarSchema& star) {
  const clydesdale::hdfs::MiniDfs& dfs = *cluster->dfs();
  CLY_ASSIGN_OR_RETURN(clydesdale::core::StarQuerySpec q41,
                       clydesdale::ssb::QueryById("Q4.1"));
  storage::ScanOptions options;
  options.projection = core::FactColumnsFor(q41);
  Stopwatch sw;
  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(dfs, star.fact()));
  int64_t rows = 0;
  for (const storage::StorageSplit& split : splits) {
    CLY_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::BatchReader> reader,
        storage::OpenSplitBatchReader(dfs, star.fact(), split, options));
    clydesdale::RowBatch batch(reader->output_schema());
    while (true) {
      CLY_ASSIGN_OR_RETURN(bool more, reader->NextBatch(&batch, 4096));
      if (!more) break;
      rows += batch.num_rows();
    }
  }
  return static_cast<double>(rows) / sw.ElapsedSeconds();
}

// --- figures from job reports ----------------------------------------------

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  return v.empty() ? 0 : NearestRankPercentile(std::move(v), 50);
}

uint64_t MapOutputBytes(const mr::JobReport& job) {
  uint64_t bytes = 0;
  for (const mr::TaskReport& task : job.map_tasks) bytes += task.output_bytes;
  return bytes;
}

uint64_t LargestReducerInput(const mr::JobReport& job) {
  uint64_t bytes = 0;
  for (const mr::TaskReport& task : job.reduce_tasks) {
    bytes = std::max(bytes, task.shuffle_bytes_total);
  }
  return bytes;
}

}  // namespace

void PrintJobCosts(const std::vector<TracedQuery>& traced, const SpanLog& log) {
  std::printf("per-job cost parameters (replication rate = map output / map "
              "input; largest reducer input):\n");
  std::set<std::string> seen;
  for (const TracedQuery& query : traced) {
    const std::string& key = log.spans()[static_cast<size_t>(query.span)].name;
    const std::string id = key.substr(0, key.find('|'));
    if (query.result.from_result_cache || !seen.insert(id).second) continue;
    for (const mr::JobReport& job : query.result.stage_reports) {
      std::printf("  %-5s %-34s map in %10llu B  out %10llu B  rate %.6g  "
                  "largest reducer input %llu B\n",
                  id.c_str(), job.job_name.c_str(),
                  static_cast<unsigned long long>(job.TotalMapInputBytes()),
                  static_cast<unsigned long long>(MapOutputBytes(job)),
                  Ratio(static_cast<double>(MapOutputBytes(job)),
                        static_cast<double>(job.TotalMapInputBytes())),
                  static_cast<unsigned long long>(LargestReducerInput(job)));
    }
  }
}

void AddReportMetrics(const std::vector<TracedQuery>& traced,
                      const SpanLog& log, MetricValues* out) {
  const double queries = static_cast<double>(std::max<size_t>(traced.size(), 1));
  std::map<std::string, double> sum;  // counters over every job run
  double job_ms = 0, map_tasks = 0, data_local = 0, shuffle = 0;
  double map_in = 0, map_out = 0, max_reducer_in = 0, intermediate = 0;
  double jobs = 0;
  std::vector<double> job_walls, task_p50s, task_maxes, reduce_maxes;
  for (const TracedQuery& query : traced) {
    // A result-cache answer replays the reports of the query that built it.
    if (query.result.from_result_cache) continue;
    const auto& stages = query.result.stage_reports;
    for (size_t k = 0; k < stages.size(); ++k) {
      const mr::JobReport& job = stages[k];
      for (const auto& [name, value] : job.counters.Snapshot()) {
        sum[name] += static_cast<double>(value);
      }
      ++jobs;
      job_ms += job.wall_seconds * 1e3;
      job_walls.push_back(job.wall_seconds * 1e3);
      map_tasks += static_cast<double>(job.map_tasks.size());
      data_local += job.DataLocalMaps();
      shuffle += static_cast<double>(job.TotalShuffleBytes());
      // Afrati et al.'s cost parameters: replication rate = map output over
      // map input, and the largest single reducer input.
      map_in += static_cast<double>(job.TotalMapInputBytes());
      map_out += static_cast<double>(MapOutputBytes(job));
      max_reducer_in = std::max(
          max_reducer_in, static_cast<double>(LargestReducerInput(job)));
      std::vector<double> task_ms;
      for (const mr::TaskReport& task : job.map_tasks) {
        task_ms.push_back(task.wall_seconds * 1e3);
      }
      if (!task_ms.empty()) {
        task_maxes.push_back(*std::max_element(task_ms.begin(), task_ms.end()));
        task_p50s.push_back(Median(std::move(task_ms)));
      }
      double reduce_max = 0;
      for (const mr::TaskReport& task : job.reduce_tasks) {
        reduce_max = std::max(reduce_max, task.wall_seconds * 1e3);
      }
      if (!job.reduce_tasks.empty()) reduce_maxes.push_back(reduce_max);
      if (k + 1 < stages.size()) {
        intermediate +=
            static_cast<double>(job.counters.Get(mr::kCounterHdfsBytesWritten));
      }
    }
  }
  const auto per_query = [&](const char* counter) {
    return sum[counter] / queries;
  };
  const auto mean = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return v.empty() ? 0 : total / static_cast<double>(v.size());
  };

  MetricValues& m = *out;
  m["hdfs.read_ops"] = per_query(mr::kCounterHdfsReadOps);
  m["hdfs.read_us"] = per_query(mr::kCounterHdfsReadMicros);
  m["hdfs.remote_read_ratio"] =
      Ratio(sum[mr::kCounterHdfsBytesReadRemote],
            sum[mr::kCounterHdfsBytesReadRemote] +
                sum[mr::kCounterHdfsBytesReadLocal]);
  m["hdfs.bytes_written"] = per_query(mr::kCounterHdfsBytesWritten);
  m["storage.encoded_ratio"] = Ratio(sum[mr::kCounterCifBytesEncoded],
                                     sum[mr::kCounterCifBytesRaw]);
  m["storage.blocks_skipped"] = per_query(mr::kCounterCifBlocksSkipped);
  m["storage.rows_pruned"] = per_query(mr::kCounterCifRowsPruned);
  m["core.hash_builds"] = per_query(core::kCounterHashBuilds);
  m["core.hash_build_rows"] = per_query(core::kCounterHashBuildRows);
  m["core.hash_bytes"] = per_query(core::kCounterHashBytes);
  m["core.probe_rows"] = per_query(core::kCounterProbeRows);
  m["core.probe_hit_ratio"] = Ratio(sum[core::kCounterJoinOutputRows],
                                    sum[core::kCounterProbeRows]);
  m["core.agg_groups"] = per_query(core::kCounterAggGroups);
  m["mr.job_wall_ms"] = job_ms / queries;
  m["mr.map_tasks"] = map_tasks / queries;
  m["mr.map_task_p50_ms"] = mean(task_p50s);
  m["mr.map_task_max_ms"] = mean(task_maxes);
  m["mr.reduce_task_max_ms"] = mean(reduce_maxes);
  m["mr.data_local_ratio"] = Ratio(data_local, map_tasks);
  m["mr.shuffle_bytes"] = shuffle / queries;
  m["mr.replication_rate"] = Ratio(map_out, map_in);
  m["mr.max_reducer_input_bytes"] = max_reducer_in;
  m["mr.sched_pulls"] = per_query(mr::kCounterSchedPulls);
  m["hive.stage_jobs"] = jobs / queries;
  m["hive.stage_p50_ms"] = Median(job_walls);
  m["hive.intermediate_mb_written"] = intermediate / 1e6 / queries;
  m["hive.shuffle_mb"] = shuffle / 1e6 / queries;

  // Span self times, summed per span name over the traced queries.
  const std::vector<TimedSpan>& spans = log.spans();
  const std::vector<int64_t> self = SelfMicros(spans);
  std::map<std::string, double> self_ms;
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> phases;
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ms[spans[i].name] += static_cast<double>(self[i]) / 1e3;
    if (spans[i].layer == "phase") {
      phases[spans[i].query].emplace_back(spans[i].start_us, spans[i].end_us);
    }
  }
  m["core.hash_tables_self_ms"] = self_ms["hash-tables"] / queries;
  m["core.hash_build_self_ms"] = self_ms["hash-build"] / queries;
  m["core.probe_self_ms"] = self_ms["probe"] / queries;
  m["core.aggregate_self_ms"] = self_ms["aggregate"] / queries;
  m["mr.setup_self_ms"] = self_ms["setup"] / queries;
  m["mr.shuffle_self_ms"] = self_ms["shuffle-fetch"] / queries;
  m["mr.commit_self_ms"] = self_ms["commit"] / queries;
  // Query wall time that no MapReduce phase span covers: planning, client
  // sort, cache lookups, and gaps between stage jobs.
  double unaccounted_us = 0;
  for (const TracedQuery& query : traced) {
    const TimedSpan& span = spans[static_cast<size_t>(query.span)];
    unaccounted_us += static_cast<double>(
        span.end_us - span.start_us -
        CoveredMicros(phases[span.query], span.start_us, span.end_us));
  }
  m["mr.unaccounted_ms"] = unaccounted_us / 1e3 / queries;
}

}  // namespace perfbench
