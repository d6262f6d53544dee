#include "hive/hive_engine.h"

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/aggregation.h"
#include "hive/agg_stages.h"
#include "hive/map_join.h"
#include "hive/repartition_join.h"
#include "mapreduce/job_trace.h"

namespace clydesdale {
namespace hive {

HiveEngine::HiveEngine(mr::MrCluster* cluster, core::StarSchema star,
                       HiveOptions options)
    : cluster_(cluster), star_(std::move(star)), options_(std::move(options)) {}

Result<core::QueryResult> HiveEngine::Execute(const core::StarQuerySpec& spec) {
  Stopwatch timer;
  auto apply_trace = [this](mr::JobConf* conf) {
    if (options_.trace) conf->SetBool(mr::kConfTraceEnabled, true);
    if (!options_.trace_dir.empty()) {
      conf->Set(mr::kConfTraceDir, options_.trace_dir);
    }
    if (options_.profile) conf->SetBool(mr::kConfProfileEnabled, true);
  };
  const std::string scratch =
      StrCat(options_.scratch_root, "/", JoinStrategyName(options_.strategy));
  CLY_ASSIGN_OR_RETURN(HivePlan plan, CompileHivePlan(star_, spec, scratch));

  core::QueryResult result;

  // --- join stages, one MapReduce job per dimension ---------------------------
  for (const JoinStageSpec& stage : plan.joins) {
    if (cluster_->dfs()->Exists(stage.output_table + "/_meta")) {
      CLY_ASSIGN_OR_RETURN(int removed,
                           cluster_->dfs()->DeleteRecursive(stage.output_table));
      (void)removed;
      cluster_->InvalidateTable(stage.output_table);
    }
    mr::JobConf conf;
    if (options_.strategy == JoinStrategy::kRepartition) {
      CLY_ASSIGN_OR_RETURN(conf,
                           MakeRepartitionJoinJob(stage, options_.reduce_tasks));
    } else {
      uint64_t hash_bytes = 0;
      CLY_ASSIGN_OR_RETURN(
          std::string hash_file,
          BuildMapJoinHashFile(cluster_, stage, StrCat(scratch, "/", spec.id),
                               &hash_bytes));
      CLY_ASSIGN_OR_RETURN(conf,
                           MakeMapJoinJob(stage, hash_file, options_.dim_cache));
    }
    conf.job_name = StrCat("hive-", spec.id, "-", conf.job_name);
    apply_trace(&conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.stage_reports.push_back(std::move(job.report));
  }

  // --- group-by stage ----------------------------------------------------------
  if (cluster_->dfs()->Exists(plan.agg.output_table + "/_meta")) {
    CLY_ASSIGN_OR_RETURN(int removed,
                         cluster_->dfs()->DeleteRecursive(plan.agg.output_table));
    (void)removed;
    cluster_->InvalidateTable(plan.agg.output_table);
  }
  {
    CLY_ASSIGN_OR_RETURN(mr::JobConf conf,
                         MakeGroupByJob(plan.agg, options_.reduce_tasks));
    conf.job_name = StrCat("hive-", spec.id, "-groupby");
    apply_trace(&conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.stage_reports.push_back(std::move(job.report));
  }

  // --- order-by stage ------------------------------------------------------------
  {
    CLY_ASSIGN_OR_RETURN(mr::JobConf conf, MakeOrderByJob(plan.agg));
    conf.job_name = StrCat("hive-", spec.id, "-orderby");
    apply_trace(&conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.rows = std::move(job.output_rows);
    result.stage_reports.push_back(std::move(job.report));
  }
  CLY_RETURN_IF_ERROR(core::FinalizeAggRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(core::SortResultRows(spec, &result.rows));

  // --- cleanup -------------------------------------------------------------------
  if (options_.cleanup_intermediates) {
    for (const JoinStageSpec& stage : plan.joins) {
      CLY_ASSIGN_OR_RETURN(int removed,
                           cluster_->dfs()->DeleteRecursive(stage.output_table));
      (void)removed;
      cluster_->InvalidateTable(stage.output_table);
    }
    CLY_ASSIGN_OR_RETURN(int removed,
                         cluster_->dfs()->DeleteRecursive(plan.agg.output_table));
    (void)removed;
    cluster_->InvalidateTable(plan.agg.output_table);
  }

  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace hive
}  // namespace clydesdale
