#include "hive/hive_engine.h"

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/aggregation.h"
#include "core/repartition_join.h"
#include "hive/agg_stages.h"
#include "hive/map_join.h"
#include "mapreduce/job_trace.h"

namespace clydesdale {
namespace hive {

namespace {
/// Reducers of the repartition-join and group-by stages.
constexpr int kReduceTasks = 4;
}  // namespace

HiveEngine::HiveEngine(mr::MrCluster* cluster, core::StarSchema star,
                       HiveOptions options)
    : cluster_(cluster), star_(std::move(star)), options_(std::move(options)) {}

Result<core::QueryResult> HiveEngine::Execute(const core::StarQuerySpec& spec) {
  Stopwatch timer;
  const std::string scratch =
      StrCat(options_.scratch_root, "/", JoinStrategyName(options_.strategy));
  CLY_ASSIGN_OR_RETURN(HivePlan plan, CompileHivePlan(star_, spec, scratch));

  core::QueryResult result;
  mr::QueryScratch intermediates(cluster_);

  // --- join stages, one MapReduce job per dimension ---------------------------
  for (const JoinStageSpec& stage : plan.joins) {
    CLY_RETURN_IF_ERROR(cluster_->DropTable(stage.output_table));
    intermediates.Add(stage.output_table);
    mr::JobConf conf;
    if (options_.strategy == JoinStrategy::kRepartition) {
      conf = core::MakeRepartitionJoinJob(stage, stage.fact_table,
                                          stage.dim_table, kReduceTasks);
      conf.job_name = StrCat("hive-repartition-join", stage.stage_index + 1);
    } else {
      CLY_ASSIGN_OR_RETURN(
          std::string hash_file,
          BuildMapJoinHashFile(cluster_, stage, StrCat(scratch, "/", spec.id)));
      intermediates.Add(hash_file);
      CLY_ASSIGN_OR_RETURN(conf, MakeMapJoinJob(stage, hash_file));
    }
    conf.job_name = StrCat("hive-", spec.id, "-", conf.job_name);
    conf.Set(mr::kConfOutputTable, stage.output_table);
    conf.Set(mr::kConfOutputColumns, stage.output_columns_decl);
    // Hive serializes intermediate tables as delimited text (its default
    // serde) — one of the overheads the paper charges to the baseline.
    conf.Set(mr::kConfOutputFormat, storage::kFormatText);
    conf.output_format_factory = [] {
      return std::make_unique<mr::TableOutputFormat>();
    };
    mr::ApplyObsConf(options_.trace, options_.trace_dir, options_.profile,
                     &conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.stage_reports.push_back(std::move(job.report));
  }

  // --- group-by stage ----------------------------------------------------------
  CLY_RETURN_IF_ERROR(cluster_->DropTable(plan.agg.output_table));
  intermediates.Add(plan.agg.output_table);
  {
    CLY_ASSIGN_OR_RETURN(mr::JobConf conf,
                         MakeGroupByJob(plan.agg, kReduceTasks));
    conf.job_name = StrCat("hive-", spec.id, "-groupby");
    mr::ApplyObsConf(options_.trace, options_.trace_dir, options_.profile,
                     &conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.stage_reports.push_back(std::move(job.report));
  }

  // --- order-by stage ------------------------------------------------------------
  {
    CLY_ASSIGN_OR_RETURN(mr::JobConf conf, MakeOrderByJob(plan.agg));
    conf.job_name = StrCat("hive-", spec.id, "-orderby");
    mr::ApplyObsConf(options_.trace, options_.trace_dir, options_.profile,
                     &conf);
    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));
    result.rows = std::move(job.output_rows);
    result.stage_reports.push_back(std::move(job.report));
  }
  CLY_RETURN_IF_ERROR(core::FinalizeAggRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(core::SortResultRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(intermediates.Drop());

  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace hive
}  // namespace clydesdale
