#include "core/clydesdale.h"

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/aggregation.h"
#include "core/staged_join.h"
#include "mapreduce/input_format.h"
#include "storage/scan_spec.h"

namespace clydesdale {
namespace core {

int64_t QueryResult::Counter(const std::string& name) const {
  int64_t total = 0;
  for (const mr::JobReport& report : stage_reports) {
    total += report.counters.Get(name);
  }
  return total;
}

ClydesdaleEngine::ClydesdaleEngine(mr::MrCluster* cluster, StarSchema star,
                                   ClydesdaleOptions options)
    : cluster_(cluster),
      star_(std::make_shared<const StarSchema>(std::move(star))),
      options_(options) {}

Result<QueryResult> ClydesdaleEngine::Execute(const StarQuerySpec& spec) {
  // Memory-constrained fallback (paper §5.1): if the dimension hash tables
  // will not all fit the per-node budget, join in stages instead.
  if (options_.max_hash_memory_bytes > 0) {
    uint64_t estimate = 0;
    for (const DimJoinSpec& join : spec.dims) {
      CLY_ASSIGN_OR_RETURN(const DimTableInfo* dim, star_->dim(join.dimension));
      estimate += EstimateDimHashBytes(*dim, join);
    }
    if (estimate > options_.max_hash_memory_bytes) {
      return ExecuteStagedStarJoin(cluster_, star_, spec, options_,
                                   options_.max_hash_memory_bytes);
    }
  }

  Stopwatch timer;
  mr::JobConf conf;
  conf.job_name = StrCat("clydesdale-", spec.id);
  conf.num_reduce_tasks = options_.reduce_tasks;
  conf.jvm_reuse = options_.jvm_reuse;
  conf.single_task_per_node = options_.multithreaded;
  ApplyTraceConf(options_, &conf);
  if (options_.mem_budget_bytes > 0) {
    // Admission control: hand the engine the same dimension-table estimate
    // the staged fallback uses, so RunJob can reject the query up front
    // instead of failing mid-build on the job tracker's limit.
    uint64_t estimate = 0;
    for (const DimJoinSpec& join : spec.dims) {
      CLY_ASSIGN_OR_RETURN(const DimTableInfo* dim, star_->dim(join.dimension));
      estimate += EstimateDimHashBytes(*dim, join);
    }
    conf.SetInt(mr::kConfMemEstimateBytes, static_cast<int64_t>(estimate));
  }

  conf.Set(mr::kConfInputTable, star_->fact().path);
  // Columnar pushdown: only the query's fact columns; the §6.5 ablation
  // reads every column instead.
  std::vector<std::string> projection = FactColumnsFor(spec);
  if (!options_.columnar) {
    projection.clear();
    for (const Field& f : star_->fact().schema->fields()) {
      projection.push_back(f.name);
    }
  }
  conf.SetList(mr::kConfInputProjection, projection);
  conf.SetInt(mr::kConfMultiSplitSize, options_.multisplit_size);
  // Fact-predicate pushdown for the generic reader path (the
  // single-threaded ablation); the MT runner builds a richer spec with
  // dimension key filters once its hash tables exist.
  auto scan = std::make_shared<storage::ScanSpec>();
  scan->conjuncts = CollectScanConjuncts(spec.fact_predicate);
  if (!scan->empty()) conf.scan_spec = std::move(scan);

  const std::shared_ptr<const StarSchema> star = star_;
  const ClydesdaleOptions options = options_;
  if (options_.multithreaded) {
    conf.input_format_factory = [] {
      return std::make_unique<mr::MultiCifInputFormat>();
    };
    conf.map_runner_factory = [star, spec, options] {
      return std::make_unique<StarJoinMapRunner>(star, spec, options);
    };
  } else {
    conf.input_format_factory = [] {
      return std::make_unique<mr::TableInputFormat>();
    };
    conf.mapper_factory = [star, spec, options] {
      return std::make_unique<StarJoinMapper>(star, spec, options);
    };
  }
  const AggLayout layout = AggLayout::For(spec.aggregates);
  conf.reducer_factory = [layout] {
    return std::make_unique<AggReducer>(layout);
  };
  if (!options_.map_side_agg) {
    // Per-row emission: combine before the shuffle instead (paper §4.2).
    conf.combiner_factory = [layout] {
      return std::make_unique<AggReducer>(layout, "combine");
    };
  }
  conf.output_format_factory = [] {
    return std::make_unique<mr::MemoryOutputFormat>();
  };

  CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster_, conf));

  QueryResult result;
  result.rows = std::move(job.output_rows);
  // Finalize accumulators (AVG -> sum/count), then sortResult(): the final
  // ORDER BY is a single-process sort (Figure 4, line 33).
  CLY_RETURN_IF_ERROR(FinalizeAggRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(SortResultRows(spec, &result.rows));
  result.stage_reports.push_back(std::move(job.report));
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace core
}  // namespace clydesdale
