#include "core/staged_join.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/aggregation.h"
#include "core/dim_hash_table.h"
#include "core/repartition_join.h"
#include "core/star_join_job.h"
#include "mapreduce/input_format.h"

namespace clydesdale {
namespace core {

namespace {

/// Reducers of the aggregating stage. The map side has already aggregated
/// each node's rows, so one reducer finishes the few partial groups.
constexpr int kAggReduceTasks = 1;

/// True when `column` is an aux column of spec.dims[d].
bool IsAuxOf(const StarQuerySpec& spec, int d, const std::string& column) {
  const auto& aux = spec.dims[static_cast<size_t>(d)].aux_columns;
  return std::find(aux.begin(), aux.end(), column) != aux.end();
}

/// The CIF intermediate table a join-only stage writes for the next stage.
struct StageOutput {
  std::string table;
  /// Output columns in row order, and their "name:type" declarations.
  std::vector<std::string> columns;
  std::vector<std::string> decl;
  uint64_t rows_per_split = 0;
};

void ConfigureIntermediateOutput(const StageOutput& output,
                                 mr::JobConf* conf) {
  conf->Set(mr::kConfOutputTable, output.table);
  conf->Set(mr::kConfOutputColumns, StrJoin(output.decl, ","));
  conf->Set(mr::kConfOutputFormat, storage::kFormatCif);
  conf->SetInt("output.rows_per_split",
               static_cast<int64_t>(
                   std::max<uint64_t>(output.rows_per_split, 1024)));
  conf->output_format_factory = [] {
    return std::make_unique<mr::TableOutputFormat>();
  };
}

/// The job of one hash-join stage: `sub` joins its dimensions against
/// `star->fact()`, the stage's input table, reading `projection`. With no
/// `output` the stage aggregates and its rows come back in memory;
/// otherwise it is map-only and writes the joined rows to `output`.
mr::JobConf MakeHashJoinStage(std::shared_ptr<const StarSchema> star,
                              const StarQuerySpec& sub,
                              const ClydesdaleOptions& options,
                              const std::vector<std::string>& projection,
                              const StageOutput* output) {
  mr::JobConf conf;
  conf.job_name = StrCat("clydesdale-", sub.id);
  conf.num_reduce_tasks = kAggReduceTasks;
  conf.jvm_reuse = options.jvm_reuse;
  conf.single_task_per_node = options.multithreaded;
  ApplyTraceConf(options, &conf);

  conf.Set(mr::kConfInputTable, star->fact().path);
  conf.SetList(mr::kConfInputProjection, projection);
  // Multithreaded: one multi-split task per node, its slots as probe
  // threads. Off: one-split tasks on one slot each, through the same runner,
  // so the ablation switches off the threading and nothing else.
  if (options.multithreaded) {
    conf.input_format_factory = [] {
      return std::make_unique<mr::MultiCifInputFormat>();
    };
  } else {
    conf.input_format_factory = [] {
      return std::make_unique<mr::TableInputFormat>();
    };
  }
  conf.map_runner_factory = [star, sub, options] {
    return std::make_unique<StarJoinMapRunner>(star, sub, options);
  };

  if (output != nullptr) {
    conf.SetList(kConfJoinEmitColumns, output->columns);
    conf.num_reduce_tasks = 0;
    ConfigureIntermediateOutput(*output, &conf);
    return conf;
  }
  const AggLayout layout = AggLayout::For(sub.aggregates);
  conf.reducer_factory = [layout] {
    return std::make_unique<AggReducer>(layout);
  };
  if (!options.map_side_agg) {
    // Per-row emission: combine before the shuffle instead (paper §4.2).
    conf.combiner_factory = [layout] {
      return std::make_unique<AggReducer>(layout, "combine");
    };
  }
  conf.output_format_factory = [] {
    return std::make_unique<mr::MemoryOutputFormat>();
  };
  return conf;
}

}  // namespace

uint64_t EstimateDimHashBytes(const DimTableInfo& dim,
                              const DimJoinSpec& join) {
  double payload = 0;
  for (const std::string& aux : join.aux_columns) {
    const int i = dim.desc.schema->IndexOf(aux);
    payload += i >= 0 ? dim.desc.schema->field(i).avg_width : 16.0;
  }
  // The bucket lanes are sized as the table sizes them: per bucket an
  // 8-byte key, a 4-byte slot and at most 8 bytes of membership bitmap. Per
  // row, each aux column adds 32 bytes plus 1.5x its average width (a typed
  // array entry is at most a 16-byte string view, plus the string's arena
  // bytes). Assumes every dimension row qualifies, which makes it an upper
  // bound; DimHashEstimateTest checks it against every SSB build.
  const uint64_t buckets = DimHashTable::CapacityFor(dim.desc.num_rows);
  const double per_entry =
      32.0 * static_cast<double>(join.aux_columns.size()) + payload * 1.5;
  return buckets * (8 + 4 + 8) +
         static_cast<uint64_t>(static_cast<double>(dim.desc.num_rows) *
                               per_entry);
}

Result<std::vector<StagedGroup>> PlanDimGroups(const StarSchema& star,
                                               const StarQuerySpec& spec,
                                               uint64_t budget_bytes) {
  // 0 means unlimited: every dimension fits, so one hash group.
  if (budget_bytes == 0) budget_bytes = std::numeric_limits<uint64_t>::max();
  std::vector<StagedGroup> groups;
  StagedGroup current;
  uint64_t current_bytes = 0;
  auto flush = [&] {
    if (!current.dims.empty()) {
      groups.push_back(std::move(current));
      current = {};
      current_bytes = 0;
    }
  };
  for (size_t d = 0; d < spec.dims.size(); ++d) {
    CLY_ASSIGN_OR_RETURN(const DimTableInfo* dim,
                         star.dim(spec.dims[d].dimension));
    const uint64_t bytes = EstimateDimHashBytes(*dim, spec.dims[d]);
    if (bytes > budget_bytes) {
      // Too big even alone: its own repartition stage (paper §5.1).
      flush();
      StagedGroup big;
      big.dims = {static_cast<int>(d)};
      big.repartition = true;
      groups.push_back(std::move(big));
      continue;
    }
    if (!current.dims.empty() && bytes > budget_bytes - current_bytes) {
      flush();
    }
    current.dims.push_back(static_cast<int>(d));
    current_bytes += bytes;
  }
  flush();
  return groups;
}

Result<QueryResult> ExecuteStagedStarJoin(
    mr::MrCluster* cluster, std::shared_ptr<const StarSchema> star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options) {
  Stopwatch timer;
  CLY_ASSIGN_OR_RETURN(
      std::vector<StagedGroup> groups,
      PlanDimGroups(*star, spec, options.max_hash_memory_bytes));
  // The last stage aggregates, so it must be a hash-join group: after a
  // trailing repartition group (or with no dimension at all) a
  // zero-dimension group aggregates the fully joined intermediate.
  if (groups.empty() || groups.back().repartition) groups.emplace_back();
  const std::vector<std::string> keep = KeptFactColumns(spec);

  QueryResult result;
  mr::QueryScratch scratch(cluster);

  // Columns stage j > 0 reads, given groups >= j are still unjoined.
  auto projection_for = [&](size_t j, const Schema& input_schema) {
    std::vector<std::string> projection;
    for (size_t e = j; e < groups.size(); ++e) {
      for (int d : groups[e].dims) {
        AddUnique(&projection, spec.dims[static_cast<size_t>(d)].fact_fk);
      }
    }
    for (const std::string& c : keep) AddUnique(&projection, c);
    for (const std::string& g : spec.group_by) {
      // Aux carried from an earlier stage.
      if (input_schema.IndexOf(g) >= 0) AddUnique(&projection, g);
    }
    return projection;
  };

  // Output columns of join-only stage j (group joined, nothing aggregated).
  auto emit_for = [&](size_t j) {
    std::vector<std::string> emit;
    for (size_t e = j + 1; e < groups.size(); ++e) {
      for (int d : groups[e].dims) {
        AddUnique(&emit, spec.dims[static_cast<size_t>(d)].fact_fk);
      }
    }
    for (const std::string& c : keep) AddUnique(&emit, c);
    for (const std::string& g : spec.group_by) {
      // Carried from earlier stages or joined by this one.
      for (size_t e = 0; e <= j; ++e) {
        for (int d : groups[e].dims) {
          if (IsAuxOf(spec, d, g)) AddUnique(&emit, g);
        }
      }
    }
    return emit;
  };

  auto stage_output = [&](size_t j, const std::vector<std::string>& columns,
                          const Schema& input_schema)
      -> Result<StageOutput> {
    StageOutput output;
    output.table = StrCat("/tmp/clydesdale/", spec.id, "/stage", j + 1);
    output.columns = columns;
    output.rows_per_split = star->fact().rows_per_split;
    for (const std::string& c : columns) {
      const Field* field = nullptr;
      if (int i = input_schema.IndexOf(c); i >= 0) {
        field = &input_schema.field(i);
      } else {
        for (int d : groups[j].dims) {
          CLY_ASSIGN_OR_RETURN(
              const DimTableInfo* dim,
              star->dim(spec.dims[static_cast<size_t>(d)].dimension));
          if (int i = dim->desc.schema->IndexOf(c); i >= 0) {
            field = &dim->desc.schema->field(i);
            break;
          }
        }
      }
      if (field == nullptr) {
        return Status::Internal(
            StrCat("staged join cannot type output column '", c, "'"));
      }
      output.decl.push_back(StrCat(c, ":", TypeKindToString(field->type)));
    }
    CLY_RETURN_IF_ERROR(cluster->DropTable(output.table));
    scratch.Add(output.table);
    return output;
  };

  // Stage 1 reads the fact table itself; later stages read the previous
  // stage's output.
  std::shared_ptr<const StarSchema> stage_star = star;
  for (size_t j = 0; j < groups.size(); ++j) {
    const StagedGroup& group = groups[j];
    const bool last = j + 1 == groups.size();
    const Schema& input_schema = *stage_star->fact().schema;
    std::vector<std::string> projection;
    if (j > 0) {
      projection = projection_for(j, input_schema);
    } else if (options.columnar) {
      projection = FactColumnsFor(spec);
    } else {
      projection = input_schema.FieldNames();  // the §6.5 ablation
    }
    const std::string stage_id =
        groups.size() == 1 ? spec.id : StrCat(spec.id, "#stage", j + 1);
    const Predicate::Ptr fact_predicate =
        j == 0 ? spec.fact_predicate : Predicate::True();

    mr::JobConf conf;
    std::string output_table;
    if (group.repartition) {
      // --- oversized dimension: tagged repartition join ------------------------
      const int d = group.dims[0];
      const DimJoinSpec& dj = spec.dims[static_cast<size_t>(d)];
      CLY_ASSIGN_OR_RETURN(const DimTableInfo* dim, star->dim(dj.dimension));

      RepartitionJoinSpec join;
      CLY_ASSIGN_OR_RETURN(join.fact_schema,
                           input_schema.ProjectByName(projection));
      join.fact_predicate = fact_predicate;
      join.fact_fk = dj.fact_fk;
      join.dim_predicate = dj.predicate;
      join.dim_pk = dj.dim_pk;
      std::vector<std::string> dim_cols;
      AddUnique(&dim_cols, dj.dim_pk);
      std::vector<std::string> pred_cols;
      dj.predicate->CollectColumns(&pred_cols);
      for (const std::string& c : pred_cols) AddUnique(&dim_cols, c);
      for (const std::string& c : emit_for(j)) {
        if (IsAuxOf(spec, d, c)) {
          AddUnique(&dim_cols, c);
          join.aux_cols.push_back(c);
        } else {
          join.fact_out_cols.push_back(c);
        }
      }
      CLY_ASSIGN_OR_RETURN(join.dim_schema,
                           dim->desc.schema->ProjectByName(dim_cols));

      // One reducer per node spreads the shuffled fact table.
      conf = MakeRepartitionJoinJob(join, stage_star->fact().path,
                                    dim->desc.path, cluster->num_nodes());
      conf.job_name = StrCat("clydesdale-", stage_id);
      ApplyTraceConf(options, &conf);
      // Output order mirrors the reducer: fact_out_cols then aux_cols.
      std::vector<std::string> ordered = join.fact_out_cols;
      for (const std::string& c : join.aux_cols) ordered.push_back(c);
      CLY_ASSIGN_OR_RETURN(StageOutput output,
                           stage_output(j, ordered, input_schema));
      ConfigureIntermediateOutput(output, &conf);
      output_table = output.table;
    } else {
      // --- hash-join stage; the last one aggregates ------------------------------
      StarQuerySpec sub;
      sub.id = stage_id;
      sub.fact_predicate = fact_predicate;
      for (int d : group.dims) {
        sub.dims.push_back(spec.dims[static_cast<size_t>(d)]);
      }
      if (last) {
        sub.aggregates = spec.aggregates;
        sub.group_by = spec.group_by;
        sub.order_by = spec.order_by;
        conf = MakeHashJoinStage(stage_star, sub, options, projection,
                                 nullptr);
      } else {
        CLY_ASSIGN_OR_RETURN(StageOutput output,
                             stage_output(j, emit_for(j), input_schema));
        conf = MakeHashJoinStage(stage_star, sub, options, projection,
                                 &output);
        output_table = output.table;
      }
    }

    CLY_ASSIGN_OR_RETURN(mr::JobResult job, mr::RunJob(cluster, conf));
    if (last) result.rows = std::move(job.output_rows);
    result.stage_reports.push_back(std::move(job.report));
    if (!last) {
      CLY_ASSIGN_OR_RETURN(storage::TableDesc next,
                           cluster->GetTable(output_table));
      auto next_star = std::make_shared<StarSchema>(*star);
      *next_star->mutable_fact() = std::move(next);
      stage_star = std::move(next_star);
    }
  }

  // Finalize accumulators (AVG -> sum/count), then sortResult(): the final
  // ORDER BY is a single-process sort (Figure 4, line 33).
  CLY_RETURN_IF_ERROR(FinalizeAggRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(SortResultRows(spec, &result.rows));
  CLY_RETURN_IF_ERROR(scratch.Drop());
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace core
}  // namespace clydesdale
