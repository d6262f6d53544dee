#include "hive/hive_plan.h"

#include <algorithm>

#include "common/strings.h"
#include "core/aggregation.h"

namespace clydesdale {
namespace hive {

const char* JoinStrategyName(JoinStrategy strategy) {
  return strategy == JoinStrategy::kRepartition ? "repartition" : "mapjoin";
}

namespace {

std::string DeclOf(const Schema& schema) {
  std::vector<std::string> parts;
  for (const Field& f : schema.fields()) {
    parts.push_back(StrCat(f.name, ":", TypeKindToString(f.type)));
  }
  return StrJoin(parts, ",");
}

}  // namespace

Result<HivePlan> CompileHivePlan(const core::StarSchema& star,
                                 const core::StarQuerySpec& spec,
                                 const std::string& scratch_root) {
  HivePlan plan;
  const SchemaPtr fact_schema = star.fact().schema;

  // Fact columns that must survive the whole join chain. Predicate-only
  // columns are read in stage 1 and dropped right after the filter.
  const std::vector<std::string> keep = core::KeptFactColumns(spec);

  // Working-set bookkeeping across stages.
  std::string current_table = star.fact().path;
  SchemaPtr current_schema;  // set per stage from the projections

  for (size_t d = 0; d < spec.dims.size(); ++d) {
    const core::DimJoinSpec& join = spec.dims[d];
    CLY_ASSIGN_OR_RETURN(const core::DimTableInfo* dim,
                         star.dim(join.dimension));

    JoinStageSpec stage;
    stage.stage_index = static_cast<int>(d);
    stage.fact_table = current_table;
    stage.fact_fk = join.fact_fk;

    if (d == 0) {
      // Stage 1 reads the base fact table: remaining FKs + kept columns +
      // predicate columns.
      stage.fact_predicate = spec.fact_predicate;
      std::vector<std::string> cols;
      for (const core::DimJoinSpec& dj : spec.dims) {
        AddUnique(&cols, dj.fact_fk);
      }
      std::vector<std::string> pred_cols;
      spec.fact_predicate->CollectColumns(&pred_cols);
      for (const std::string& c : pred_cols) AddUnique(&cols, c);
      for (const std::string& c : keep) AddUnique(&cols, c);
      CLY_ASSIGN_OR_RETURN(stage.fact_schema,
                           fact_schema->ProjectByName(cols));
    } else {
      stage.fact_schema = current_schema;
    }

    // Output fact columns: everything except this stage's fk and (after
    // stage 1) predicate-only columns.
    for (const std::string& c : stage.fact_schema->FieldNames()) {
      if (c == stage.fact_fk) continue;
      const bool is_later_fk = [&] {
        for (size_t e = d + 1; e < spec.dims.size(); ++e) {
          if (spec.dims[e].fact_fk == c) return true;
        }
        return false;
      }();
      const bool is_kept =
          std::find(keep.begin(), keep.end(), c) != keep.end();
      const bool is_carried_aux =
          stage.fact_schema->IndexOf(c) >= 0 &&
          fact_schema->IndexOf(c) < 0;  // aux col from an earlier join
      if (is_later_fk || is_kept || is_carried_aux) {
        stage.fact_out_cols.push_back(c);
      }
    }

    // Dimension side projection: pk + predicate columns + aux.
    stage.dim_table = dim->desc.path;
    stage.dim_predicate = join.predicate;
    stage.dim_pk = join.dim_pk;
    stage.aux_cols = join.aux_columns;
    {
      std::vector<std::string> cols;
      AddUnique(&cols, join.dim_pk);
      std::vector<std::string> pred_cols;
      join.predicate->CollectColumns(&pred_cols);
      for (const std::string& c : pred_cols) AddUnique(&cols, c);
      for (const std::string& c : join.aux_columns) AddUnique(&cols, c);
      CLY_ASSIGN_OR_RETURN(stage.dim_schema,
                           dim->desc.schema->ProjectByName(cols));
    }

    // Output schema: fact_out_cols (types from the fact-side schema) then
    // aux (types from the dimension).
    {
      std::vector<Field> fields;
      for (const std::string& c : stage.fact_out_cols) {
        CLY_ASSIGN_OR_RETURN(int i, stage.fact_schema->Require(c));
        fields.push_back(stage.fact_schema->field(i));
      }
      for (const std::string& c : stage.aux_cols) {
        CLY_ASSIGN_OR_RETURN(int i, stage.dim_schema->Require(c));
        fields.push_back(stage.dim_schema->field(i));
      }
      stage.output_schema = Schema::Make(std::move(fields));
      stage.output_columns_decl = DeclOf(*stage.output_schema);
    }
    stage.output_table =
        StrCat(scratch_root, "/", spec.id, "/join", d + 1);

    current_table = stage.output_table;
    current_schema = stage.output_schema;
    plan.joins.push_back(std::move(stage));
  }

  // Group-by stage over the final joined table.
  AggStageSpec agg;
  agg.input_table = current_table;
  agg.input_schema = current_schema;
  agg.group_by = spec.group_by;
  agg.aggregates = spec.aggregates;
  agg.output_table = StrCat(scratch_root, "/", spec.id, "/grouped");
  {
    std::vector<Field> fields;
    for (const std::string& g : spec.group_by) {
      CLY_ASSIGN_OR_RETURN(int i, current_schema->Require(g));
      fields.push_back(current_schema->field(i));
    }
    // The grouped table stores raw accumulators; AVG finalizes client-side.
    for (const std::string& acc :
         core::AggLayout::For(spec.aggregates).AccumulatorNames()) {
      fields.push_back(Field{acc, TypeKind::kInt64, 8});
    }
    agg.output_schema = Schema::Make(std::move(fields));
    agg.output_columns_decl = DeclOf(*agg.output_schema);
  }
  plan.agg = std::move(agg);
  return plan;
}

}  // namespace hive
}  // namespace clydesdale
