#ifndef CLYDESDALE_HIVE_HIVE_PLAN_H_
#define CLYDESDALE_HIVE_HIVE_PLAN_H_

#include <string>
#include <vector>

#include "core/repartition_join.h"
#include "core/star_query.h"
#include "core/star_schema.h"

namespace clydesdale {
namespace hive {

/// How joins execute (paper §6.1): re-partition (common/sort-merge) join or
/// mapjoin (broadcast hash join via the distributed cache).
enum class JoinStrategy { kRepartition, kMapJoin };

const char* JoinStrategyName(JoinStrategy strategy);

/// One fact-with-one-dimension join stage of the Hive plan. Hive joins the
/// dimensions one at a time, each stage a full MapReduce job whose output is
/// round-tripped through HDFS (paper §6.3). The inherited fields describe the
/// join itself; both strategies (repartition and mapjoin) execute it.
struct JoinStageSpec : core::RepartitionJoinSpec {
  int stage_index = 0;
  /// The current working table: the base fact table for stage 1, the
  /// previous stage's output afterwards.
  std::string fact_table;
  std::string dim_table;

  // Output.
  std::string output_table;
  /// "name:type,..." declaration: fact_out_cols then aux_cols.
  std::string output_columns_decl;
  SchemaPtr output_schema;
};

/// The terminal aggregation + ordering stages.
struct AggStageSpec {
  std::string input_table;
  SchemaPtr input_schema;
  std::vector<std::string> group_by;    // columns of input_schema
  std::vector<core::AggSpec> aggregates;  // exprs over input_schema
  std::string output_table;             // grouped result table
  std::string output_columns_decl;
  SchemaPtr output_schema;
};

/// A compiled Hive plan: N join stages, a group-by stage, an order-by stage.
struct HivePlan {
  std::vector<JoinStageSpec> joins;
  AggStageSpec agg;
};

/// Compiles a star query into Hive's stage chain against `star` (whose fact
/// desc must point at the Hive copy of the fact table, e.g. RCFile).
/// Intermediate tables are placed under `scratch_root`.
Result<HivePlan> CompileHivePlan(const core::StarSchema& star,
                                 const core::StarQuerySpec& spec,
                                 const std::string& scratch_root);

}  // namespace hive
}  // namespace clydesdale

#endif  // CLYDESDALE_HIVE_HIVE_PLAN_H_
