#ifndef CLYDESDALE_CORE_REPARTITION_JOIN_H_
#define CLYDESDALE_CORE_REPARTITION_JOIN_H_

#include <string>
#include <vector>

#include "mapreduce/engine.h"
#include "schema/expr.h"
#include "schema/schema.h"

namespace clydesdale {
namespace core {

/// One tagged repartition (sort-merge) join of a working fact-side table with
/// one dimension: Hive's common join (paper §6.1) and the staged plan's
/// answer "for the case of a single large dimension" (paper §5.1). Field
/// names are those of hive::JoinStageSpec, which extends this struct.
struct RepartitionJoinSpec {
  // Fact side (the current working table).
  SchemaPtr fact_schema;  // schema of the projected fact-side rows
  /// Residual fact filter (first stage only; True afterwards).
  Predicate::Ptr fact_predicate = Predicate::True();
  std::string fact_fk;
  /// Fact columns carried into the output (fk dropped).
  std::vector<std::string> fact_out_cols;

  // Dimension side.
  SchemaPtr dim_schema;  // schema of the projected dim rows
  Predicate::Ptr dim_predicate = Predicate::True();
  std::string dim_pk;
  std::vector<std::string> aux_cols;
};

/// Map side: tags each record with its source table, filters it, and keys
/// it by the join column; records of both tables meet at the reducer. Both
/// sides cross the network in the shuffle.
class RepartitionJoinMapper final : public mr::Mapper {
 public:
  explicit RepartitionJoinMapper(RepartitionJoinSpec spec)
      : spec_(std::move(spec)) {}

  Status Setup(mr::TaskContext* context) override;
  Status Map(const Row& key, const Row& value, mr::TaskContext* context,
             mr::OutputCollector* out) override;
  Status Cleanup(mr::TaskContext* context, mr::OutputCollector* out) override;

 private:
  RepartitionJoinSpec spec_;
  BoundPredicatePtr fact_pred_;
  BoundPredicatePtr dim_pred_;
  int fact_fk_index_ = -1;
  int dim_pk_index_ = -1;
  std::vector<int> fact_out_idx_;
  std::vector<int> dim_aux_idx_;
  // Per-operator profile cells.
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

/// Joins the tagged records of one key: at most one dimension row (primary
/// key side) against any number of fact rows. Output rows are fact_out_cols
/// then aux_cols.
class RepartitionJoinReducer final : public mr::Reducer {
 public:
  Status Reduce(const Row& key, const std::vector<Row>& values,
                mr::TaskContext* context, mr::OutputCollector* out) override;
  Status Cleanup(mr::TaskContext* context, mr::OutputCollector* out) override;

 private:
  // Per-operator profile cells.
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

/// Configures the input and both task sides of one repartition-join job over
/// `fact_table` and `dim_table`, each read with its schema's projection. The
/// job name and the output (table, columns, format) are the caller's.
mr::JobConf MakeRepartitionJoinJob(const RepartitionJoinSpec& spec,
                                   const std::string& fact_table,
                                   const std::string& dim_table,
                                   int reduce_tasks);

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_REPARTITION_JOIN_H_
