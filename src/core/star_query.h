#ifndef CLYDESDALE_CORE_STAR_QUERY_H_
#define CLYDESDALE_CORE_STAR_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "schema/expr.h"
#include "schema/schema.h"

namespace clydesdale {
namespace core {

/// One dimension join of a star query: fact.fk = dim.pk, with an optional
/// predicate on the dimension and the dimension columns the query reads.
struct DimJoinSpec {
  /// Dimension name as registered in the StarSchema ("customer", ...).
  std::string dimension;
  /// Foreign key column in the fact table ("lo_custkey").
  std::string fact_fk;
  /// Primary key column in the dimension ("c_custkey").
  std::string dim_pk;
  /// Filter evaluated while building the dimension hash table.
  Predicate::Ptr predicate = Predicate::True();
  /// Dimension columns carried into the join output ("c_nation", ...). May
  /// be empty for filter-only joins (paper §4.2: "zero or more auxiliary
  /// columns").
  std::vector<std::string> aux_columns;
};

/// Aggregate functions. SSB only needs SUM; the rest make the engine usable
/// beyond the benchmark. AVG decomposes into SUM + COUNT accumulators and
/// finalizes to a double.
enum class AggKind : uint8_t { kSum, kCount, kMin, kMax, kAvg };

const char* AggKindToString(AggKind kind);

/// An aggregate over a scalar expression of fact columns. For kCount the
/// expression is ignored (may be null).
struct AggSpec {
  /// Output column name ("revenue", "profit").
  std::string name;
  Expr::Ptr expr;
  AggKind kind = AggKind::kSum;
};

struct OrderBySpec {
  /// References an output column (a group-by column or an aggregate name).
  std::string column;
  bool ascending = true;
};

/// A star-join query: filter dimensions, join them to the fact table,
/// aggregate fact measures grouped by dimension attributes, order the result.
/// This is the query model both Clydesdale and the Hive baseline execute.
struct StarQuerySpec {
  std::string id;
  /// Predicate over fact columns (SSB flight 1 filters lo_discount and
  /// lo_quantity directly).
  Predicate::Ptr fact_predicate = Predicate::True();
  std::vector<DimJoinSpec> dims;
  std::vector<AggSpec> aggregates;
  /// Group-by columns: a dimension's aux column, or else a fact column.
  std::vector<std::string> group_by;
  std::vector<OrderBySpec> order_by;
};

/// Where one group-by output column comes from: a joined dimension's aux
/// column, or (unusual for SSB, but allowed) the fact row itself.
struct GroupSource {
  bool from_fact = false;
  int dim_index = 0;   // which joined dimension (spec order)
  int aux_index = 0;   // which of that dimension's aux_columns
  int fact_index = 0;  // column in the projected fact row when from_fact
};

/// Resolves every group-by column of `spec` against the dimensions' aux
/// columns and the projected fact schema.
Result<std::vector<GroupSource>> ResolveGroupSources(const StarQuerySpec& spec,
                                                     const Schema& fact_schema);

/// Fact columns a star join carries to its aggregation: aggregate inputs,
/// then group-by columns that are no dimension's aux column (the ones
/// ResolveGroupSources reads from the fact row). Deduplicated, in first-use
/// order. Every plan (single job, staged, Hive) keeps exactly these.
std::vector<std::string> KeptFactColumns(const StarQuerySpec& spec);

/// Fact-table columns the query touches: foreign keys of every joined
/// dimension, fact-predicate columns, then KeptFactColumns (deduplicated, in
/// first-use order). This is the projection Clydesdale pushes into CIF.
std::vector<std::string> FactColumnsFor(const StarQuerySpec& spec);

/// Output column names: group-by columns then aggregate names.
std::vector<std::string> OutputColumnsOf(const StarQuerySpec& spec);

/// Sorts result rows by the query's ORDER BY (output-column references),
/// with the full row as tiebreak so results are canonical.
Status SortResultRows(const StarQuerySpec& spec, std::vector<Row>* rows);

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_STAR_QUERY_H_
