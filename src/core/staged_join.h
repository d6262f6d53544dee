#ifndef CLYDESDALE_CORE_STAGED_JOIN_H_
#define CLYDESDALE_CORE_STAGED_JOIN_H_

#include <memory>
#include <vector>

#include "core/clydesdale.h"
#include "core/star_query.h"
#include "core/star_schema.h"

namespace clydesdale {
namespace core {

/// The one Clydesdale plan path. A star query runs as a chain of star-join
/// jobs, one per group of dimensions. With an unlimited budget the chain has
/// one stage: the single job of paper §4.2. When the query's dimension hash
/// tables do not all fit in a node's memory together (paper §5.1,
/// "Discussion"), each group is small enough for the budget and the joined
/// intermediate passes through HDFS between stages; the last stage also
/// aggregates, earlier stages are map-only. A dimension whose hash table does
/// not fit by itself is joined with the tagged repartition join instead
/// (core/repartition_join.h) — the paper's answer "for the case of a single
/// large dimension".

/// Rough per-node memory the hash table of `dim` filtered by `join` needs
/// (upper bound: assumes every row qualifies).
uint64_t EstimateDimHashBytes(const DimTableInfo& dim, const DimJoinSpec& join);

/// One stage of the staged plan: a set of dimensions joined together.
struct StagedGroup {
  /// Indexes into spec.dims, in spec order.
  std::vector<int> dims;
  /// True when the (single) dimension exceeds the budget by itself and must
  /// be joined with a repartition join instead of a hash join.
  bool repartition = false;
};

/// Partitions the query's dimensions (by spec order) into consecutive groups
/// whose estimated combined hash memory stays within `budget_bytes`; an
/// oversized dimension becomes its own repartition group. A budget of 0 is
/// unlimited: one hash group holding every dimension.
Result<std::vector<StagedGroup>> PlanDimGroups(const StarSchema& star,
                                               const StarQuerySpec& spec,
                                               uint64_t budget_bytes);

/// Executes `spec` as a chain of star-join jobs, one per dimension group
/// under options.max_hash_memory_bytes (plus a zero-dimension aggregating
/// stage after a trailing repartition group). Every budget produces the same
/// rows. The intermediate tables are dropped on success and on error.
Result<QueryResult> ExecuteStagedStarJoin(
    mr::MrCluster* cluster, std::shared_ptr<const StarSchema> star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options);

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_STAGED_JOIN_H_
