#ifndef CLYDESDALE_CORE_CLYDESDALE_H_
#define CLYDESDALE_CORE_CLYDESDALE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/star_join_job.h"
#include "core/star_query.h"
#include "core/star_schema.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace core {

/// The result of executing a star query through an engine: ordered result
/// rows plus the per-MR-stage execution reports the cost model replays.
struct QueryResult {
  std::vector<Row> rows;
  std::vector<mr::JobReport> stage_reports;
  double wall_seconds = 0;
  /// Serving mode only: this result was an exact-repeat answer served from
  /// the query server's result cache — no MapReduce job ran.
  bool from_result_cache = false;

  /// Sum of a counter across stages.
  int64_t Counter(const std::string& name) const;
};

/// Clydesdale: the star-join engine of the paper. One star query executes as
/// a single MapReduce job — the map side builds per-node shared dimension
/// hash tables and probes them while scanning the fact table columnar; the
/// reduce side finishes the aggregation; the ORDER BY is a client-side sort
/// (paper §4.2, Figure 3). Under ClydesdaleOptions::max_hash_memory_bytes
/// the job becomes a chain of such jobs (ExecuteStagedStarJoin).
class ClydesdaleEngine {
 public:
  ClydesdaleEngine(mr::MrCluster* cluster, StarSchema star,
                   ClydesdaleOptions options = {});

  const ClydesdaleOptions& options() const { return options_; }
  const StarSchema& star() const { return *star_; }

  Result<QueryResult> Execute(const StarQuerySpec& spec);

 private:
  mr::MrCluster* cluster_;
  std::shared_ptr<const StarSchema> star_;
  ClydesdaleOptions options_;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_CLYDESDALE_H_
