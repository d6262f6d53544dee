#ifndef CLYDESDALE_HIVE_HIVE_ENGINE_H_
#define CLYDESDALE_HIVE_HIVE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/clydesdale.h"
#include "hive/hive_plan.h"

namespace clydesdale {
namespace hive {

struct HiveOptions {
  JoinStrategy strategy = JoinStrategy::kRepartition;
  /// DFS directory of the intermediate tables and mapjoin hash files; the
  /// engine drops what a query wrote there when the query ends, on success
  /// and on error.
  std::string scratch_root = "/tmp/hive";
  /// Span tracing for every stage job, mirroring ClydesdaleOptions::trace —
  /// a traced Hive run and a traced Clydesdale run of the same query yield
  /// directly comparable Chrome traces.
  bool trace = false;
  /// When tracing, write per-stage trace/timeline files here; when
  /// profiling, the per-stage EXPLAIN ANALYZE files as well.
  std::string trace_dir;
  /// Per-operator query profiling per stage job (obs.profile.enabled),
  /// mirroring ClydesdaleOptions::profile. Off = the trees are dropped.
  bool profile = false;
};

/// The Hive baseline (paper §6.1): compiles a star query into a chain of
/// MapReduce jobs — one join stage per dimension (repartition or mapjoin),
/// a group-by job, and an order-by job — with every intermediate result
/// round-tripped through HDFS.
class HiveEngine {
 public:
  /// `star.fact()` must point at the Hive copy of the fact table (RCFile in
  /// the paper's setup); dimensions are the same HDFS masters Clydesdale
  /// uses (Hive has no local dimension replicas).
  HiveEngine(mr::MrCluster* cluster, core::StarSchema star,
             HiveOptions options = {});

  const HiveOptions& options() const { return options_; }

  Result<core::QueryResult> Execute(const core::StarQuerySpec& spec);

 private:
  mr::MrCluster* cluster_;
  core::StarSchema star_;
  HiveOptions options_;
};

}  // namespace hive
}  // namespace clydesdale

#endif  // CLYDESDALE_HIVE_HIVE_ENGINE_H_
