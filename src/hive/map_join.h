#ifndef CLYDESDALE_HIVE_MAP_JOIN_H_
#define CLYDESDALE_HIVE_MAP_JOIN_H_

#include <memory>
#include <string>

#include "core/dim_hash_table.h"
#include "hive/hive_plan.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace hive {

// Hive mapjoin job counters.
inline constexpr const char kCounterMapJoinHashLoads[] = "HIVE_MAPJOIN_HASH_LOADS";
inline constexpr const char kCounterMapJoinHashBytes[] = "HIVE_MAPJOIN_HASH_BYTES";
inline constexpr const char kCounterMapJoinHashEntries[] = "HIVE_MAPJOIN_HASH_ENTRIES";

/// The master-side build step of Hive's mapjoin (paper Figure 6): evaluate
/// the dimension predicate on the client, serialize the qualifying (pk, aux)
/// rows to a DFS file, and hand that file to the job's distributed cache.
/// Returns the DFS path of the serialized hash table.
Result<std::string> BuildMapJoinHashFile(mr::MrCluster* cluster,
                                         const JoinStageSpec& spec,
                                         const std::string& scratch_root);

/// Map-side of the mapjoin: every task deserializes the broadcast hash table
/// in Setup (Hive reloads it per task — no JVM reuse; paper §6.3/§6.4) and
/// probes it while scanning its fact split. Map-only; joined rows go
/// straight to the stage's output table.
class MapJoinMapper final : public mr::Mapper {
 public:
  MapJoinMapper(JoinStageSpec spec, std::string hash_file)
      : spec_(std::move(spec)), hash_file_(std::move(hash_file)) {}

  Status Setup(mr::TaskContext* context) override;
  Status Map(const Row& key, const Row& value, mr::TaskContext* context,
             mr::OutputCollector* out) override;
  Status Cleanup(mr::TaskContext* context, mr::OutputCollector* out) override;

 private:
  JoinStageSpec spec_;
  std::string hash_file_;
  std::shared_ptr<const core::DimHashTable> table_;
  BoundPredicatePtr fact_pred_;
  int fact_fk_index_ = -1;
  std::vector<int> fact_out_idx_;
  // Per-operator profile cells.
  uint64_t probe_rows_ = 0;
  uint64_t join_rows_ = 0;
  uint64_t hash_load_wall_ns_ = 0;
  uint64_t hash_load_cpu_ns_ = 0;
};

/// Configures the map-only MapReduce job for one mapjoin stage; the output
/// is the caller's. The hash file must have been produced by
/// BuildMapJoinHashFile first.
Result<mr::JobConf> MakeMapJoinJob(const JoinStageSpec& spec,
                                   const std::string& hash_file);

}  // namespace hive
}  // namespace clydesdale

#endif  // CLYDESDALE_HIVE_MAP_JOIN_H_
