#ifndef CLYDESDALE_CORE_STAR_JOIN_JOB_H_
#define CLYDESDALE_CORE_STAR_JOIN_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dim_hash_table.h"
#include "core/star_query.h"
#include "core/star_schema.h"
#include "mapreduce/engine.h"
#include "mapreduce/map_runner.h"

namespace clydesdale {
namespace core {

class DimTableCache;

/// Engine knobs. The first five fields are the paper's ablation switches
/// (§6.5): multithreaded, block_iteration, columnar, jvm_reuse and
/// map_side_agg. Every other field is the hash-table memory budget
/// (max_hash_memory_bytes), an observability path (trace, trace_dir,
/// profile) or the serving hook (dim_cache).
struct ClydesdaleOptions {
  /// Multi-threaded map tasks sharing one hash-table copy per node
  /// (MTMapRunner, paper §5.1). Off = one single-threaded task per split,
  /// every other switch unchanged.
  bool multithreaded = true;
  /// Block iteration (B-CIF, §5.3): the probe pipeline's batch size, 4096
  /// rows (kProbeBatchRows) per reader call. Off = one-row batches, so the
  /// reader and the whole pipeline run once per record.
  bool block_iteration = true;
  /// Columnar projection pushdown (§4.1). Off = read every fact column.
  bool columnar = true;
  /// Share hash tables across consecutive tasks on a node (§5.2).
  bool jvm_reuse = true;
  /// Aggregate partially in the map task (the paper's combiner note, §4.2).
  /// Off = emit one record per joined row and combine before the shuffle.
  bool map_side_agg = true;
  /// Per-node memory budget for the dimension hash tables; 0 = unlimited.
  /// When the query's estimated tables exceed it, the engine falls back to
  /// the staged multi-pass join of paper §5.1 ("Discussion").
  uint64_t max_hash_memory_bytes = 0;
  /// Span tracing for every stage job (obs.trace.enabled). Counters and
  /// task wall times are always maintained; only span records are gated.
  bool trace = false;
  /// When tracing, write <job>-<instance>.trace.json/.timeline.txt into
  /// this directory (obs.trace.dir). Empty = keep spans in-memory only.
  std::string trace_dir;
  /// Per-operator query profiler (obs.profile.enabled): the scan, build,
  /// probe and aggregate nodes of every task attempt, merged into
  /// JobReport::profile and rendered as EXPLAIN ANALYZE (written as
  /// <job>-<instance>.profile.json/.profile.txt into trace_dir when that is
  /// set). Operators time and count either way; off = the engine drops each
  /// attempt's tree. Memory accounting (the obs::MemTracker tree behind the
  /// MEM_* counters) needs no switch: it is always on.
  bool profile = false;
  /// Cross-query dimension hash-table cache (serving mode, DESIGN.md §15).
  /// When set, the build path becomes a cluster-wide cache lookup keyed by
  /// (table path, table version, filter fingerprint): repeated queries probe
  /// tables built by earlier jobs, concurrent jobs single-flight the build,
  /// and the bytes charge the cache's MemTracker instead of the job's. Null
  /// (the default) keeps per-job builds — the paper's behaviour.
  std::shared_ptr<DimTableCache> dim_cache;
};

/// Forwards the options' observability knobs (mr::ApplyObsConf) into a stage
/// job's conf; every Clydesdale stage job goes through this so traces stay
/// comparable across plans.
void ApplyTraceConf(const ClydesdaleOptions& options, mr::JobConf* conf);

/// Conf key: comma-separated output columns for staged-join stages. When
/// set, the star-join map emits joined rows projected to these columns (one
/// per surviving fact row) instead of aggregating — the building block of
/// the paper's §5.1 memory-constrained fallback.
inline constexpr const char kConfJoinEmitColumns[] = "clydesdale.join.emit.columns";

// Clydesdale-specific job counters.
inline constexpr const char kCounterHashBuilds[] = "CLY_HASH_TABLE_BUILDS";
inline constexpr const char kCounterHashBuildRows[] = "CLY_HASH_BUILD_INPUT_ROWS";
inline constexpr const char kCounterHashEntries[] = "CLY_HASH_ENTRIES";
inline constexpr const char kCounterHashBytes[] = "CLY_HASH_MEMORY_BYTES";
inline constexpr const char kCounterProbeRows[] = "CLY_PROBE_INPUT_ROWS";
inline constexpr const char kCounterJoinOutputRows[] = "CLY_JOIN_OUTPUT_ROWS";
// Vectorized-pipeline counters: blocks through the selection-vector probe
// loop, and the per-thread partial-aggregate table shape at task end.
inline constexpr const char kCounterProbeBatches[] = "CLY_PROBE_BATCHES";
inline constexpr const char kCounterAggGroups[] = "CLY_AGG_PARTIAL_GROUPS";
inline constexpr const char kCounterAggBytes[] = "CLY_AGG_MEMORY_BYTES";

/// Every Clydesdale-specific counter name above, for the same
/// scripts/check_counters.sh audit that covers the engine counters.
std::vector<std::string> ClydesdaleCounterNames();

/// The dimension hash tables of one query on one node.
struct QueryHashTables {
  std::vector<std::shared_ptr<const DimHashTable>> tables;
  uint64_t total_memory_bytes = 0;
};

/// Builds every dimension hash table of `spec` from the node-local replicas
/// (fetching from HDFS if a replica is missing). Updates the CLY_HASH_*
/// counters, and adds the input rows and entries to `build_node`, for
/// tables actually built. With options.dim_cache set, each table is a
/// cross-query cache lookup instead: cache-warm dimensions skip the replica
/// read and build entirely (flushing CACHE_DIM_HITS/MISSES).
Result<std::shared_ptr<QueryHashTables>> BuildQueryHashTables(
    mr::TaskContext* context, const StarSchema& star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options,
    obs::OperatorProfile* build_node);

/// Returns the node's shared tables, building on first use (JVM reuse: one
/// build per node per query when tasks share state). Fills `build_node`,
/// the task's EXPLAIN ANALYZE "build" node: the "hash-tables" span's wall
/// and CPU time, the rows of builds this task ran (0 for reused tables),
/// those builds' replica scan detail (decoded/raw bytes, blocks per
/// encoding, rows their pushed leaves pruned) and the tables' bytes.
Result<std::shared_ptr<QueryHashTables>> GetOrBuildHashTables(
    mr::TaskContext* context, const StarSchema& star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options,
    obs::OperatorProfile* build_node);

/// Clydesdale's MTMapRunner (paper Figure 5): builds the hash tables once,
/// then runs the probe over the multi-split's constituents with one thread
/// per granted slot, each with its own reader and partial aggregator. With
/// options.multithreaded off the same runner gets one-split tasks and one
/// slot each: the stock single-threaded mapper of paper Figure 4.
class StarJoinMapRunner final : public mr::MapRunner {
 public:
  StarJoinMapRunner(std::shared_ptr<const StarSchema> star,
                    StarQuerySpec spec, ClydesdaleOptions options)
      : star_(std::move(star)), spec_(std::move(spec)), options_(options) {}

  Status Run(const mr::InputSplit& split, mr::InputFormat* input_format,
             mr::TaskContext* context, mr::OutputCollector* out) override;

 private:
  std::shared_ptr<const StarSchema> star_;
  StarQuerySpec spec_;
  ClydesdaleOptions options_;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_STAR_JOIN_JOB_H_
