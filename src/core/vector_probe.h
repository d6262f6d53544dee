#ifndef CLYDESDALE_CORE_VECTOR_PROBE_H_
#define CLYDESDALE_CORE_VECTOR_PROBE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/aggregation.h"
#include "core/dim_hash_table.h"
#include "core/star_query.h"
#include "mapreduce/mr_types.h"
#include "schema/expr.h"
#include "schema/row_batch.h"

namespace clydesdale {
namespace core {

/// The columnar probe→aggregate inner loop of the star-join map task
/// (paper §4.2/§5.3, kept vectorized end to end): evaluate what the scan
/// left of the fact predicate, compact the survivors into a selection
/// vector, probe each dimension table per-column with software prefetch,
/// evaluate accumulator expressions column-wise over the final selection,
/// and feed the flat hash aggregator with keys encoded straight from column
/// data.
/// Rows materialize as `Row` objects only on the non-aggregating emit paths.
///
/// One instance per thread: it owns the scratch buffers (selection vector,
/// gathered keys, matched-payload vectors, accumulator columns), so batches
/// reuse allocations instead of re-growing them.
class VectorizedProbe {
 public:
  /// All pointers must outlive the instance. `fact_pred` is the residual
  /// the scan left over, null when it is TRUE: every row of a batch then
  /// goes to the probe, with no predicate call and no mask. `acc_exprs`
  /// entries may be null, meaning the constant 1 (COUNT).
  VectorizedProbe(const BoundPredicate* fact_pred,
                  std::vector<int> fk_index,
                  std::vector<const DimHashTable*> tables,
                  std::vector<GroupSource> group_sources,
                  std::vector<const BoundScalar*> acc_exprs);

  /// Map-side aggregation path: survivors update `agg` in place.
  Status ProcessBatchAgg(const RowBatch& batch, HashAggregator* agg);

  /// map_side_agg-off path: per surviving row, collect
  /// (group key row, accumulator-input row).
  Status ProcessBatchCollect(const RowBatch& batch, mr::OutputCollector* out);

  /// Staged-join path: per surviving row, collect (empty key, row gathered
  /// from `emit_sources`).
  Status ProcessBatchEmitJoined(const RowBatch& batch,
                                const std::vector<GroupSource>& emit_sources,
                                mr::OutputCollector* out);

  struct Stats {
    uint64_t batches = 0;
    uint64_t rows_in = 0;
    /// Rows surviving the fact residual (= probe attempts on dim 0).
    uint64_t rows_selected = 0;
    /// Rows surviving every dimension probe.
    uint64_t join_rows = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Front half shared by all sinks: fills sel_idx_ with the row indexes
  /// surviving predicate + all probes and matched_[d] with the payload slot
  /// of dimension d, aligned with sel_idx_. Returns the survivor count.
  int64_t FilterAndProbe(const RowBatch& batch);

  /// Evaluates every accumulator expression over the current selection into
  /// acc_columns_ (one int64 column per accumulator).
  void EvalAccumulators(const RowBatch& batch, int64_t n);

  /// The column `src` reads and its row there for selection position j:
  /// a fact column at the selected row, or a dimension's payload column at
  /// the matched slot.
  std::pair<const ColumnVector*, int64_t> SourceAt(const GroupSource& src,
                                                   const RowBatch& batch,
                                                   int64_t j) const;

  /// Encodes selection position j's group key into key_scratch_, straight
  /// from the fact and payload columns.
  void EncodeGroupKey(const RowBatch& batch, int64_t j);

  const BoundPredicate* fact_pred_;
  std::vector<int> fk_index_;
  std::vector<const DimHashTable*> tables_;
  std::vector<GroupSource> group_sources_;
  std::vector<const BoundScalar*> acc_exprs_;

  Stats stats_;

  // Scratch, reused across batches.
  std::vector<uint8_t> sel_bytes_;
  std::vector<int32_t> sel_idx_;
  std::vector<int64_t> keys_;
  std::vector<std::vector<int32_t>> matched_;
  std::vector<std::vector<int64_t>> acc_columns_;
  std::vector<int64_t> acc_inputs_;
  std::vector<uint8_t> key_scratch_;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_VECTOR_PROBE_H_
