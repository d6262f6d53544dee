#ifndef CLYDESDALE_CORE_AGGREGATION_H_
#define CLYDESDALE_CORE_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "core/star_query.h"
#include "mapreduce/mr_types.h"
#include "obs/mem_tracker.h"
#include "schema/row.h"
#include "schema/row_batch.h"

namespace clydesdale {
namespace core {

/// Physical accumulator operations. Every aggregate maps to one or more
/// accumulators (AVG = SUM + COUNT); accumulators combine associatively, so
/// map-side partials, combiners, and reducers all run the same merge.
enum class AccKind : uint8_t { kSum, kCount, kMin, kMax };

/// How a query's aggregates decompose into accumulators and how finalized
/// output values derive from them. Schema-independent (expressions are bound
/// separately by whoever scans rows).
class AggLayout {
 public:
  static AggLayout For(const std::vector<AggSpec>& aggregates);

  int num_accumulators() const { return static_cast<int>(accs_.size()); }
  const std::vector<AccKind>& accs() const { return accs_; }

  /// Initial accumulator value (identity of the merge).
  static int64_t InitValue(AccKind kind);

  /// Merges one input vector into an accumulator vector, element-wise.
  void Merge(int64_t* acc, const int64_t* in) const;

  /// Merges `weight` identical input vectors in one step: sums and counts
  /// scale linearly (acc += in * weight), min/max are weight-invariant.
  /// This is what lets a run of rows with equal inputs and equal group key
  /// collapse to one aggregation-table update.
  void MergeWeighted(int64_t* acc, const int64_t* in, int64_t weight) const;

  /// Index of the expression to evaluate per accumulator, or -1 when the
  /// input is the constant 1 (COUNT). Expression index refers to the
  /// query's aggregate list (AVG shares its expression between both accs).
  const std::vector<int>& expr_index() const { return expr_index_; }

  /// Turns a (group columns ++ accumulators) row into the final output row
  /// (group columns ++ one value per aggregate; AVG becomes a double).
  Row Finalize(const Row& row, int num_group_columns) const;

  /// Per-accumulator output column suffixes for intermediate tables
  /// ("revenue" or "profit_sum"/"profit_count" for AVG).
  std::vector<std::string> AccumulatorNames() const;

 private:
  struct AggInfo {
    AggKind kind = AggKind::kSum;
    std::string name;
    int first_acc = 0;
    int num_accs = 1;
  };
  std::vector<AccKind> accs_;
  std::vector<int> expr_index_;
  std::vector<AggInfo> aggs_;
};

/// Finalizes engine result rows in place (group columns ++ accumulators ->
/// group columns ++ aggregate values) before the final ORDER BY.
Status FinalizeAggRows(const StarQuerySpec& spec, std::vector<Row>* rows);

/// Group-key wire codec: a Row of group columns flattened to bytes so the
/// aggregation table can hash and compare keys with memcmp and store them in
/// one arena. Fixed-width encoding for int/date columns (1 tag byte + the
/// scalar), length-prefixed bytes for strings. Values that compare equal and
/// share a kind encode identically, which is all aggregation needs: group
/// keys come from the same column sources on every row.
namespace group_key {

/// Appends the encoding of one value.
void AppendValue(const Value& v, std::vector<uint8_t>* out);

/// Appends the encoding of value `i` of `col`: the bytes
/// AppendValue(col.GetValue(i)) would write, with no Value or string copy
/// (fact columns and dimension payload columns alike).
void AppendColumnValue(const ColumnVector& col, int64_t i,
                       std::vector<uint8_t>* out);

/// Appends every column of `row` (the full group key).
void AppendRow(const Row& row, std::vector<uint8_t>* out);

/// Decodes an encoded key back into a Row (Emit-time only).
Row DecodeRow(const uint8_t* data, size_t len);

inline uint64_t Hash(const uint8_t* data, size_t len) {
  return HashBytes(data, len);
}

}  // namespace group_key

/// Map-side partial aggregation: group key -> running accumulators. Each
/// join thread owns one; they merge at task end, so no synchronization
/// during the probe loop.
///
/// Open addressing with linear probing over a power-of-two slot array.
/// Encoded keys live in one append-only arena and accumulators in one flat
/// int64 array indexed by slot — no per-group heap allocations and no
/// Row::Hash dispatch on the add path. Keys decode back to Rows only when
/// Emit materializes the task output.
class HashAggregator {
 public:
  explicit HashAggregator(AggLayout layout)
      : layout_(std::move(layout)),
        num_accs_(static_cast<size_t>(layout_.num_accumulators())) {}

  /// Adds one row's inputs under an encoded group key (group_key::AppendRow
  /// encodes a Row; the vectorized probe loop encodes straight from column
  /// data).
  void AddEncoded(const uint8_t* key, size_t len, const int64_t* inputs) {
    int64_t* accs = FindOrCreate(key, len, group_key::Hash(key, len));
    layout_.Merge(accs, inputs);
  }

  /// Adds `weight` rows that share both the group key and the input vector
  /// with one table update (compressed-domain aggregation: a run of
  /// identical fact rows never expands).
  void AddEncodedWeighted(const uint8_t* key, size_t len,
                          const int64_t* inputs, int64_t weight) {
    int64_t* accs = FindOrCreate(key, len, group_key::Hash(key, len));
    layout_.MergeWeighted(accs, inputs, weight);
  }

  void MergeFrom(const HashAggregator& other);

  /// Emits each group as (key, row of accumulator values).
  Status Emit(mr::OutputCollector* out) const;

  size_t num_groups() const { return num_groups_; }
  const AggLayout& layout() const { return layout_; }
  /// Resident bytes of the slot array, accumulators, and key arena.
  uint64_t memory_bytes() const;

  /// Attributes this table's resident bytes to a tracker. Synced only when
  /// a container actually regrows (Rehash, arena reallocation) — amortized
  /// O(1), nothing on the per-row add path — and released on destruction.
  void AttachMemTracker(std::shared_ptr<obs::MemTracker> tracker) {
    mem_ = obs::ScopedMemConsumer(std::move(tracker));
    mem_.SyncTo(static_cast<int64_t>(memory_bytes()));
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t key_offset = 0;
    uint32_t key_len = kEmpty;
  };
  static constexpr uint32_t kEmpty = 0xffffffffu;

  /// Accumulators of the group with this encoded key, inserting (and
  /// initializing) on first sight.
  int64_t* FindOrCreate(const uint8_t* key, size_t len, uint64_t hash);
  void Rehash(size_t new_capacity);

  AggLayout layout_;
  size_t num_accs_;
  size_t capacity_ = 0;  // power of two (0 until first Add)
  size_t num_groups_ = 0;
  std::vector<Slot> slots_;
  std::vector<int64_t> accs_;       // capacity * num_accs_, slot-indexed
  std::vector<uint8_t> key_arena_;  // encoded keys, append-only
  obs::ScopedMemConsumer mem_;
  /// key_arena_ capacity at the last mem_ sync (regrowth detection).
  size_t synced_arena_capacity_ = 0;
};

/// Reducer (and combiner) that merges accumulator rows element-wise per key
/// using the layout's operations — the generalization of paper Figure 4's
/// sum() reduce function.
class AggReducer final : public mr::Reducer {
 public:
  /// `profile_name` labels this instance's operator node in the query
  /// profile — pass "combine" for combiner use so map-side folding stays
  /// distinct from the reduce-side merge in the merged tree.
  explicit AggReducer(AggLayout layout,
                      const char* profile_name = "aggregate")
      : layout_(std::move(layout)), profile_name_(profile_name) {}

  Status Reduce(const Row& key, const std::vector<Row>& values,
                mr::TaskContext* context, mr::OutputCollector* out) override;
  Status Cleanup(mr::TaskContext* context, mr::OutputCollector* out) override;

 private:
  AggLayout layout_;
  // Per-operator profile cells.
  const char* profile_name_;
  bool emitted_ = false;
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_AGGREGATION_H_
