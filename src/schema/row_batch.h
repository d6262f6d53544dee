#ifndef CLYDESDALE_SCHEMA_ROW_BATCH_H_
#define CLYDESDALE_SCHEMA_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "schema/row.h"
#include "schema/schema.h"

namespace clydesdale {

/// A single column of values in columnar (structure-of-arrays) layout.
/// Exactly one of the typed arrays is active, selected by type().
///
/// String columns have two storage modes. The default *owned* mode keeps a
/// std::string per row. The *view* mode (late-materialized CIF scans) keeps
/// string_views into a shared immutable arena — typically the raw column
/// block bytes — so decode never copies or allocates per row. StringViewAt()
/// reads either mode; GetValue() copies out, so consumers that hold Values
/// never observe arena lifetime.
class ColumnVector {
 public:
  explicit ColumnVector(TypeKind type) : type_(type) {}

  TypeKind type() const { return type_; }
  int64_t size() const;
  void Clear();
  void Reserve(int64_t n);

  void Append(const Value& v);
  void AppendInt32(int32_t v) { i32_.push_back(v); }
  void AppendInt64(int64_t v) { i64_.push_back(v); }
  void AppendString(std::string v) { str_.push_back(std::move(v)); }

  Value GetValue(int64_t i) const;

  // Direct typed access for tight loops (block probe, vectorized filters).
  const std::vector<int32_t>& i32() const { return i32_; }
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }
  std::vector<int32_t>* mutable_i32() { return &i32_; }
  std::vector<int64_t>* mutable_i64() { return &i64_; }
  std::vector<double>* mutable_f64() { return &f64_; }
  std::vector<std::string>* mutable_str() { return &str_; }

  // --- String view mode (zero-copy decode) ---
  bool is_string_view() const { return is_view_; }
  const std::vector<std::string_view>& str_views() const { return str_views_; }
  /// Switches the column into view mode (callers fill views directly).
  std::vector<std::string_view>* mutable_str_views() {
    is_view_ = true;
    return &str_views_;
  }
  /// Pins the buffer the views point into; shared between batch slices.
  void set_string_arena(std::shared_ptr<const std::vector<uint8_t>> arena) {
    arena_ = std::move(arena);
  }
  const std::shared_ptr<const std::vector<uint8_t>>& string_arena() const {
    return arena_;
  }
  /// Uniform string accessor across both storage modes.
  std::string_view StringViewAt(int64_t i) const {
    const size_t idx = static_cast<size_t>(i);
    return is_view_ ? str_views_[idx] : std::string_view(str_[idx]);
  }

  /// Key column view: value at i widened to int64 (numeric columns only).
  int64_t KeyAt(int64_t i) const;

  /// Bytes the column's arrays hold (their capacity): values, string views
  /// and run metadata, but not the arena string views point into.
  uint64_t ByteCapacity() const;

  // --- Run metadata (compressed-domain scan, CIF RLE blocks) ---
  // Optional overlay on an integer column whose source block was
  // run-length encoded: run k covers rows [run_starts()[k],
  // run_starts()[k+1]) and they all equal run_values()[k]. The typed value
  // array is still fully materialized — the runs are an accelerator, not a
  // replacement — so every existing consumer stays correct; run-aware
  // consumers (the vectorized probe) use them to work per run instead of
  // per row. run_starts() has one trailing entry equal to size().
  bool has_runs() const { return !run_starts_.empty(); }
  const std::vector<int64_t>& run_values() const { return run_values_; }
  const std::vector<int32_t>& run_starts() const { return run_starts_; }
  /// Attaches run metadata; `starts` must be ascending, start at 0, and end
  /// at size(). The runs describe the values as they are now; Clear() drops
  /// them with the values.
  void SetRuns(std::vector<int64_t> values, std::vector<int32_t> starts) {
    run_values_ = std::move(values);
    run_starts_ = std::move(starts);
  }

 private:
  TypeKind type_;
  std::vector<int32_t> i32_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  std::vector<std::string_view> str_views_;
  std::shared_ptr<const std::vector<uint8_t>> arena_;
  std::vector<int64_t> run_values_;
  std::vector<int32_t> run_starts_;
  bool is_view_ = false;
};

/// A block of rows in columnar layout. This is what B-CIF readers return and
/// what the Clydesdale probe loop consumes (paper §5.3: block iteration).
class RowBatch {
 public:
  explicit RowBatch(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  const ColumnVector& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  ColumnVector* mutable_column(int i) { return &columns_[static_cast<size_t>(i)]; }

  /// Appends a full row; the row arity must match the schema.
  void AppendRow(const Row& row);

  /// Materializes row i (copies values out of the columns).
  Row GetRow(int64_t i) const;

  void Clear();

  /// Called by readers after filling columns directly; validates that all
  /// columns have equal length and records it.
  Status SealRowCount();

 private:
  SchemaPtr schema_;
  std::vector<ColumnVector> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_ROW_BATCH_H_
