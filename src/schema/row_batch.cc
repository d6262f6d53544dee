#include "schema/row_batch.h"

#include "common/strings.h"

namespace clydesdale {

int64_t ColumnVector::size() const {
  switch (type_) {
    case TypeKind::kInt32:
      return static_cast<int64_t>(i32_.size());
    case TypeKind::kInt64:
      return static_cast<int64_t>(i64_.size());
    case TypeKind::kDouble:
      return static_cast<int64_t>(f64_.size());
    case TypeKind::kString:
      return static_cast<int64_t>(is_view_ ? str_views_.size() : str_.size());
  }
  return 0;
}

void ColumnVector::Clear() {
  i32_.clear();
  i64_.clear();
  f64_.clear();
  str_.clear();
  str_views_.clear();
  arena_.reset();
  run_values_.clear();
  run_starts_.clear();
  is_view_ = false;
}

uint64_t ColumnVector::ByteCapacity() const {
  return i32_.capacity() * sizeof(int32_t) + i64_.capacity() * sizeof(int64_t) +
         f64_.capacity() * sizeof(double) +
         str_.capacity() * sizeof(std::string) +
         str_views_.capacity() * sizeof(std::string_view) +
         run_values_.capacity() * sizeof(int64_t) +
         run_starts_.capacity() * sizeof(int32_t);
}

void ColumnVector::Reserve(int64_t n) {
  switch (type_) {
    case TypeKind::kInt32:
      i32_.reserve(static_cast<size_t>(n));
      break;
    case TypeKind::kInt64:
      i64_.reserve(static_cast<size_t>(n));
      break;
    case TypeKind::kDouble:
      f64_.reserve(static_cast<size_t>(n));
      break;
    case TypeKind::kString:
      if (is_view_) {
        str_views_.reserve(static_cast<size_t>(n));
      } else {
        str_.reserve(static_cast<size_t>(n));
      }
      break;
  }
}

void ColumnVector::Append(const Value& v) {
  CLY_DCHECK(v.kind() == type_);
  CLY_DCHECK(!is_view_);
  switch (type_) {
    case TypeKind::kInt32:
      i32_.push_back(v.i32());
      break;
    case TypeKind::kInt64:
      i64_.push_back(v.i64());
      break;
    case TypeKind::kDouble:
      f64_.push_back(v.f64());
      break;
    case TypeKind::kString:
      str_.push_back(v.str());
      break;
  }
}

Value ColumnVector::GetValue(int64_t i) const {
  const size_t idx = static_cast<size_t>(i);
  switch (type_) {
    case TypeKind::kInt32:
      return Value(i32_[idx]);
    case TypeKind::kInt64:
      return Value(i64_[idx]);
    case TypeKind::kDouble:
      return Value(f64_[idx]);
    case TypeKind::kString:
      return Value(std::string(StringViewAt(i)));
  }
  return Value();
}

int64_t ColumnVector::KeyAt(int64_t i) const {
  const size_t idx = static_cast<size_t>(i);
  switch (type_) {
    case TypeKind::kInt32:
      return i32_[idx];
    case TypeKind::kInt64:
      return i64_[idx];
    case TypeKind::kDouble:
      return static_cast<int64_t>(f64_[idx]);
    case TypeKind::kString:
      CLY_LOG(Fatal) << "KeyAt on string column";
  }
  return 0;
}

RowBatch::RowBatch(SchemaPtr schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_->num_fields()));
  for (const Field& f : schema_->fields()) columns_.emplace_back(f.type);
}

void RowBatch::AppendRow(const Row& row) {
  CLY_DCHECK(row.size() == num_columns());
  for (int c = 0; c < num_columns(); ++c) {
    columns_[static_cast<size_t>(c)].Append(row.Get(c));
  }
  ++num_rows_;
}

Row RowBatch::GetRow(int64_t i) const {
  Row row;
  row.Reserve(num_columns());
  for (const ColumnVector& col : columns_) row.Append(col.GetValue(i));
  return row;
}

void RowBatch::Clear() {
  for (ColumnVector& col : columns_) col.Clear();
  num_rows_ = 0;
}

Status RowBatch::SealRowCount() {
  int64_t n = columns_.empty() ? 0 : columns_[0].size();
  for (const ColumnVector& col : columns_) {
    if (col.size() != n) {
      return Status::Internal(
          StrCat("ragged row batch: column sizes ", col.size(), " vs ", n));
    }
  }
  num_rows_ = n;
  return Status::OK();
}

}  // namespace clydesdale
