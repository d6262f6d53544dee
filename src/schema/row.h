#ifndef CLYDESDALE_SCHEMA_ROW_H_
#define CLYDESDALE_SCHEMA_ROW_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "schema/schema.h"
#include "schema/value.h"

namespace clydesdale {

/// A tuple of values. Rows are schema-free at runtime (the schema travels
/// separately), matching how Hadoop key/value records behave.
class Row {
 public:
  Row() = default;
  explicit Row(std::vector<Value> values) : values_(std::move(values)) {}
  Row(std::initializer_list<Value> values) : values_(values) {}

  int size() const { return static_cast<int>(values_.size()); }
  bool empty() const { return values_.empty(); }

  const Value& Get(int i) const { return values_[static_cast<size_t>(i)]; }
  void Set(int i, Value v) { values_[static_cast<size_t>(i)] = std::move(v); }
  void Append(Value v) { values_.push_back(std::move(v)); }
  void Reserve(int n) { values_.reserve(static_cast<size_t>(n)); }
  void Clear() { values_.clear(); }

  const std::vector<Value>& values() const { return values_; }

  /// New row holding the given column positions, in order (the paper's
  /// Record.project()).
  Row Project(const std::vector<int>& indexes) const;

  /// Appends all values of `other` (used when augmenting a fact row with
  /// dimension auxiliary columns after a successful probe).
  void Extend(const Row& other);

  /// Lexicographic comparison, element by element; shorter row sorts first
  /// on a tie. Rows compared together must be type-compatible per position.
  int Compare(const Row& other) const;

  bool operator==(const Row& other) const { return Compare(other) == 0; }
  bool operator!=(const Row& other) const { return Compare(other) != 0; }
  bool operator<(const Row& other) const { return Compare(other) < 0; }

  uint64_t Hash() const;

  /// Pipe-separated rendering: "ASIA|1992|4245".
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

struct RowHasher {
  size_t operator()(const Row& r) const { return r.Hash(); }
};

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_ROW_H_
