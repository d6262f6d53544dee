#ifndef CLYDESDALE_SCHEMA_COMPILED_LEAF_H_
#define CLYDESDALE_SCHEMA_COMPILED_LEAF_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "schema/expr.h"
#include "schema/value.h"

namespace clydesdale {

/// A single-column leaf (= != < <= > >= BETWEEN IN) compiled once against
/// its column's type. It is the one place the batch and scan paths compare a
/// value with a leaf's literals, and its verdicts are exactly those of the
/// row path, which compares with Value::Compare: when either side is a
/// double both compare as doubles (so a double literal on an integer column
/// never truncates), integers compare as int64, and NaN is one value above
/// every number.
///
/// A numeric leaf is a set of inclusive ranges over the column's order key
/// (the value itself for integer columns, OrderKey() for doubles), negated
/// for !=. Compile finds the keys each literal is equal to once, so no
/// kernel converts a literal, or casts a double to an integer, per row. A
/// string leaf is an equality set (= != IN) or a pair of bounds.
class CompiledLeaf {
 public:
  /// Compiles `leaf` (leaf.IsLeaf()) for a column of `type`. A string
  /// literal on a numeric column, or a number on a string column, is
  /// InvalidArgument.
  static Result<CompiledLeaf> Compile(const Predicate& leaf, TypeKind type);

  /// Int64 keys that order doubles as Value::Compare does: -0 and +0 share
  /// a key, and every NaN takes the largest key.
  static int64_t OrderKey(double v) {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    const auto bits = std::bit_cast<int64_t>(v + 0.0);  // -0 becomes +0
    const int64_t key = bits ^ ((bits >> 63) & kMax);
    return std::isnan(v) ? kMax : key;
  }

  TypeKind column_type() const { return type_; }

  /// One value's verdict: integer columns pass int64, doubles double,
  /// strings string_view.
  bool Test(int64_t v) const { return TestKey(v); }
  bool Test(double v) const { return TestKey(OrderKey(v)); }
  bool Test(std::string_view v) const;

  /// Batch kernel over a typed array (int32_t or int64_t for an integer
  /// column, double for a double column): sel[i] &= Test(v[i]) for i < n,
  /// without a branch per value.
  template <typename T>
  void Apply(const T* v, size_t n, uint8_t* sel) const;

  /// Zone-map refutation: true when no value in [min, max] of a numeric
  /// column can pass; always false for a string leaf.
  bool Refutes(int64_t min, int64_t max) const;
  bool Refutes(double min, double max) const {
    return Refutes(OrderKey(min), OrderKey(max));
  }

  /// The strings an = or IN leaf on a string column accepts; null for any
  /// other leaf.
  const std::vector<std::string>* string_equalities() const;

 private:
  struct KeyRange {
    int64_t lo;
    int64_t hi;
  };
  struct StringBound {
    std::string value;
    bool inclusive;
  };

  bool TestKey(int64_t key) const;

  TypeKind type_ = TypeKind::kInt32;
  bool negated_ = false;
  /// Numeric leaves: a key passes when it lies in some range (in none, when
  /// negated_).
  std::vector<KeyRange> ranges_;
  /// String leaves: the equality set, unless a bound is set.
  std::vector<std::string> equal_to_;
  std::optional<StringBound> lower_;
  std::optional<StringBound> upper_;
};

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_COMPILED_LEAF_H_
