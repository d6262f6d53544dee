#ifndef CLYDESDALE_SCHEMA_VALUE_H_
#define CLYDESDALE_SCHEMA_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/logging.h"

namespace clydesdale {

/// Column types supported by the engines. SSB needs exactly these four.
enum class TypeKind : uint8_t { kInt32 = 0, kInt64 = 1, kDouble = 2, kString = 3 };

const char* TypeKindToString(TypeKind kind);

/// A single typed cell. Small tagged union; strings are owned.
class Value {
 public:
  Value() : kind_(TypeKind::kInt32) { scalar_.i32 = 0; }
  explicit Value(int32_t v) : kind_(TypeKind::kInt32) { scalar_.i32 = v; }
  explicit Value(int64_t v) : kind_(TypeKind::kInt64) { scalar_.i64 = v; }
  explicit Value(double v) : kind_(TypeKind::kDouble) { scalar_.f64 = v; }
  // String constructors zero the scalar lanes so copies/moves never touch
  // uninitialized bytes.
  explicit Value(std::string v) : kind_(TypeKind::kString), str_(std::move(v)) {
    scalar_.i64 = 0;
  }
  explicit Value(const char* v) : kind_(TypeKind::kString), str_(v) {
    scalar_.i64 = 0;
  }

  TypeKind kind() const { return kind_; }

  int32_t i32() const {
    CLY_DCHECK(kind_ == TypeKind::kInt32);
    return scalar_.i32;
  }
  int64_t i64() const {
    CLY_DCHECK(kind_ == TypeKind::kInt64);
    return scalar_.i64;
  }
  double f64() const {
    CLY_DCHECK(kind_ == TypeKind::kDouble);
    return scalar_.f64;
  }
  const std::string& str() const {
    CLY_DCHECK(kind_ == TypeKind::kString);
    return str_;
  }

  /// Numeric widening view: any numeric kind as int64 (kDouble truncates).
  int64_t AsInt64() const;
  /// Numeric widening view: any numeric kind as double.
  double AsDouble() const;

  /// Total order within a kind; comparing across numeric kinds widens (to
  /// double when either side is a double, else to int64). NaN equals only
  /// NaN and sorts above every number, as in PostgreSQL. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  uint64_t Hash() const;

  /// Unquoted text rendering (used by the text storage format and outputs).
  std::string ToString() const;

  /// Bytes this value occupies in the binary row encoding.
  size_t EncodedSize() const;

 private:
  TypeKind kind_;
  union Scalar {
    int32_t i32;
    int64_t i64;
    double f64;
  } scalar_;
  std::string str_;
};

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_VALUE_H_
