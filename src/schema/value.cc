#include "schema/value.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace clydesdale {

const char* TypeKindToString(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt32:
      return "int32";
    case TypeKind::kInt64:
      return "int64";
    case TypeKind::kDouble:
      return "double";
    case TypeKind::kString:
      return "string";
  }
  return "?";
}

int64_t Value::AsInt64() const {
  switch (kind_) {
    case TypeKind::kInt32:
      return scalar_.i32;
    case TypeKind::kInt64:
      return scalar_.i64;
    case TypeKind::kDouble:
      return static_cast<int64_t>(scalar_.f64);
    case TypeKind::kString:
      CLY_LOG(Fatal) << "AsInt64 on string value";
  }
  return 0;
}

double Value::AsDouble() const {
  switch (kind_) {
    case TypeKind::kInt32:
      return scalar_.i32;
    case TypeKind::kInt64:
      return static_cast<double>(scalar_.i64);
    case TypeKind::kDouble:
      return scalar_.f64;
    case TypeKind::kString:
      CLY_LOG(Fatal) << "AsDouble on string value";
  }
  return 0;
}

int Value::Compare(const Value& other) const {
  if (kind_ == TypeKind::kString || other.kind_ == TypeKind::kString) {
    CLY_DCHECK(kind_ == TypeKind::kString && other.kind_ == TypeKind::kString);
    return str_.compare(other.str_);
  }
  if (kind_ == TypeKind::kDouble || other.kind_ == TypeKind::kDouble) {
    const double a = AsDouble();
    const double b = other.AsDouble();
    if (std::isnan(a) || std::isnan(b)) {
      return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
    }
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  const int64_t a = AsInt64();
  const int64_t b = other.AsInt64();
  return a < b ? -1 : (a > b ? 1 : 0);
}

uint64_t Value::Hash() const {
  switch (kind_) {
    case TypeKind::kInt32:
      return Mix64(static_cast<uint64_t>(scalar_.i32));
    case TypeKind::kInt64:
      return Mix64(static_cast<uint64_t>(scalar_.i64));
    case TypeKind::kDouble: {
      // Values that Compare calls equal hash alike: -0 as +0, every NaN as
      // one NaN.
      double v = scalar_.f64 + 0.0;
      if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      __builtin_memcpy(&bits, &v, sizeof(bits));
      return Mix64(bits);
    }
    case TypeKind::kString:
      return HashString(str_);
  }
  return 0;
}

std::string Value::ToString() const {
  char buf[32];
  switch (kind_) {
    case TypeKind::kInt32:
      std::snprintf(buf, sizeof(buf), "%d", scalar_.i32);
      return buf;
    case TypeKind::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(scalar_.i64));
      return buf;
    case TypeKind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.4f", scalar_.f64);
      return buf;
    case TypeKind::kString:
      return str_;
  }
  return "";
}

size_t Value::EncodedSize() const {
  switch (kind_) {
    case TypeKind::kInt32:
      return 4;
    case TypeKind::kInt64:
    case TypeKind::kDouble:
      return 8;
    case TypeKind::kString:
      return 2 + str_.size();
  }
  return 0;
}

}  // namespace clydesdale
