#include "schema/compiled_leaf.h"

#include <type_traits>

#include "common/strings.h"

namespace clydesdale {

namespace {

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();

/// The smallest int64 x with pred(x), for a pred that is monotone from
/// false to true and holds at INT64_MAX.
template <typename Pred>
int64_t FirstWhere(Pred pred) {
  int64_t lo = kMinKey;
  int64_t hi = kMaxKey;
  while (lo < hi) {
    const int64_t mid =
        lo + static_cast<int64_t>(
                 (static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo)) / 2);
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Where a literal falls among a column's keys: `first` is the smallest key
/// whose value compares >= the literal and `last` the largest whose value
/// compares <= it, each absent when no key qualifies.
struct Cut {
  std::optional<int64_t> first;
  std::optional<int64_t> last;
};

Cut CutAt(const Value& literal, TypeKind column) {
  if (column == TypeKind::kDouble) {
    const int64_t key = CompiledLeaf::OrderKey(literal.AsDouble());
    return {key, key};
  }
  if (literal.kind() != TypeKind::kDouble) {
    return {literal.AsInt64(), literal.AsInt64()};
  }
  // An integer column against a double: Value::Compare compares
  // double(x) with d, and double(x) is monotone in x, so the keys on
  // either side of d are found by bisection.
  const double d = literal.f64();
  if (std::isnan(d)) return {std::nullopt, kMaxKey};
  const auto as_double = [](int64_t x) { return static_cast<double>(x); };
  Cut cut;
  if (as_double(kMaxKey) >= d) {
    cut.first = FirstWhere([&](int64_t x) { return as_double(x) >= d; });
  }
  if (as_double(kMinKey) <= d) {
    cut.last = as_double(kMaxKey) <= d ? kMaxKey
               : FirstWhere([&](int64_t x) { return as_double(x) > d; }) - 1;
  }
  return cut;
}

Status CheckLiteral(const Predicate& leaf, const Value& literal,
                    TypeKind column) {
  if ((literal.kind() == TypeKind::kString) == (column == TypeKind::kString)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrCat("leaf '", leaf.ToString(), "' compares a ",
             TypeKindToString(literal.kind()), " literal with ",
             TypeKindToString(column), " column '", leaf.column_name(), "'"));
}

}  // namespace

Result<CompiledLeaf> CompiledLeaf::Compile(const Predicate& leaf,
                                           TypeKind type) {
  if (!leaf.IsLeaf()) {
    return Status::InvalidArgument(
        StrCat("'", leaf.ToString(), "' is not a single-column leaf"));
  }
  const Predicate::Kind op = leaf.kind();
  std::vector<Value> literals;
  if (op == Predicate::Kind::kIn) {
    literals = leaf.in_values();
  } else {
    literals.push_back(leaf.lo());
    if (op == Predicate::Kind::kBetween) literals.push_back(leaf.hi());
  }
  for (const Value& literal : literals) {
    CLY_RETURN_IF_ERROR(CheckLiteral(leaf, literal, type));
  }

  CompiledLeaf out;
  out.type_ = type;
  out.negated_ = op == Predicate::Kind::kNe;
  if (type == TypeKind::kString) {
    const auto bound = [&](size_t i, bool inclusive) {
      return StringBound{literals[i].str(), inclusive};
    };
    switch (op) {
      case Predicate::Kind::kLt:
      case Predicate::Kind::kLe:
        out.upper_ = bound(0, op == Predicate::Kind::kLe);
        break;
      case Predicate::Kind::kGt:
      case Predicate::Kind::kGe:
        out.lower_ = bound(0, op == Predicate::Kind::kGe);
        break;
      case Predicate::Kind::kBetween:
        out.lower_ = bound(0, true);
        out.upper_ = bound(1, true);
        break;
      default:  // = != IN
        for (const Value& literal : literals) {
          out.equal_to_.push_back(literal.str());
        }
        break;
    }
    return out;
  }

  const auto add = [&](std::optional<int64_t> lo, std::optional<int64_t> hi) {
    if (lo.has_value() && hi.has_value() && *lo <= *hi) {
      out.ranges_.push_back({*lo, *hi});
    }
  };
  const Cut cut = CutAt(literals[0], type);
  switch (op) {
    case Predicate::Kind::kLt:  // not >= the literal
      if (!cut.first.has_value()) {
        add(kMinKey, kMaxKey);
      } else if (*cut.first > kMinKey) {
        add(kMinKey, *cut.first - 1);
      }
      break;
    case Predicate::Kind::kLe:
      add(kMinKey, cut.last);
      break;
    case Predicate::Kind::kGt:  // not <= the literal
      if (!cut.last.has_value()) {
        add(kMinKey, kMaxKey);
      } else if (*cut.last < kMaxKey) {
        add(*cut.last + 1, kMaxKey);
      }
      break;
    case Predicate::Kind::kGe:
      add(cut.first, kMaxKey);
      break;
    case Predicate::Kind::kBetween:
      add(cut.first, CutAt(literals[1], type).last);
      break;
    default:  // = != IN: the keys equal to each literal
      for (const Value& literal : literals) {
        const Cut equal = CutAt(literal, type);
        add(equal.first, equal.last);
      }
      break;
  }
  return out;
}

bool CompiledLeaf::TestKey(int64_t key) const {
  bool hit = false;
  for (const KeyRange& r : ranges_) hit = hit || (key >= r.lo && key <= r.hi);
  return hit != negated_;
}

bool CompiledLeaf::Test(std::string_view v) const {
  if (!lower_.has_value() && !upper_.has_value()) {
    for (const std::string& s : equal_to_) {
      if (v == s) return !negated_;
    }
    return negated_;
  }
  if (lower_.has_value()) {
    const int c = v.compare(lower_->value);
    if (c < 0 || (c == 0 && !lower_->inclusive)) return false;
  }
  if (upper_.has_value()) {
    const int c = v.compare(upper_->value);
    if (c > 0 || (c == 0 && !upper_->inclusive)) return false;
  }
  return true;
}

template <typename T>
void CompiledLeaf::Apply(const T* v, size_t n, uint8_t* sel) const {
  constexpr bool kDoubles = std::is_same_v<T, double>;
  CLY_DCHECK((type_ == TypeKind::kDouble) == kDoubles);
  const auto to_key = [](T x) {
    if constexpr (kDoubles) {
      return OrderKey(x);
    } else {
      return static_cast<int64_t>(x);
    }
  };
  const auto flip = static_cast<uint8_t>(negated_);
  if (ranges_.size() == 1) {  // every leaf but IN, and != on an exact value
    const int64_t lo = ranges_[0].lo;
    const int64_t hi = ranges_[0].hi;
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = to_key(v[i]);
      sel[i] &= static_cast<uint8_t>(((k >= lo) & (k <= hi)) ^ flip);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const int64_t k = to_key(v[i]);
    uint8_t hit = 0;
    for (const KeyRange& r : ranges_) {
      hit |= static_cast<uint8_t>((k >= r.lo) & (k <= r.hi));
    }
    sel[i] &= static_cast<uint8_t>(hit ^ flip);
  }
}

template void CompiledLeaf::Apply(const int32_t*, size_t, uint8_t*) const;
template void CompiledLeaf::Apply(const int64_t*, size_t, uint8_t*) const;
template void CompiledLeaf::Apply(const double*, size_t, uint8_t*) const;

bool CompiledLeaf::Refutes(int64_t min, int64_t max) const {
  if (type_ == TypeKind::kString) return false;
  if (negated_) {
    for (const KeyRange& r : ranges_) {
      if (r.lo <= min && max <= r.hi) return true;
    }
    return false;
  }
  for (const KeyRange& r : ranges_) {
    if (r.lo <= max && min <= r.hi) return false;
  }
  return true;
}

const std::vector<std::string>* CompiledLeaf::string_equalities() const {
  const bool equality = type_ == TypeKind::kString && !negated_ &&
                        !lower_.has_value() && !upper_.has_value();
  return equality ? &equal_to_ : nullptr;
}

}  // namespace clydesdale
