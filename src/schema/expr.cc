#include "schema/expr.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"
#include "schema/compiled_leaf.h"

namespace clydesdale {

// ---------------------------------------------------------------------------
// Expr factories
// ---------------------------------------------------------------------------

Expr::Ptr Expr::Col(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->name_ = std::move(name);
  return e;
}

Expr::Ptr Expr::Lit(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

Expr::Ptr Expr::Add(Ptr a, Ptr b) {
  return MakeBinary(Kind::kAdd, std::move(a), std::move(b));
}
Expr::Ptr Expr::Sub(Ptr a, Ptr b) {
  return MakeBinary(Kind::kSub, std::move(a), std::move(b));
}
Expr::Ptr Expr::Mul(Ptr a, Ptr b) {
  return MakeBinary(Kind::kMul, std::move(a), std::move(b));
}

Expr::Ptr Expr::MakeBinary(Kind kind, Ptr a, Ptr b) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = kind;
  e->left_ = std::move(a);
  e->right_ = std::move(b);
  return e;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kColumn:
      out->push_back(name_);
      return;
    case Kind::kLiteral:
      return;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
      left_->CollectColumns(out);
      right_->CollectColumns(out);
      return;
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return name_;
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kAdd:
      return StrCat("(", left_->ToString(), " + ", right_->ToString(), ")");
    case Kind::kSub:
      return StrCat("(", left_->ToString(), " - ", right_->ToString(), ")");
    case Kind::kMul:
      return StrCat("(", left_->ToString(), " * ", right_->ToString(), ")");
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Bound scalar nodes
// ---------------------------------------------------------------------------

void BoundScalar::EvalBatch(const RowBatch& batch, const int32_t* sel_idx,
                            int64_t n, int64_t* out) const {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = Eval(batch.GetRow(sel_idx[j])).AsInt64();
  }
}

namespace {

class ColumnScalar final : public BoundScalar {
 public:
  explicit ColumnScalar(int index) : index_(index) {}
  Value Eval(const Row& row) const override { return row.Get(index_); }

  void EvalBatch(const RowBatch& batch, const int32_t* sel_idx, int64_t n,
                 int64_t* out) const override {
    const ColumnVector& col = batch.column(index_);
    switch (col.type()) {
      case TypeKind::kInt32: {
        const auto& data = col.i32();
        for (int64_t j = 0; j < n; ++j) {
          out[j] = data[static_cast<size_t>(sel_idx[j])];
        }
        return;
      }
      case TypeKind::kInt64: {
        const auto& data = col.i64();
        for (int64_t j = 0; j < n; ++j) {
          out[j] = data[static_cast<size_t>(sel_idx[j])];
        }
        return;
      }
      case TypeKind::kDouble: {
        // Per-element truncation == Eval(row).AsInt64() for a lone column.
        const auto& data = col.f64();
        for (int64_t j = 0; j < n; ++j) {
          out[j] = static_cast<int64_t>(data[static_cast<size_t>(sel_idx[j])]);
        }
        return;
      }
      case TypeKind::kString:
        break;  // falls through to the scalar path (which reports the error)
    }
    BoundScalar::EvalBatch(batch, sel_idx, n, out);
  }

  bool IntegerTypedIn(const RowBatch& batch) const override {
    const TypeKind t = batch.column(index_).type();
    return t == TypeKind::kInt32 || t == TypeKind::kInt64;
  }

 private:
  int index_;
};

class LiteralScalar final : public BoundScalar {
 public:
  explicit LiteralScalar(Value v) : value_(std::move(v)) {}
  Value Eval(const Row&) const override { return value_; }

  void EvalBatch(const RowBatch&, const int32_t*, int64_t n,
                 int64_t* out) const override {
    const int64_t v = value_.AsInt64();
    for (int64_t j = 0; j < n; ++j) out[j] = v;
  }

  bool IntegerTypedIn(const RowBatch&) const override {
    return value_.kind() == TypeKind::kInt32 ||
           value_.kind() == TypeKind::kInt64;
  }

 private:
  Value value_;
};

class ArithmeticScalar final : public BoundScalar {
 public:
  ArithmeticScalar(Expr::Kind op, BoundScalarPtr l, BoundScalarPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Value Eval(const Row& row) const override {
    // SSB arithmetic is integer (prices/discounts are scaled ints); compute
    // in int64 when both sides are integer, double otherwise.
    const Value a = left_->Eval(row);
    const Value b = right_->Eval(row);
    const bool integral = a.kind() != TypeKind::kDouble &&
                          b.kind() != TypeKind::kDouble &&
                          a.kind() != TypeKind::kString;
    if (integral) {
      const int64_t x = a.AsInt64();
      const int64_t y = b.AsInt64();
      switch (op_) {
        case Expr::Kind::kAdd:
          return Value(x + y);
        case Expr::Kind::kSub:
          return Value(x - y);
        case Expr::Kind::kMul:
          return Value(x * y);
        default:
          break;
      }
    }
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    switch (op_) {
      case Expr::Kind::kAdd:
        return Value(x + y);
      case Expr::Kind::kSub:
        return Value(x - y);
      case Expr::Kind::kMul:
        return Value(x * y);
      default:
        break;
    }
    return Value();
  }

  void EvalBatch(const RowBatch& batch, const int32_t* sel_idx, int64_t n,
                 int64_t* out) const override {
    // Integer-only subtrees vectorize (the SSB case: scaled-int prices and
    // discounts); anything touching a double keeps the exact scalar
    // semantics of Eval, which widens to double and truncates once.
    if (!IntegerTypedIn(batch)) {
      BoundScalar::EvalBatch(batch, sel_idx, n, out);
      return;
    }
    std::vector<int64_t> lhs(static_cast<size_t>(n));
    left_->EvalBatch(batch, sel_idx, n, lhs.data());
    right_->EvalBatch(batch, sel_idx, n, out);
    switch (op_) {
      case Expr::Kind::kAdd:
        for (int64_t j = 0; j < n; ++j) out[j] = lhs[static_cast<size_t>(j)] + out[j];
        return;
      case Expr::Kind::kSub:
        for (int64_t j = 0; j < n; ++j) out[j] = lhs[static_cast<size_t>(j)] - out[j];
        return;
      case Expr::Kind::kMul:
        for (int64_t j = 0; j < n; ++j) out[j] = lhs[static_cast<size_t>(j)] * out[j];
        return;
      default:
        return;
    }
  }

  bool IntegerTypedIn(const RowBatch& batch) const override {
    return left_->IntegerTypedIn(batch) && right_->IntegerTypedIn(batch);
  }

 private:
  Expr::Kind op_;
  BoundScalarPtr left_;
  BoundScalarPtr right_;
};

}  // namespace

Result<BoundScalarPtr> Expr::Bind(const Schema& schema) const {
  switch (kind_) {
    case Kind::kColumn: {
      CLY_ASSIGN_OR_RETURN(int idx, schema.Require(name_));
      return BoundScalarPtr(std::make_shared<ColumnScalar>(idx));
    }
    case Kind::kLiteral:
      return BoundScalarPtr(std::make_shared<LiteralScalar>(literal_));
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul: {
      CLY_ASSIGN_OR_RETURN(BoundScalarPtr l, left_->Bind(schema));
      CLY_ASSIGN_OR_RETURN(BoundScalarPtr r, right_->Bind(schema));
      return BoundScalarPtr(
          std::make_shared<ArithmeticScalar>(kind_, std::move(l), std::move(r)));
    }
  }
  return Status::Internal("unreachable expr kind");
}

// ---------------------------------------------------------------------------
// Predicate factories
// ---------------------------------------------------------------------------

Predicate::Ptr Predicate::MakeCompare(Kind kind, std::string col, Value v) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = kind;
  p->name_ = std::move(col);
  p->lo_ = std::move(v);
  return p;
}

Predicate::Ptr Predicate::True() {
  static const Ptr kTruePred = std::shared_ptr<Predicate>(new Predicate());
  return kTruePred;
}

Predicate::Ptr Predicate::Eq(std::string col, Value v) {
  return MakeCompare(Kind::kEq, std::move(col), std::move(v));
}
Predicate::Ptr Predicate::Ne(std::string col, Value v) {
  return MakeCompare(Kind::kNe, std::move(col), std::move(v));
}
Predicate::Ptr Predicate::Lt(std::string col, Value v) {
  return MakeCompare(Kind::kLt, std::move(col), std::move(v));
}
Predicate::Ptr Predicate::Le(std::string col, Value v) {
  return MakeCompare(Kind::kLe, std::move(col), std::move(v));
}
Predicate::Ptr Predicate::Gt(std::string col, Value v) {
  return MakeCompare(Kind::kGt, std::move(col), std::move(v));
}
Predicate::Ptr Predicate::Ge(std::string col, Value v) {
  return MakeCompare(Kind::kGe, std::move(col), std::move(v));
}

Predicate::Ptr Predicate::Between(std::string col, Value lo, Value hi) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kBetween;
  p->name_ = std::move(col);
  p->lo_ = std::move(lo);
  p->hi_ = std::move(hi);
  return p;
}

Predicate::Ptr Predicate::In(std::string col, std::vector<Value> values) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kIn;
  p->name_ = std::move(col);
  p->set_ = std::move(values);
  return p;
}

Predicate::Ptr Predicate::And(std::vector<Ptr> children) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kAnd;
  p->children_ = std::move(children);
  return p;
}

Predicate::Ptr Predicate::Or(std::vector<Ptr> children) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kOr;
  p->children_ = std::move(children);
  return p;
}

Predicate::Ptr Predicate::Not(Ptr child) {
  auto p = std::shared_ptr<Predicate>(new Predicate());
  p->kind_ = Kind::kNot;
  p->children_ = {std::move(child)};
  return p;
}

namespace {
void SplitInto(const Predicate::Ptr& pred, std::vector<Predicate::Ptr>* leaves,
               std::vector<Predicate::Ptr>* rest) {
  if (pred->kind() == Predicate::Kind::kAnd) {
    for (const auto& child : pred->children()) SplitInto(child, leaves, rest);
  } else if (!pred->IsTrue()) {
    (pred->IsLeaf() ? leaves : rest)->push_back(pred);
  }
}
}  // namespace

Predicate::LeafSplit Predicate::SplitLeaves() const {
  LeafSplit split;
  std::vector<Ptr> rest;
  SplitInto(shared_from_this(), &split.leaves, &rest);
  split.residual = rest.empty()       ? True()
                   : rest.size() == 1 ? rest[0]
                                      : And(std::move(rest));
  return split;
}

void Predicate::CollectColumns(std::vector<std::string>* out) const {
  switch (kind_) {
    case Kind::kTrue:
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const Ptr& c : children_) c->CollectColumns(out);
      return;
    default:
      out->push_back(name_);
      return;
  }
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kEq:
      return StrCat(name_, " = ", lo_.ToString());
    case Kind::kNe:
      return StrCat(name_, " != ", lo_.ToString());
    case Kind::kLt:
      return StrCat(name_, " < ", lo_.ToString());
    case Kind::kLe:
      return StrCat(name_, " <= ", lo_.ToString());
    case Kind::kGt:
      return StrCat(name_, " > ", lo_.ToString());
    case Kind::kGe:
      return StrCat(name_, " >= ", lo_.ToString());
    case Kind::kBetween:
      return StrCat(name_, " between ", lo_.ToString(), " and ",
                    hi_.ToString());
    case Kind::kIn: {
      std::vector<std::string> vs;
      for (const Value& v : set_) vs.push_back(v.ToString());
      return StrCat(name_, " in (", StrJoin(vs, ", "), ")");
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<std::string> cs;
      for (const Ptr& c : children_) cs.push_back(c->ToString());
      return StrCat("(", StrJoin(cs, kind_ == Kind::kAnd ? " and " : " or "),
                    ")");
    }
    case Kind::kNot:
      return StrCat("not (", children_[0]->ToString(), ")");
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Bound predicate nodes
// ---------------------------------------------------------------------------

namespace {

class TruePredicate final : public BoundPredicate {
 public:
  bool Eval(const Row&) const override { return true; }
  void EvalBatch(const RowBatch&, std::vector<uint8_t>*) const override {}
};

/// A bound single-column leaf. The row path compares with Value::Compare,
/// the reference semantics; the batch path runs the compiled leaf, which
/// gives the same verdicts.
class LeafPredicate final : public BoundPredicate {
 public:
  LeafPredicate(Predicate::Ptr leaf, int index, CompiledLeaf compiled)
      : leaf_(std::move(leaf)), index_(index), compiled_(std::move(compiled)) {}

  bool Eval(const Row& row) const override {
    const Value& v = row.Get(index_);
    switch (leaf_->kind()) {
      case Predicate::Kind::kEq:
        return v.Compare(leaf_->lo()) == 0;
      case Predicate::Kind::kNe:
        return v.Compare(leaf_->lo()) != 0;
      case Predicate::Kind::kLt:
        return v.Compare(leaf_->lo()) < 0;
      case Predicate::Kind::kLe:
        return v.Compare(leaf_->lo()) <= 0;
      case Predicate::Kind::kGt:
        return v.Compare(leaf_->lo()) > 0;
      case Predicate::Kind::kGe:
        return v.Compare(leaf_->lo()) >= 0;
      case Predicate::Kind::kBetween:
        return v.Compare(leaf_->lo()) >= 0 && v.Compare(leaf_->hi()) <= 0;
      case Predicate::Kind::kIn: {
        const std::vector<Value>& set = leaf_->in_values();
        return std::any_of(set.begin(), set.end(), [&](const Value& c) {
          return v.Compare(c) == 0;
        });
      }
      default:
        return false;
    }
  }

  void EvalBatch(const RowBatch& batch,
                 std::vector<uint8_t>* sel) const override {
    const ColumnVector& col = batch.column(index_);
    const auto n = static_cast<size_t>(batch.num_rows());
    CLY_DCHECK(sel->size() == n);
    uint8_t* const s = sel->data();
    switch (col.type()) {
      case TypeKind::kInt32:
        compiled_.Apply(col.i32().data(), n, s);
        return;
      case TypeKind::kInt64:
        compiled_.Apply(col.i64().data(), n, s);
        return;
      case TypeKind::kDouble:
        compiled_.Apply(col.f64().data(), n, s);
        return;
      case TypeKind::kString:
        // In place, in either storage mode, without a Value per row.
        for (size_t i = 0; i < n; ++i) {
          if (s[i] != 0) {
            s[i] = compiled_.Test(col.StringViewAt(static_cast<int64_t>(i)));
          }
        }
        return;
    }
  }

 private:
  Predicate::Ptr leaf_;
  int index_;
  CompiledLeaf compiled_;
};

class AndPredicate final : public BoundPredicate {
 public:
  explicit AndPredicate(std::vector<BoundPredicatePtr> children)
      : children_(std::move(children)) {}

  bool Eval(const Row& row) const override {
    for (const auto& c : children_) {
      if (!c->Eval(row)) return false;
    }
    return true;
  }

  void EvalBatch(const RowBatch& batch,
                 std::vector<uint8_t>* sel) const override {
    for (const auto& c : children_) c->EvalBatch(batch, sel);
  }

 private:
  std::vector<BoundPredicatePtr> children_;
};

class OrPredicate final : public BoundPredicate {
 public:
  explicit OrPredicate(std::vector<BoundPredicatePtr> children)
      : children_(std::move(children)) {}

  bool Eval(const Row& row) const override {
    for (const auto& c : children_) {
      if (c->Eval(row)) return true;
    }
    return false;
  }

  /// Each child filters only the rows no earlier child accepted; a row
  /// survives when any child keeps it.
  void EvalBatch(const RowBatch& batch,
                 std::vector<uint8_t>* sel) const override {
    std::vector<uint8_t> accepted(sel->size(), 0);
    std::vector<uint8_t> trial;
    for (const auto& c : children_) {
      trial = *sel;
      for (size_t i = 0; i < trial.size(); ++i) trial[i] &= !accepted[i];
      c->EvalBatch(batch, &trial);
      for (size_t i = 0; i < trial.size(); ++i) accepted[i] |= trial[i];
    }
    *sel = std::move(accepted);
  }

 private:
  std::vector<BoundPredicatePtr> children_;
};

class NotPredicate final : public BoundPredicate {
 public:
  explicit NotPredicate(BoundPredicatePtr child) : child_(std::move(child)) {}
  bool Eval(const Row& row) const override { return !child_->Eval(row); }

  void EvalBatch(const RowBatch& batch,
                 std::vector<uint8_t>* sel) const override {
    std::vector<uint8_t> child = *sel;
    child_->EvalBatch(batch, &child);
    for (size_t i = 0; i < sel->size(); ++i) (*sel)[i] &= !child[i];
  }

 private:
  BoundPredicatePtr child_;
};

}  // namespace

int64_t CompactMask(const uint8_t* mask, size_t n, int32_t* rows) {
  // Write every row and advance past the kept ones: no branch per row.
  size_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    rows[m] = static_cast<int32_t>(i);
    m += mask[i] != 0;
  }
  return static_cast<int64_t>(m);
}

int64_t SelectRows(const BoundPredicate* pred, const RowBatch& batch,
                   std::vector<uint8_t>* mask, std::vector<int32_t>* rows) {
  const auto n = static_cast<size_t>(batch.num_rows());
  rows->resize(n);
  if (pred == nullptr) {
    std::iota(rows->begin(), rows->end(), 0);
    return batch.num_rows();
  }
  mask->assign(n, 1);
  pred->EvalBatch(batch, mask);
  return CompactMask(mask->data(), n, rows->data());
}

Result<BoundPredicatePtr> Predicate::Bind(const Schema& schema) const {
  if (IsLeaf()) {
    CLY_ASSIGN_OR_RETURN(int idx, schema.Require(name_));
    CLY_ASSIGN_OR_RETURN(CompiledLeaf compiled,
                         CompiledLeaf::Compile(*this, schema.field(idx).type));
    return BoundPredicatePtr(std::make_shared<LeafPredicate>(
        shared_from_this(), idx, std::move(compiled)));
  }
  switch (kind_) {
    case Kind::kTrue:
      return BoundPredicatePtr(std::make_shared<TruePredicate>());
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<BoundPredicatePtr> bound;
      bound.reserve(children_.size());
      for (const Ptr& c : children_) {
        CLY_ASSIGN_OR_RETURN(BoundPredicatePtr b, c->Bind(schema));
        bound.push_back(std::move(b));
      }
      if (kind_ == Kind::kAnd) {
        return BoundPredicatePtr(
            std::make_shared<AndPredicate>(std::move(bound)));
      }
      return BoundPredicatePtr(std::make_shared<OrPredicate>(std::move(bound)));
    }
    case Kind::kNot: {
      CLY_ASSIGN_OR_RETURN(BoundPredicatePtr b, children_[0]->Bind(schema));
      return BoundPredicatePtr(std::make_shared<NotPredicate>(std::move(b)));
    }
    default:  // the leaves, bound above
      break;
  }
  return Status::Internal("unreachable predicate kind");
}

}  // namespace clydesdale
