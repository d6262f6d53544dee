#ifndef CLYDESDALE_SCHEMA_EXPR_H_
#define CLYDESDALE_SCHEMA_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/row.h"
#include "schema/row_batch.h"
#include "schema/schema.h"

namespace clydesdale {

// ---------------------------------------------------------------------------
// Unbound expressions: built with column *names*, then bound against a schema
// to produce index-based evaluators. Queries in the catalogue are expressed
// with these; engines bind them against whatever intermediate schema they
// produce.
// ---------------------------------------------------------------------------

class BoundScalar;
class BoundPredicate;

/// A scalar expression tree (column ref, literal, + - *).
class Expr {
 public:
  enum class Kind { kColumn, kLiteral, kAdd, kSub, kMul };
  using Ptr = std::shared_ptr<const Expr>;

  static Ptr Col(std::string name);
  static Ptr Lit(Value v);
  static Ptr Add(Ptr a, Ptr b);
  static Ptr Sub(Ptr a, Ptr b);
  static Ptr Mul(Ptr a, Ptr b);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const Value& literal() const { return literal_; }
  const Ptr& left() const { return left_; }
  const Ptr& right() const { return right_; }

  /// Appends every referenced column name (with duplicates).
  void CollectColumns(std::vector<std::string>* out) const;

  /// Resolves column names to indexes in `schema`.
  Result<std::shared_ptr<const BoundScalar>> Bind(const Schema& schema) const;

  std::string ToString() const;

 private:
  Expr() = default;
  static Ptr MakeBinary(Kind kind, Ptr a, Ptr b);

  Kind kind_ = Kind::kLiteral;
  std::string name_;
  Value literal_;
  Ptr left_;
  Ptr right_;
};

/// A boolean predicate tree over a row.
class Predicate {
 public:
  enum class Kind {
    kTrue,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kBetween,  // inclusive both ends
    kIn,
    kAnd,
    kOr,
    kNot,
  };
  using Ptr = std::shared_ptr<const Predicate>;

  static Ptr True();
  static Ptr Eq(std::string col, Value v);
  static Ptr Ne(std::string col, Value v);
  static Ptr Lt(std::string col, Value v);
  static Ptr Le(std::string col, Value v);
  static Ptr Gt(std::string col, Value v);
  static Ptr Ge(std::string col, Value v);
  static Ptr Between(std::string col, Value lo, Value hi);
  static Ptr In(std::string col, std::vector<Value> values);
  static Ptr And(std::vector<Ptr> children);
  static Ptr Or(std::vector<Ptr> children);
  static Ptr Not(Ptr child);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  bool IsTrue() const { return kind_ == Kind::kTrue; }
  /// Comparison operands: lo() for kEq..kGe, lo()/hi() for kBetween.
  const Value& lo() const { return lo_; }
  const Value& hi() const { return hi_; }
  /// Candidate values of a kIn predicate.
  const std::vector<Value>& in_values() const { return set_; }
  /// Children of kAnd/kOr/kNot nodes (empty for leaves). These accessors let
  /// scan layers interpret predicate trees structurally (zone-map tests,
  /// encoded-data evaluation) without re-binding against a schema.
  const std::vector<Ptr>& children() const { return children_; }

  void CollectColumns(std::vector<std::string>* out) const;

  Result<std::shared_ptr<const BoundPredicate>> Bind(
      const Schema& schema) const;

  std::string ToString() const;

 private:
  Predicate() = default;
  static Ptr MakeCompare(Kind kind, std::string col, Value v);

  Kind kind_ = Kind::kTrue;
  std::string name_;
  Value lo_, hi_;              // comparison operand(s)
  std::vector<Value> set_;     // kIn
  std::vector<Ptr> children_;  // kAnd/kOr/kNot
};

// ---------------------------------------------------------------------------
// Bound (index-resolved) evaluators.
// ---------------------------------------------------------------------------

/// Scalar evaluator; Eval never fails after a successful Bind.
class BoundScalar {
 public:
  virtual ~BoundScalar() = default;
  virtual Value Eval(const Row& row) const = 0;

  /// Column-wise evaluation over a selection vector (mirrors
  /// BoundPredicate::EvalBatch): for each of the `n` selected row indexes
  /// writes the int64-widened value of batch row sel_idx[j] to out[j]. The
  /// base implementation falls back to scalar Eval per row, so every
  /// expression kind works; column refs, literals, and integer arithmetic
  /// override it with tight column loops.
  virtual void EvalBatch(const RowBatch& batch, const int32_t* sel_idx,
                         int64_t n, int64_t* out) const;

  /// True when EvalBatch over `batch` is exact: every input this expression
  /// touches is integer-typed, so per-element int64 widening matches the
  /// scalar Eval-then-truncate semantics. Mixed double arithmetic must keep
  /// the scalar path (it truncates only the final result).
  virtual bool IntegerTypedIn(const RowBatch& batch) const {
    (void)batch;
    return false;
  }
};

/// Predicate evaluator with a row path and a selective batch path.
class BoundPredicate {
 public:
  virtual ~BoundPredicate() = default;
  virtual bool Eval(const Row& row) const = 0;

  /// Filters `batch` rows: sets sel[i] &= predicate(row i). `sel` must have
  /// batch.num_rows() entries. The default loops over rows; leaf comparisons
  /// on numeric columns override this with tight column loops.
  virtual void EvalBatch(const RowBatch& batch, std::vector<uint8_t>* sel) const;
};

using BoundScalarPtr = std::shared_ptr<const BoundScalar>;
using BoundPredicatePtr = std::shared_ptr<const BoundPredicate>;

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_EXPR_H_
