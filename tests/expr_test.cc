#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "schema/compiled_leaf.h"
#include "schema/expr.h"

namespace clydesdale {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"qty", TypeKind::kInt32, 0},
                       {"price", TypeKind::kInt32, 0},
                       {"region", TypeKind::kString, 0},
                       {"rate", TypeKind::kDouble, 0}});
}

Row TestRow(int32_t qty, int32_t price, const char* region, double rate) {
  return Row({Value(qty), Value(price), Value(region), Value(rate)});
}

TEST(ExprTest, ColumnAndLiteral) {
  auto schema = TestSchema();
  auto col = Expr::Col("price")->Bind(*schema);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Eval(TestRow(1, 99, "ASIA", 0.5)).i32(), 99);

  auto lit = Expr::Lit(Value(int32_t{5}))->Bind(*schema);
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ((*lit)->Eval(TestRow(0, 0, "", 0)).i32(), 5);
}

TEST(ExprTest, IntegerArithmeticStaysIntegral) {
  auto schema = TestSchema();
  auto expr = Expr::Mul(Expr::Col("qty"), Expr::Col("price"))->Bind(*schema);
  ASSERT_TRUE(expr.ok());
  const Value v = (*expr)->Eval(TestRow(3, 100, "", 0));
  EXPECT_EQ(v.kind(), TypeKind::kInt64);
  EXPECT_EQ(v.i64(), 300);
}

TEST(ExprTest, SubAndAdd) {
  auto schema = TestSchema();
  auto sub = Expr::Sub(Expr::Col("price"), Expr::Col("qty"))->Bind(*schema);
  auto add = Expr::Add(Expr::Col("price"), Expr::Lit(Value(int32_t{1})))
                 ->Bind(*schema);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(add.ok());
  EXPECT_EQ((*sub)->Eval(TestRow(3, 10, "", 0)).AsInt64(), 7);
  EXPECT_EQ((*add)->Eval(TestRow(3, 10, "", 0)).AsInt64(), 11);
}

TEST(ExprTest, DoubleArithmetic) {
  auto schema = TestSchema();
  auto expr = Expr::Mul(Expr::Col("rate"), Expr::Col("qty"))->Bind(*schema);
  ASSERT_TRUE(expr.ok());
  EXPECT_DOUBLE_EQ((*expr)->Eval(TestRow(4, 0, "", 0.25)).f64(), 1.0);
}

TEST(ExprTest, BindFailsOnUnknownColumn) {
  auto schema = TestSchema();
  EXPECT_FALSE(Expr::Col("nope")->Bind(*schema).ok());
}

TEST(ExprTest, CollectColumns) {
  std::vector<std::string> cols;
  Expr::Mul(Expr::Col("a"), Expr::Sub(Expr::Col("b"), Expr::Lit(Value(1.0))))
      ->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(PredicateTest, Comparisons) {
  auto schema = TestSchema();
  const Row row = TestRow(25, 100, "ASIA", 0.5);
  auto check = [&](Predicate::Ptr p, bool expected) {
    auto bound = p->Bind(*schema);
    ASSERT_TRUE(bound.ok()) << p->ToString();
    EXPECT_EQ((*bound)->Eval(row), expected) << p->ToString();
  };
  check(Predicate::Eq("qty", Value(int32_t{25})), true);
  check(Predicate::Eq("qty", Value(int32_t{24})), false);
  check(Predicate::Ne("qty", Value(int32_t{24})), true);
  check(Predicate::Lt("qty", Value(int32_t{26})), true);
  check(Predicate::Le("qty", Value(int32_t{25})), true);
  check(Predicate::Gt("qty", Value(int32_t{25})), false);
  check(Predicate::Ge("qty", Value(int32_t{25})), true);
  check(Predicate::Between("qty", Value(int32_t{20}), Value(int32_t{30})), true);
  check(Predicate::Between("qty", Value(int32_t{26}), Value(int32_t{30})),
        false);
  check(Predicate::Eq("region", Value("ASIA")), true);
  check(Predicate::In("region", {Value("EUROPE"), Value("ASIA")}), true);
  check(Predicate::In("region", {Value("EUROPE")}), false);
}

TEST(PredicateTest, BooleanCombinators) {
  auto schema = TestSchema();
  const Row row = TestRow(25, 100, "ASIA", 0.5);
  auto t = Predicate::Eq("qty", Value(int32_t{25}));
  auto f = Predicate::Eq("qty", Value(int32_t{0}));
  auto eval = [&](Predicate::Ptr p) {
    return (*p->Bind(*schema))->Eval(row);
  };
  EXPECT_TRUE(eval(Predicate::And({t, t})));
  EXPECT_FALSE(eval(Predicate::And({t, f})));
  EXPECT_TRUE(eval(Predicate::Or({f, t})));
  EXPECT_FALSE(eval(Predicate::Or({f, f})));
  EXPECT_TRUE(eval(Predicate::Not(f)));
  EXPECT_TRUE(eval(Predicate::True()));
}

TEST(PredicateTest, EvalBatchMatchesRowEval) {
  auto schema = TestSchema();
  RowBatch batch(schema);
  batch.AppendRow(TestRow(10, 5, "ASIA", 0.1));
  batch.AppendRow(TestRow(25, 6, "EUROPE", 0.2));
  batch.AppendRow(TestRow(30, 7, "ASIA", 0.3));
  batch.AppendRow(TestRow(40, 8, "AFRICA", 0.4));

  auto pred = Predicate::And({Predicate::Between("qty", Value(int32_t{20}),
                                                 Value(int32_t{35})),
                              Predicate::Eq("region", Value("ASIA"))});
  auto bound = pred->Bind(*schema);
  ASSERT_TRUE(bound.ok());

  std::vector<uint8_t> sel(4, 1);
  (*bound)->EvalBatch(batch, &sel);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sel[static_cast<size_t>(i)] != 0,
              (*bound)->Eval(batch.GetRow(i)))
        << "row " << i;
  }
  EXPECT_EQ(sel, (std::vector<uint8_t>{0, 0, 1, 0}));
}

TEST(PredicateTest, EvalBatchRespectsExistingSelection) {
  auto schema = TestSchema();
  RowBatch batch(schema);
  batch.AppendRow(TestRow(25, 5, "ASIA", 0.1));
  batch.AppendRow(TestRow(25, 5, "ASIA", 0.1));
  auto bound = Predicate::Eq("qty", Value(int32_t{25}))->Bind(*schema);
  ASSERT_TRUE(bound.ok());
  std::vector<uint8_t> sel = {0, 1};
  (*bound)->EvalBatch(batch, &sel);
  EXPECT_EQ(sel, (std::vector<uint8_t>{0, 1}));
}

/// String predicate leaves evaluate batches in place (views compared, no
/// Value copies). Every leaf kind, and NOT / OR over them, must agree with
/// row-wise Eval on both string storage modes, including over a selection
/// that already dropped rows.
TEST(PredicateTest, StringLeavesEvalBatchMatchesRowEval) {
  const std::vector<std::string> values = {"ASIA", "",     "AS",   "ASIAN",
                                           "EUROPE", "asia", "AFRICA", "ASIA",
                                           "MIDDLE EAST", "AMERICA"};
  auto schema = Schema::Make({{"owned", TypeKind::kString, 6},
                              {"view", TypeKind::kString, 6}});
  // The view column points into one arena holding every value back to back.
  auto arena = std::make_shared<std::vector<uint8_t>>();
  for (const std::string& v : values) arena->insert(arena->end(), v.begin(), v.end());
  RowBatch batch(schema);
  size_t offset = 0;
  for (const std::string& v : values) {
    batch.mutable_column(0)->AppendString(v);
    batch.mutable_column(1)->mutable_str_views()->emplace_back(
        reinterpret_cast<const char*>(arena->data()) + offset, v.size());
    offset += v.size();
  }
  batch.mutable_column(1)->set_string_arena(arena);
  ASSERT_TRUE(batch.SealRowCount().ok());
  ASSERT_TRUE(batch.column(1).is_string_view());

  for (const char* col : {"owned", "view"}) {
    const std::vector<Predicate::Ptr> leaves = {
        Predicate::Eq(col, Value("ASIA")),
        Predicate::Ne(col, Value("ASIA")),
        Predicate::Lt(col, Value("ASIA")),
        Predicate::Le(col, Value("ASIA")),
        Predicate::Gt(col, Value("AS")),
        Predicate::Ge(col, Value("")),
        Predicate::Between(col, Value("AFRICA"), Value("ASIAN")),
        Predicate::In(col, {Value("EUROPE"), Value(""), Value("ASIA")}),
        Predicate::In(col, {}),
    };
    std::vector<Predicate::Ptr> preds = leaves;
    for (const Predicate::Ptr& leaf : leaves) {
      preds.push_back(Predicate::Not(leaf));
    }
    preds.push_back(Predicate::Or({leaves[0], leaves[4], leaves[7]}));
    preds.push_back(Predicate::Or({leaves[2], Predicate::Not(leaves[6])}));
    preds.push_back(Predicate::Not(Predicate::Or({leaves[1], leaves[5]})));
    preds.push_back(
        Predicate::And({Predicate::Or({leaves[3], leaves[4]}), leaves[1]}));

    for (const Predicate::Ptr& pred : preds) {
      auto bound = pred->Bind(*schema);
      ASSERT_TRUE(bound.ok()) << pred->ToString();
      for (const bool thinned : {false, true}) {
        // The thinned selection has already dropped every third row.
        std::vector<uint8_t> sel(values.size(), 1);
        if (thinned) {
          for (size_t i = 0; i < sel.size(); i += 3) sel[i] = 0;
        }
        const std::vector<uint8_t> before = sel;
        (*bound)->EvalBatch(batch, &sel);
        for (size_t i = 0; i < values.size(); ++i) {
          const bool expected =
              before[i] != 0 &&
              (*bound)->Eval(batch.GetRow(static_cast<int64_t>(i)));
          EXPECT_EQ(sel[i] != 0, expected)
              << pred->ToString() << " row " << i << " ('" << values[i]
              << "')" << (thinned ? " thinned" : "");
        }
      }
    }
  }
}

/// Every leaf kind over int32, int64 and double columns, against literals
/// of every numeric kind: the batch kernels agree with the row Eval (the
/// reference's Value::Compare), and no zone the compiled leaf refutes holds
/// a passing value.
TEST(CompiledLeafTest, MixedKindLeavesAgreeWithRowEval) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Value> literals = {
      Value(int32_t{24}), Value(int32_t{-3}), Value(int64_t{4294967306}),
      Value(INT64_MIN), Value(INT64_MAX), Value(24.5), Value(-24.5),
      Value(-0.0), Value(1e300), Value(-1e300), Value(9.2233720368547758e18),
      Value(kNan), Value(kInf)};
  std::vector<Predicate::Ptr> leaves;
  for (const Value& v : literals) {
    leaves.push_back(Predicate::Eq("x", v));
    leaves.push_back(Predicate::Ne("x", v));
    leaves.push_back(Predicate::Lt("x", v));
    leaves.push_back(Predicate::Le("x", v));
    leaves.push_back(Predicate::Gt("x", v));
    leaves.push_back(Predicate::Ge("x", v));
    leaves.push_back(Predicate::Between("x", Value(-24.5), v));
    leaves.push_back(Predicate::In("x", {v, Value(int32_t{25})}));
  }

  const auto check = [&](TypeKind type, const std::vector<Value>& values) {
    auto schema = Schema::Make({{"x", type, 8}});
    RowBatch batch(schema);
    for (const Value& v : values) batch.AppendRow(Row({v}));
    for (const Predicate::Ptr& leaf : leaves) {
      SCOPED_TRACE(StrCat(TypeKindToString(type), " ", leaf->ToString()));
      auto bound = leaf->Bind(*schema);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      std::vector<uint8_t> sel(values.size(), 1);
      (*bound)->EvalBatch(batch, &sel);
      auto compiled = CompiledLeaf::Compile(*leaf, type);
      ASSERT_TRUE(compiled.ok());
      for (size_t i = 0; i < values.size(); ++i) {
        const bool expected =
            (*bound)->Eval(batch.GetRow(static_cast<int64_t>(i)));
        EXPECT_EQ(sel[i] != 0, expected) << "value " << values[i].ToString();
        // A zone of one value is refuted exactly when the value fails, and
        // a refuted zone over a range holds no passing value.
        for (size_t j = 0; j < values.size(); ++j) {
          const Value& lo = values[i];
          const Value& hi = values[j];
          if (lo.Compare(hi) > 0) continue;
          const bool refuted =
              type == TypeKind::kDouble
                  ? compiled->Refutes(lo.AsDouble(), hi.AsDouble())
                  : compiled->Refutes(lo.AsInt64(), hi.AsInt64());
          if (i == j) {
            EXPECT_EQ(refuted, !expected) << "zone " << lo.ToString();
          }
          if (!refuted) continue;
          for (size_t k = 0; k < values.size(); ++k) {
            if (values[k].Compare(lo) >= 0 && values[k].Compare(hi) <= 0) {
              EXPECT_EQ(sel[k], 0) << "zone [" << lo.ToString() << ", "
                                   << hi.ToString() << "] refuted";
            }
          }
        }
      }
    }
  };
  check(TypeKind::kInt32,
        {Value(int32_t{24}), Value(int32_t{25}), Value(int32_t{-3}),
         Value(int32_t{-25}), Value(int32_t{0}), Value(INT32_MIN),
         Value(INT32_MAX)});
  check(TypeKind::kInt64,
        {Value(int64_t{24}), Value(int64_t{4294967306}), Value(int64_t{-25}),
         Value(INT64_MIN), Value(INT64_MAX), Value(INT64_MAX - 1),
         Value(int64_t{0})});
  check(TypeKind::kDouble,
        {Value(24.0), Value(24.5), Value(-24.5), Value(0.0), Value(-0.0),
         Value(1e300), Value(-kInf), Value(kInf), Value(kNan),
         Value(9.2233720368547758e18)});
}

TEST(CompiledLeafTest, StringAgainstNumberIsInvalidArgument) {
  auto schema = TestSchema();
  for (const Predicate::Ptr& leaf :
       {Predicate::Eq("qty", Value("ASIA")),
        Predicate::In("rate", {Value(0.5), Value("x")}),
        Predicate::Lt("region", Value(int32_t{3}))}) {
    auto bound = leaf->Bind(*schema);
    ASSERT_FALSE(bound.ok()) << leaf->ToString();
    EXPECT_EQ(bound.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PredicateTest, SplitLeavesSeparatesTopLevelLeavesFromTheResidual) {
  auto a = Predicate::Eq("qty", Value(int32_t{1}));
  auto b = Predicate::Lt("price", Value(int32_t{5}));
  auto either = Predicate::Or({a, b});
  auto split =
      Predicate::And({a, Predicate::And({b, Predicate::True()}), either})
          ->SplitLeaves();
  EXPECT_EQ(split.leaves, (std::vector<Predicate::Ptr>{a, b}));
  EXPECT_EQ(split.residual, either);

  split = Predicate::And({a, b})->SplitLeaves();
  EXPECT_EQ(split.leaves.size(), 2u);
  EXPECT_TRUE(split.residual->IsTrue());

  split = Predicate::Not(a)->SplitLeaves();
  EXPECT_TRUE(split.leaves.empty());
  EXPECT_EQ(split.residual->kind(), Predicate::Kind::kNot);
}

TEST(PredicateTest, ToStringReadable) {
  auto p = Predicate::And({Predicate::Eq("region", Value("ASIA")),
                           Predicate::Between("qty", Value(int32_t{1}),
                                              Value(int32_t{3}))});
  EXPECT_EQ(p->ToString(), "(region = ASIA and qty between 1 and 3)");
}

TEST(PredicateTest, CollectColumns) {
  std::vector<std::string> cols;
  Predicate::And({Predicate::Eq("a", Value(int32_t{1})),
                  Predicate::Not(Predicate::In("b", {Value(int32_t{2})}))})
      ->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace clydesdale
