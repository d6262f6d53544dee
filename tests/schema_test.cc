#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "schema/row.h"
#include "schema/row_batch.h"
#include "schema/schema.h"
#include "schema/value.h"

namespace clydesdale {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value(int32_t{7}).i32(), 7);
  EXPECT_EQ(Value(int64_t{1} << 40).i64(), int64_t{1} << 40);
  EXPECT_DOUBLE_EQ(Value(2.5).f64(), 2.5);
  EXPECT_EQ(Value("asia").str(), "asia");
}

TEST(ValueTest, NumericWidening) {
  EXPECT_EQ(Value(int32_t{7}).AsInt64(), 7);
  EXPECT_DOUBLE_EQ(Value(int32_t{7}).AsDouble(), 7.0);
  EXPECT_EQ(Value(7.9).AsInt64(), 7);
}

TEST(ValueTest, CompareWithinAndAcrossNumericKinds) {
  EXPECT_LT(Value(int32_t{1}).Compare(Value(int32_t{2})), 0);
  EXPECT_EQ(Value(int32_t{5}).Compare(Value(int64_t{5})), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int32_t{2})), 0);
  EXPECT_LT(Value("ASIA").Compare(Value("EUROPE")), 0);
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_EQ(Value(-0.0), Value(0.0));

  // NaN equals only NaN and sorts above every number, so std::sort gets a
  // strict weak order.
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan.Compare(nan), 0);
  EXPECT_GT(nan.Compare(Value(std::numeric_limits<double>::infinity())), 0);
  EXPECT_GT(nan.Compare(Value(int64_t{INT64_MAX})), 0);
  EXPECT_LT(Value(int32_t{1}).Compare(nan), 0);
  EXPECT_NE(nan, Value(1.0));
  std::vector<Value> values = {Value(2.0), nan, Value(-1.0), nan, Value(0.5)};
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  EXPECT_EQ(values[0], Value(-1.0));
  EXPECT_EQ(values[1], Value(0.5));
  EXPECT_EQ(values[2], Value(2.0));
  EXPECT_TRUE(std::isnan(values[3].f64()));
  EXPECT_TRUE(std::isnan(values[4].f64()));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int32_t{42}).Hash(), Value(int32_t{42}).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  EXPECT_NE(Value("abc").Hash(), Value("abd").Hash());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
  EXPECT_EQ(Value(nan).Hash(), Value(-nan).Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int32_t{-3}).ToString(), "-3");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, EncodedSize) {
  EXPECT_EQ(Value(int32_t{1}).EncodedSize(), 4u);
  EXPECT_EQ(Value(int64_t{1}).EncodedSize(), 8u);
  EXPECT_EQ(Value(1.0).EncodedSize(), 8u);
  EXPECT_EQ(Value("abcd").EncodedSize(), 6u);
}

TEST(SchemaTest, LookupByName) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 0},
                              {"b", TypeKind::kString, 0},
                              {"c", TypeKind::kInt64, 0}});
  EXPECT_EQ(schema->num_fields(), 3);
  EXPECT_EQ(schema->IndexOf("b"), 1);
  EXPECT_EQ(schema->IndexOf("missing"), -1);
  ASSERT_TRUE(schema->Require("c").ok());
  EXPECT_EQ(*schema->Require("c"), 2);
  EXPECT_FALSE(schema->Require("zzz").ok());
}

TEST(SchemaTest, DefaultWidths) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 0},
                              {"b", TypeKind::kString, 15},
                              {"c", TypeKind::kDouble, 0}});
  EXPECT_DOUBLE_EQ(schema->field(0).avg_width, 4);
  EXPECT_DOUBLE_EQ(schema->field(1).avg_width, 15);
  EXPECT_DOUBLE_EQ(schema->field(2).avg_width, 8);
  EXPECT_DOUBLE_EQ(schema->AvgRowWidth(), 27);
}

TEST(SchemaTest, Project) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 0},
                              {"b", TypeKind::kString, 0},
                              {"c", TypeKind::kInt64, 0}});
  auto projected = schema->Project({2, 0});
  EXPECT_EQ(projected->num_fields(), 2);
  EXPECT_EQ(projected->field(0).name, "c");
  EXPECT_EQ(projected->field(1).name, "a");
}

TEST(RowTest, ProjectAndExtend) {
  Row row({Value(int32_t{1}), Value("x"), Value(int32_t{3})});
  Row p = row.Project({2, 0});
  EXPECT_EQ(p.size(), 2);
  EXPECT_EQ(p.Get(0).i32(), 3);
  p.Extend(Row({Value("y")}));
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.Get(2).str(), "y");
}

TEST(RowTest, CompareLexicographic) {
  Row a({Value(int32_t{1}), Value("b")});
  Row b({Value(int32_t{1}), Value("c")});
  Row c({Value(int32_t{1})});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_LT(c.Compare(a), 0);  // shorter sorts first on tie
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(RowTest, HashMatchesEquality) {
  Row a({Value(int32_t{1}), Value("b")});
  Row b({Value(int32_t{1}), Value("b")});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a, b);
}

TEST(RowTest, ToStringPipeSeparated) {
  Row row({Value(int32_t{1}), Value("x")});
  EXPECT_EQ(row.ToString(), "1|x");
}

TEST(RowBatchTest, AppendAndGetRow) {
  auto schema = Schema::Make({{"k", TypeKind::kInt32, 0},
                              {"s", TypeKind::kString, 0}});
  RowBatch batch(schema);
  batch.AppendRow(Row({Value(int32_t{1}), Value("a")}));
  batch.AppendRow(Row({Value(int32_t{2}), Value("b")}));
  EXPECT_EQ(batch.num_rows(), 2);
  EXPECT_EQ(batch.GetRow(1).Get(1).str(), "b");
  EXPECT_EQ(batch.column(0).i32()[0], 1);
}

TEST(RowBatchTest, SealRowCountDetectsRaggedColumns) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 0},
                              {"b", TypeKind::kInt32, 0}});
  RowBatch batch(schema);
  batch.mutable_column(0)->AppendInt32(1);
  batch.mutable_column(0)->AppendInt32(2);
  batch.mutable_column(1)->AppendInt32(1);
  EXPECT_FALSE(batch.SealRowCount().ok());
  batch.mutable_column(1)->AppendInt32(2);
  ASSERT_TRUE(batch.SealRowCount().ok());
  EXPECT_EQ(batch.num_rows(), 2);
}

TEST(RowBatchTest, KeyAtWidensIntegers) {
  auto schema = Schema::Make({{"k32", TypeKind::kInt32, 0},
                              {"k64", TypeKind::kInt64, 0}});
  RowBatch batch(schema);
  batch.AppendRow(Row({Value(int32_t{7}), Value(int64_t{1} << 40)}));
  EXPECT_EQ(batch.column(0).KeyAt(0), 7);
  EXPECT_EQ(batch.column(1).KeyAt(0), int64_t{1} << 40);
}

}  // namespace
}  // namespace clydesdale
