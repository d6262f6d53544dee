#include <gtest/gtest.h>

#include "hive/hive_plan.h"
#include "ssb/loader.h"
#include "ssb/queries.h"

namespace clydesdale {
namespace hive {
namespace {

class HivePlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mr::ClusterOptions copts;
    copts.num_nodes = 2;
    copts.dfs_block_size = 256 * 1024;
    cluster_ = new mr::MrCluster(copts);
    ssb::SsbLoadOptions load;
    load.scale_factor = 0.002;
    auto dataset = ssb::LoadSsb(cluster_, load);
    CLY_CHECK(dataset.ok());
    dataset_ = new ssb::SsbDataset(std::move(*dataset));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete cluster_;
  }

  static core::StarSchema HiveStar() {
    core::StarSchema star = dataset_->star;
    *star.mutable_fact() = dataset_->fact_rcfile;
    return star;
  }

  static HivePlan Compile(const std::string& id) {
    auto spec = ssb::QueryById(id);
    CLY_CHECK(spec.ok());
    auto plan = CompileHivePlan(HiveStar(), *spec, "/tmp/hive");
    CLY_CHECK(plan.ok());
    return std::move(*plan);
  }

  static mr::MrCluster* cluster_;
  static ssb::SsbDataset* dataset_;
};

mr::MrCluster* HivePlanTest::cluster_ = nullptr;
ssb::SsbDataset* HivePlanTest::dataset_ = nullptr;

TEST_F(HivePlanTest, OneJoinStagePerDimension) {
  EXPECT_EQ(Compile("Q1.1").joins.size(), 1u);
  EXPECT_EQ(Compile("Q2.1").joins.size(), 3u);
  EXPECT_EQ(Compile("Q4.1").joins.size(), 4u);
}

TEST_F(HivePlanTest, StagesChainThroughIntermediateTables) {
  const HivePlan plan = Compile("Q2.1");
  EXPECT_EQ(plan.joins[0].fact_table, dataset_->fact_rcfile.path);
  for (size_t i = 1; i < plan.joins.size(); ++i) {
    EXPECT_EQ(plan.joins[i].fact_table, plan.joins[i - 1].output_table);
  }
  EXPECT_EQ(plan.agg.input_table, plan.joins.back().output_table);
}

TEST_F(HivePlanTest, StageOneReadsOnlyNeededFactColumns) {
  const HivePlan plan = Compile("Q2.1");
  // FKs + lo_revenue; no predicate columns for Q2.1.
  EXPECT_EQ(plan.joins[0].fact_schema->FieldNames(),
            (std::vector<std::string>{"lo_orderdate", "lo_partkey",
                                      "lo_suppkey", "lo_revenue"}));
}

TEST_F(HivePlanTest, ForeignKeysDropAfterTheirJoin) {
  const HivePlan plan = Compile("Q2.1");
  // After joining date on lo_orderdate, that key is gone from the output.
  for (const std::string& c : plan.joins[0].fact_out_cols) {
    EXPECT_NE(c, "lo_orderdate");
  }
  // But later keys survive until their own stage.
  EXPECT_NE(std::find(plan.joins[0].fact_out_cols.begin(),
                      plan.joins[0].fact_out_cols.end(), "lo_partkey"),
            plan.joins[0].fact_out_cols.end());
}

TEST_F(HivePlanTest, AuxColumnsAccumulateThroughStages) {
  const HivePlan plan = Compile("Q2.1");
  // d_year joins in stage 1 and must still be in the last stage's output.
  const SchemaPtr final_schema = plan.joins.back().output_schema;
  EXPECT_GE(final_schema->IndexOf("d_year"), 0);
  EXPECT_GE(final_schema->IndexOf("p_brand1"), 0);
  EXPECT_GE(final_schema->IndexOf("lo_revenue"), 0);
}

TEST_F(HivePlanTest, PredicateOnlyColumnsDropAfterStageOne) {
  const HivePlan plan = Compile("Q1.1");
  // lo_discount is both a predicate and an aggregate input: kept. But
  // lo_quantity is predicate-only: read in stage 1, dropped afterwards.
  const auto& stage = plan.joins[0];
  const std::vector<std::string> fact_cols = stage.fact_schema->FieldNames();
  EXPECT_NE(std::find(fact_cols.begin(), fact_cols.end(), "lo_quantity"),
            fact_cols.end());
  EXPECT_EQ(std::find(stage.fact_out_cols.begin(), stage.fact_out_cols.end(),
                      "lo_quantity"),
            stage.fact_out_cols.end());
  EXPECT_NE(std::find(stage.fact_out_cols.begin(), stage.fact_out_cols.end(),
                      "lo_discount"),
            stage.fact_out_cols.end());
}

TEST_F(HivePlanTest, DimProjectionIncludesPkPredicateAndAux) {
  const HivePlan plan = Compile("Q3.1");
  const auto& customer_stage = plan.joins[0];
  EXPECT_EQ(customer_stage.dim_table, "/ssb/customer");
  const std::vector<std::string> dim_cols =
      customer_stage.dim_schema->FieldNames();
  EXPECT_NE(std::find(dim_cols.begin(), dim_cols.end(), "c_custkey"),
            dim_cols.end());
  EXPECT_NE(std::find(dim_cols.begin(), dim_cols.end(), "c_region"),
            dim_cols.end());
  EXPECT_NE(std::find(dim_cols.begin(), dim_cols.end(), "c_nation"),
            dim_cols.end());
}

TEST_F(HivePlanTest, AggStageDeclaresGroupsAndAggregates) {
  const HivePlan plan = Compile("Q3.1");
  EXPECT_EQ(plan.agg.group_by,
            (std::vector<std::string>{"c_nation", "s_nation", "d_year"}));
  EXPECT_EQ(plan.agg.output_schema->num_fields(), 4);
  EXPECT_EQ(plan.agg.output_schema->field(3).name, "revenue");
  EXPECT_EQ(plan.agg.output_schema->field(3).type, TypeKind::kInt64);
}

TEST_F(HivePlanTest, FlightOneHasEmptyGroupBy) {
  const HivePlan plan = Compile("Q1.1");
  EXPECT_TRUE(plan.agg.group_by.empty());
  EXPECT_EQ(plan.agg.output_schema->num_fields(), 1);
}

TEST_F(HivePlanTest, JoinStrategyNames) {
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kRepartition), "repartition");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kMapJoin), "mapjoin");
}

}  // namespace
}  // namespace hive
}  // namespace clydesdale
