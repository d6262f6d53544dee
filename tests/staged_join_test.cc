#include <gtest/gtest.h>

#include "common/strings.h"
#include "core/clydesdale.h"
#include "core/dim_hash_table.h"
#include "core/staged_join.h"
#include "hive/hive_engine.h"
#include "sql/parser.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/reference_executor.h"

namespace clydesdale {
namespace core {
namespace {

/// Default options with a per-node hash-memory budget.
ClydesdaleOptions WithBudget(uint64_t budget_bytes) {
  ClydesdaleOptions options;
  options.max_hash_memory_bytes = budget_bytes;
  return options;
}

class StagedJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mr::ClusterOptions copts;
    copts.num_nodes = 3;
    copts.map_slots_per_node = 2;
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

  static std::vector<Row> Reference(const StarQuerySpec& spec) {
    auto rows = ssb::ExecuteReference(cluster_, dataset_->star, spec);
    CLY_CHECK(rows.ok());
    return std::move(*rows);
  }

  static mr::MrCluster* cluster_;
  static ssb::SsbDataset* dataset_;
};

mr::MrCluster* StagedJoinTest::cluster_ = nullptr;
ssb::SsbDataset* StagedJoinTest::dataset_ = nullptr;

TEST_F(StagedJoinTest, EstimateGrowsWithRowsAndAux) {
  auto dim = dataset_->star.dim("customer");
  ASSERT_TRUE(dim.ok());
  DimJoinSpec no_aux{"customer", "lo_custkey", "c_custkey",
                     Predicate::True(), {}};
  DimJoinSpec two_aux{"customer", "lo_custkey", "c_custkey",
                      Predicate::True(), {"c_nation", "c_city"}};
  EXPECT_GT(EstimateDimHashBytes(**dim, two_aux),
            EstimateDimHashBytes(**dim, no_aux));
  auto date_dim = dataset_->star.dim("date");
  ASSERT_TRUE(date_dim.ok());
  // Customer has more rows than date at this scale? At sf 0.002 the floors
  // make date (2557) the larger table; just check both are positive.
  EXPECT_GT(EstimateDimHashBytes(**dim, no_aux), 0u);
  EXPECT_GT(EstimateDimHashBytes(**date_dim, no_aux), 0u);
}

/// The planner packs dimensions into stages by EstimateDimHashBytes, so the
/// estimate must not undercount what a build really holds: for every
/// dimension join of every SSB query, the table built from node 0's replica
/// stays within it.
TEST(DimHashEstimateTest, EstimateBoundsEveryBuiltSsbTable) {
  mr::MrCluster cluster(mr::ClusterOptions{});
  ssb::SsbLoadOptions load;
  load.scale_factor = 0.01;
  auto dataset = ssb::LoadSsb(&cluster, load);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  for (const StarQuerySpec& spec : ssb::AllQueries()) {
    for (const DimJoinSpec& join : spec.dims) {
      auto dim = dataset->star.dim(join.dimension);
      ASSERT_TRUE(dim.ok());
      auto replica = cluster.local_store(0)->Read((*dim)->local_path);
      ASSERT_TRUE(replica.ok()) << replica.status().ToString();
      auto table = DimHashTable::Build(
          *(*dim)->desc.schema, (*replica)->data(), (*replica)->size(),
          *join.predicate, join.dim_pk, join.aux_columns);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_GE(EstimateDimHashBytes(**dim, join),
                (*table)->stats().memory_bytes)
          << spec.id << " " << join.dimension << ": "
          << (*table)->entries() << " entries";
    }
  }
}

/// The worst case for the bucket lanes: every row qualifies and no aux
/// column adds slack. Customer at SF 0.01 (300 rows, 1,024 buckets) is
/// the case a per-row charge missed.
TEST(DimHashEstimateTest, EstimateBoundsEveryUnfilteredAuxFreeBuild) {
  mr::MrCluster cluster(mr::ClusterOptions{});
  ssb::SsbLoadOptions load;
  load.scale_factor = 0.01;
  auto dataset = ssb::LoadSsb(&cluster, load);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset->star.dims().size(), 4u);
  for (const auto& [name, dim] : dataset->star.dims()) {
    auto replica = cluster.local_store(0)->Read(dim.local_path);
    ASSERT_TRUE(replica.ok()) << replica.status().ToString();
    const DimJoinSpec join{name, "", dim.pk, Predicate::True(), {}};
    auto table = DimHashTable::Build(*dim.desc.schema, (*replica)->data(),
                                     (*replica)->size(), *join.predicate,
                                     join.dim_pk, join.aux_columns);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ((*table)->entries(), dim.desc.num_rows) << name;
    EXPECT_GE(EstimateDimHashBytes(dim, join), (*table)->stats().memory_bytes)
        << name << ": " << (*table)->entries() << " entries";
  }
}

TEST_F(StagedJoinTest, PlanPacksGreedilyWithinBudget) {
  auto spec = ssb::QueryById("Q4.1");
  ASSERT_TRUE(spec.ok());
  // A generous budget keeps everything in one stage.
  auto one = PlanDimGroups(dataset_->star, *spec, uint64_t{1} << 40);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0].dims.size(), 4u);
  EXPECT_FALSE((*one)[0].repartition);

  // A tiny-but-feasible budget forces one dimension per stage.
  uint64_t max_single = 0;
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    max_single = std::max(max_single, EstimateDimHashBytes(**dim, join));
  }
  auto four = PlanDimGroups(dataset_->star, *spec, max_single);
  ASSERT_TRUE(four.ok());
  EXPECT_GE(four->size(), 2u);
  size_t dims = 0;
  for (const auto& g : *four) {
    dims += g.dims.size();
    EXPECT_FALSE(g.repartition);
  }
  EXPECT_EQ(dims, 4u);
}

TEST_F(StagedJoinTest, OversizedDimensionsBecomeRepartitionGroups) {
  auto spec = ssb::QueryById("Q3.1");
  ASSERT_TRUE(spec.ok());
  // A budget below any single hash table: every dimension must fall back to
  // a repartition join (paper §5.1's "single large dimension" case).
  auto plan = PlanDimGroups(dataset_->star, *spec, 1024);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->size(), 3u);
  for (const auto& g : *plan) {
    EXPECT_TRUE(g.repartition);
    EXPECT_EQ(g.dims.size(), 1u);
  }
}

TEST_F(StagedJoinTest, RepartitionFallbackMatchesReference) {
  // Mixed plan: a budget just above the smallest dimension's hash estimate,
  // so the larger dimensions must fall back to repartition joins.
  auto spec = ssb::QueryById("Q3.1");
  ASSERT_TRUE(spec.ok());
  uint64_t min_single = ~uint64_t{0};
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    min_single = std::min(min_single, EstimateDimHashBytes(**dim, join));
  }
  const uint64_t budget = min_single + 16;
  auto plan = PlanDimGroups(dataset_->star, *spec, budget);
  ASSERT_TRUE(plan.ok());
  bool any_repartition = false;
  for (const auto& g : *plan) any_repartition |= g.repartition;
  ASSERT_TRUE(any_repartition) << "test needs an oversized dimension";

  auto star = std::make_shared<const StarSchema>(dataset_->star);
  auto result =
      ExecuteStagedStarJoin(cluster_, star, *spec, WithBudget(budget));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, Reference(*spec));
}

TEST_F(StagedJoinTest, AllRepartitionPlanMatchesReference) {
  // Budget of 1: every join is a repartition stage, then a final
  // aggregation-only job over the joined intermediate.
  auto spec = ssb::QueryById("Q4.1");
  ASSERT_TRUE(spec.ok());
  auto star = std::make_shared<const StarSchema>(dataset_->star);
  auto result = ExecuteStagedStarJoin(cluster_, star, *spec, WithBudget(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, Reference(*spec));
  // 4 repartition joins + 1 aggregation job.
  EXPECT_EQ(result->stage_reports.size(), 5u);
}

class StagedQueriesTest : public StagedJoinTest,
                          public ::testing::WithParamInterface<std::string> {};

TEST_P(StagedQueriesTest, MatchesReferenceWithOneDimPerStage) {
  auto spec = ssb::QueryById(GetParam());
  ASSERT_TRUE(spec.ok());
  uint64_t max_single = 0;
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    max_single = std::max(max_single, EstimateDimHashBytes(**dim, join));
  }
  auto star = std::make_shared<const StarSchema>(dataset_->star);
  auto result =
      ExecuteStagedStarJoin(cluster_, star, *spec, WithBudget(max_single));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<Row> expected = Reference(*spec);
  ASSERT_EQ(result->rows.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->rows[i], expected[i]) << "row " << i;
  }
  // One MR job per dimension group (Q1.x has a single dimension, so one).
  auto groups = PlanDimGroups(dataset_->star, *spec, max_single);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(result->stage_reports.size(), groups->size());
  if (spec->dims.size() > 1) {
    EXPECT_GE(result->stage_reports.size(), 2u);
  }
  // Intermediates were cleaned up.
  EXPECT_TRUE(cluster_->dfs()
                  ->List(StrCat("/tmp/clydesdale/", spec->id, "/"))
                  .empty());
}

INSTANTIATE_TEST_SUITE_P(Ssb, StagedQueriesTest,
                         ::testing::Values("Q1.1", "Q2.1", "Q3.1", "Q3.4",
                                           "Q4.1", "Q4.3"),
                         [](const auto& info) {
                           std::string name = info.param;
                           name.erase(
                               std::remove(name.begin(), name.end(), '.'),
                               name.end());
                           return name;
                         });

TEST_F(StagedJoinTest, EngineFallsBackAutomatically) {
  auto spec = ssb::QueryById("Q4.2");
  ASSERT_TRUE(spec.ok());

  ClydesdaleOptions options;

  // With a budget that fits each dimension but not all four, the engine
  // stages automatically and still matches the reference.
  uint64_t max_single = 0, total = 0;
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    const uint64_t b = EstimateDimHashBytes(**dim, join);
    max_single = std::max(max_single, b);
    total += b;
  }
  ASSERT_LT(max_single, total);
  options.max_hash_memory_bytes = max_single;
  ClydesdaleEngine staged(cluster_, dataset_->star, options);
  auto result = staged.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->stage_reports.size(), 2u);
  EXPECT_EQ(result->rows, Reference(*spec));

  // And with an ample budget the engine runs the single-job plan.
  options.max_hash_memory_bytes = uint64_t{1} << 40;
  ClydesdaleEngine single(cluster_, dataset_->star, options);
  auto single_result = single.Execute(*spec);
  ASSERT_TRUE(single_result.ok());
  EXPECT_EQ(single_result->stage_reports.size(), 1u);
  EXPECT_EQ(single_result->rows, Reference(*spec));
}

TEST_F(StagedJoinTest, StagedWorksWithAblationsToo) {
  auto spec = ssb::QueryById("Q3.2");
  ASSERT_TRUE(spec.ok());
  uint64_t max_single = 0;
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    max_single = std::max(max_single, EstimateDimHashBytes(**dim, join));
  }
  ClydesdaleOptions options;
  options.multithreaded = false;
  options.block_iteration = false;
  options.max_hash_memory_bytes = max_single;
  auto star = std::make_shared<const StarSchema>(dataset_->star);
  auto result = ExecuteStagedStarJoin(cluster_, star, *spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows, Reference(*spec));
}

TEST_F(StagedJoinTest, FactColumnGroupByAgreesOnEveryEngine) {
  // lo_shipmode is no dimension's aux column: the group key comes from the
  // fact row, so every plan must carry it through its joins.
  auto spec = sql::ParseStarQuery(
      "SELECT lo_shipmode, SUM(lo_revenue) AS revenue "
      "FROM lineorder, date, supplier "
      "WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey "
      "AND s_region = 'ASIA' "
      "GROUP BY lo_shipmode ORDER BY lo_shipmode",
      dataset_->star);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto expected = ssb::ExecuteReference(cluster_, dataset_->star, *spec);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_FALSE(expected->empty());

  for (int mode = 0; mode < 3; ++mode) {
    ClydesdaleOptions options;
    if (mode == 1) options.multithreaded = false;
    if (mode == 2) {
      options.block_iteration = false;
      options.map_side_agg = false;
    }
    ClydesdaleEngine engine(cluster_, dataset_->star, options);
    auto result = engine.Execute(*spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, *expected) << "mode " << mode;
  }

  uint64_t max_single = 0;
  for (const DimJoinSpec& join : spec->dims) {
    auto dim = dataset_->star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    max_single = std::max(max_single, EstimateDimHashBytes(**dim, join));
  }
  auto star = std::make_shared<const StarSchema>(dataset_->star);
  for (uint64_t budget : {uint64_t{1}, max_single}) {
    auto result =
      ExecuteStagedStarJoin(cluster_, star, *spec, WithBudget(budget));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result->stage_reports.size(), 2u) << "budget " << budget;
    EXPECT_EQ(result->rows, *expected) << "budget " << budget;
  }

  StarSchema hive_star = dataset_->star;
  *hive_star.mutable_fact() = dataset_->fact_rcfile;
  for (auto strategy :
       {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
    hive::HiveOptions options;
    options.strategy = strategy;
    hive::HiveEngine engine(cluster_, hive_star, options);
    auto result = engine.Execute(*spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, *expected) << hive::JoinStrategyName(strategy);
  }
}

}  // namespace
}  // namespace core
}  // namespace clydesdale
