#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/aggregation.h"
#include "core/clydesdale.h"
#include "core/staged_join.h"
#include "hive/hive_engine.h"
#include "sql/parser.h"
#include "ssb/reference_executor.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace core {
namespace {

// --- AggLayout unit tests -----------------------------------------------------

TEST(AggLayoutTest, SumOnlyLayout) {
  const AggLayout layout =
      AggLayout::For({{"a", Expr::Col("x"), AggKind::kSum}});
  EXPECT_EQ(layout.num_accumulators(), 1);
  EXPECT_EQ(layout.accs()[0], AccKind::kSum);
  EXPECT_EQ(layout.expr_index()[0], 0);
  EXPECT_EQ(layout.AccumulatorNames(), (std::vector<std::string>{"a"}));
}

TEST(AggLayoutTest, AvgDecomposesIntoSumAndCount) {
  const AggLayout layout =
      AggLayout::For({{"m", Expr::Col("x"), AggKind::kAvg},
                      {"n", nullptr, AggKind::kCount}});
  EXPECT_EQ(layout.num_accumulators(), 3);
  EXPECT_EQ(layout.accs()[0], AccKind::kSum);
  EXPECT_EQ(layout.accs()[1], AccKind::kCount);
  EXPECT_EQ(layout.accs()[2], AccKind::kCount);
  EXPECT_EQ(layout.expr_index()[1], -1);
  EXPECT_EQ(layout.AccumulatorNames(),
            (std::vector<std::string>{"m_sum", "m_count", "n"}));
}

TEST(AggLayoutTest, MergeOpsAreCorrect) {
  const AggLayout layout =
      AggLayout::For({{"s", Expr::Col("x"), AggKind::kSum},
                      {"lo", Expr::Col("x"), AggKind::kMin},
                      {"hi", Expr::Col("x"), AggKind::kMax},
                      {"n", nullptr, AggKind::kCount}});
  int64_t acc[4] = {AggLayout::InitValue(AccKind::kSum),
                    AggLayout::InitValue(AccKind::kMin),
                    AggLayout::InitValue(AccKind::kMax),
                    AggLayout::InitValue(AccKind::kCount)};
  const int64_t in1[4] = {5, 5, 5, 1};
  const int64_t in2[4] = {3, 3, 3, 1};
  layout.Merge(acc, in1);
  layout.Merge(acc, in2);
  EXPECT_EQ(acc[0], 8);
  EXPECT_EQ(acc[1], 3);
  EXPECT_EQ(acc[2], 5);
  EXPECT_EQ(acc[3], 2);
}

TEST(AggLayoutTest, MergeIsAssociative) {
  // Partial merges (map-side + combiner + reducer) must equal a single
  // pass: merge(merge(a,b),c) == merge(a, merge(b,c)) for all ops.
  const AggLayout layout =
      AggLayout::For({{"s", Expr::Col("x"), AggKind::kSum},
                      {"lo", Expr::Col("x"), AggKind::kMin},
                      {"hi", Expr::Col("x"), AggKind::kMax}});
  auto fresh = [&] {
    return std::vector<int64_t>{AggLayout::InitValue(AccKind::kSum),
                                AggLayout::InitValue(AccKind::kMin),
                                AggLayout::InitValue(AccKind::kMax)};
  };
  const int64_t inputs[3][3] = {{4, 4, 4}, {-7, -7, -7}, {2, 2, 2}};
  auto left = fresh();
  for (const auto& in : inputs) layout.Merge(left.data(), in);

  auto right_tail = fresh();
  layout.Merge(right_tail.data(), inputs[1]);
  layout.Merge(right_tail.data(), inputs[2]);
  auto right = fresh();
  layout.Merge(right.data(), inputs[0]);
  layout.Merge(right.data(), right_tail.data());
  EXPECT_EQ(left, right);
}

TEST(AggLayoutTest, FinalizeComputesAverage) {
  const AggLayout layout =
      AggLayout::For({{"m", Expr::Col("x"), AggKind::kAvg}});
  // group col "g" + (sum=10, count=4).
  const Row row({Value("g"), Value(int64_t{10}), Value(int64_t{4})});
  const Row out = layout.Finalize(row, 1);
  ASSERT_EQ(out.size(), 2);
  EXPECT_EQ(out.Get(0).str(), "g");
  EXPECT_DOUBLE_EQ(out.Get(1).f64(), 2.5);
}

// --- HashAggregator unit tests ------------------------------------------------

/// Captures Emit output so tests can compare aggregator contents.
class VectorCollector final : public mr::OutputCollector {
 public:
  Status Collect(const Row& key, const Row& value) override {
    pairs_.emplace_back(key, value);
    return Status::OK();
  }
  /// Pairs in deterministic (key) order — emit order follows slot order,
  /// which differs between aggregators that saw inserts in different order.
  std::vector<std::pair<Row, Row>> Sorted() const {
    auto sorted = pairs_;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.first.Compare(b.first) < 0;
              });
    return sorted;
  }

 private:
  std::vector<std::pair<Row, Row>> pairs_;
};

/// Adds one row under a Row group key, encoded as the probe loop encodes.
void AddRow(HashAggregator* agg, const Row& key, const int64_t* inputs) {
  std::vector<uint8_t> key_bytes;
  group_key::AppendRow(key, &key_bytes);
  agg->AddEncoded(key_bytes.data(), key_bytes.size(), inputs);
}

AggLayout FourAccLayout() {
  return AggLayout::For({{"s", Expr::Col("x"), AggKind::kSum},
                         {"lo", Expr::Col("x"), AggKind::kMin},
                         {"hi", Expr::Col("x"), AggKind::kMax},
                         {"n", nullptr, AggKind::kCount}});
}

TEST(HashAggregatorTest, MergeFromMatchesSingleAggregator) {
  const AggLayout layout = FourAccLayout();
  HashAggregator single(layout);
  // HashAggregator owns a memory-tracker charge and is move-only.
  std::vector<HashAggregator> partials;
  for (int i = 0; i < 3; ++i) partials.emplace_back(layout);

  // Deterministic mixed-type keys (string city + int32 bucket); enough
  // distinct groups to force rehashing in every aggregator.
  uint64_t state = 42;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int i = 0; i < 500; ++i) {
    const Row key({Value(std::string("city") + std::to_string(next() % 37)),
                   Value(static_cast<int32_t>(next() % 11))});
    const int64_t x = static_cast<int64_t>(next() % 2000) - 1000;
    const int64_t inputs[4] = {x, x, x, 1};
    AddRow(&single, key, inputs);
    AddRow(&partials[static_cast<size_t>(i % 3)], key, inputs);
  }

  HashAggregator merged(layout);
  for (const auto& partial : partials) merged.MergeFrom(partial);
  EXPECT_EQ(merged.num_groups(), single.num_groups());

  VectorCollector from_single, from_merged;
  ASSERT_TRUE(single.Emit(&from_single).ok());
  ASSERT_TRUE(merged.Emit(&from_merged).ok());
  const auto expected = from_single.Sorted();
  const auto actual = from_merged.Sorted();
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].first.Compare(expected[i].first), 0) << "group " << i;
    EXPECT_EQ(actual[i].second.Compare(expected[i].second), 0)
        << "accumulators for group " << i;
  }
}

TEST(HashAggregatorTest, MergeFromEmptyIsANoOp) {
  const AggLayout layout = FourAccLayout();
  HashAggregator agg(layout);
  const int64_t inputs[4] = {5, 5, 5, 1};
  AddRow(&agg, Row({Value("g")}), inputs);

  HashAggregator empty(layout);
  agg.MergeFrom(empty);        // empty -> populated: no change
  EXPECT_EQ(agg.num_groups(), 1u);

  HashAggregator target(layout);
  target.MergeFrom(agg);       // populated -> empty: full copy
  EXPECT_EQ(target.num_groups(), 1u);
  VectorCollector out;
  ASSERT_TRUE(target.Emit(&out).ok());
  const auto pairs = out.Sorted();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first.Get(0).str(), "g");
  EXPECT_EQ(pairs[0].second.Get(0).i64(), 5);
  EXPECT_EQ(pairs[0].second.Get(3).i64(), 1);
}

TEST(HashAggregatorTest, AddEncodedMatchesRowAdd) {
  // Encoded-key adds against a per-row reference: each group's
  // accumulators merged one row at a time, keyed by the Row itself.
  const AggLayout layout = FourAccLayout();
  HashAggregator via_encoded(layout);
  std::map<int32_t, std::vector<int64_t>> reference;
  std::vector<uint8_t> key_bytes;
  for (int i = 0; i < 50; ++i) {
    const Row key({Value(static_cast<int32_t>(i % 7))});
    const int64_t inputs[4] = {i, i, i, 1};
    auto [it, fresh] = reference.try_emplace(key.Get(0).i32());
    if (fresh) {
      for (AccKind kind : layout.accs()) {
        it->second.push_back(AggLayout::InitValue(kind));
      }
    }
    layout.Merge(it->second.data(), inputs);
    key_bytes.clear();
    group_key::AppendRow(key, &key_bytes);
    via_encoded.AddEncoded(key_bytes.data(), key_bytes.size(), inputs);
  }
  EXPECT_EQ(via_encoded.num_groups(), reference.size());
  VectorCollector out;
  ASSERT_TRUE(via_encoded.Emit(&out).ok());
  const auto emitted = out.Sorted();
  ASSERT_EQ(emitted.size(), reference.size());
  size_t i = 0;
  for (const auto& [group, accs] : reference) {
    EXPECT_EQ(emitted[i].first.Get(0).i32(), group);
    for (size_t a = 0; a < accs.size(); ++a) {
      EXPECT_EQ(emitted[i].second.Get(static_cast<int>(a)).i64(), accs[a])
          << "group " << group << " accumulator " << a;
    }
    ++i;
  }
}

TEST(AggLayoutTest, MergeWeightedEqualsRepeatedMerge) {
  // The compressed-domain contract: adding a run of `w` identical rows in
  // one weighted step must equal merging the row w times — sums and counts
  // scale linearly, min/max ignore the weight.
  const AggLayout layout =
      AggLayout::For({{"s", Expr::Col("x"), AggKind::kSum},
                      {"lo", Expr::Col("x"), AggKind::kMin},
                      {"hi", Expr::Col("x"), AggKind::kMax},
                      {"n", nullptr, AggKind::kCount}});
  auto fresh = [&] {
    return std::vector<int64_t>{AggLayout::InitValue(AccKind::kSum),
                                AggLayout::InitValue(AccKind::kMin),
                                AggLayout::InitValue(AccKind::kMax),
                                AggLayout::InitValue(AccKind::kCount)};
  };
  const int64_t inputs[2][4] = {{-5, -5, -5, 1}, {9, 9, 9, 1}};
  for (const int64_t weight : {1, 2, 17}) {
    auto repeated = fresh();
    auto weighted = fresh();
    for (const auto& in : inputs) {
      for (int64_t w = 0; w < weight; ++w) layout.Merge(repeated.data(), in);
      layout.MergeWeighted(weighted.data(), in, weight);
    }
    EXPECT_EQ(weighted, repeated) << "weight=" << weight;
  }
}

TEST(HashAggregatorTest, AddEncodedWeightedMatchesRepeatedAdds) {
  const AggLayout layout = FourAccLayout();
  HashAggregator repeated(layout);
  HashAggregator weighted(layout);
  std::vector<uint8_t> key_bytes;
  // Runs of equal fact rows per group, interleaved so both tables see the
  // same groups in the same first-touch order.
  for (int run = 0; run < 20; ++run) {
    const Row key({Value(static_cast<int32_t>(run % 4))});
    const int64_t inputs[4] = {run, run, run, 1};
    const int64_t weight = 1 + run % 5;
    key_bytes.clear();
    group_key::AppendRow(key, &key_bytes);
    for (int64_t w = 0; w < weight; ++w) {
      repeated.AddEncoded(key_bytes.data(), key_bytes.size(), inputs);
    }
    weighted.AddEncodedWeighted(key_bytes.data(), key_bytes.size(), inputs,
                                weight);
  }
  EXPECT_EQ(weighted.num_groups(), repeated.num_groups());
  VectorCollector a, b;
  ASSERT_TRUE(repeated.Emit(&a).ok());
  ASSERT_TRUE(weighted.Emit(&b).ok());
  const auto ea = a.Sorted();
  const auto eb = b.Sorted();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].first.Compare(eb[i].first), 0);
    EXPECT_EQ(ea[i].second.Compare(eb[i].second), 0);
  }
}

// --- end-to-end across every engine ---------------------------------------------

class MixedAggTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mr::ClusterOptions copts;
    copts.num_nodes = 3;
    copts.map_slots_per_node = 2;
    copts.dfs_block_size = 128 * 1024;
    cluster_ = new mr::MrCluster(copts);

    // A tiny hand-checkable star: fact(sale) with store dimension.
    core::DimTableInfo store;
    store.name = "store";
    store.pk = "st_id";
    store.local_path = "/dimcache/mini/store";
    store.desc.path = "/mini/store";
    store.desc.format = storage::kFormatBinaryRow;
    store.desc.schema = Schema::Make({{"st_id", TypeKind::kInt32, 4},
                                      {"st_city", TypeKind::kString, 6}});
    {
      auto writer = storage::OpenTableWriter(cluster_->dfs(), store.desc);
      CLY_CHECK(writer.ok());
      CLY_CHECK_OK((*writer)->Append(Row({Value(int32_t{1}), Value("east")})));
      CLY_CHECK_OK((*writer)->Append(Row({Value(int32_t{2}), Value("east")})));
      CLY_CHECK_OK((*writer)->Append(Row({Value(int32_t{3}), Value("west")})));
      CLY_CHECK_OK((*writer)->Close());
    }
    auto loaded_store = cluster_->GetTable(store.desc.path);
    CLY_CHECK(loaded_store.ok());
    store.desc = *loaded_store;
    CLY_CHECK_OK(core::ReplicateDimensionToAllNodes(cluster_, store));

    storage::TableDesc fact;
    fact.path = "/mini/sales";
    fact.format = storage::kFormatCif;
    fact.schema = Schema::Make({{"sa_store", TypeKind::kInt32, 4},
                                {"sa_amount", TypeKind::kInt32, 4}});
    fact.rows_per_split = 4;
    {
      auto writer = storage::OpenTableWriter(cluster_->dfs(), fact);
      CLY_CHECK(writer.ok());
      // east: store 1 -> 10, 20; store 2 -> 5. west: store 3 -> 7, 3.
      const int32_t rows[][2] = {{1, 10}, {1, 20}, {2, 5}, {3, 7}, {3, 3}};
      for (const auto& r : rows) {
        CLY_CHECK_OK((*writer)->Append(Row({Value(r[0]), Value(r[1])})));
      }
      CLY_CHECK_OK((*writer)->Close());
    }
    auto loaded_fact = cluster_->GetTable(fact.path);
    CLY_CHECK(loaded_fact.ok());
    star_ = new core::StarSchema(*loaded_fact, {store});
  }
  static void TearDownTestSuite() {
    delete star_;
    delete cluster_;
  }

  static StarQuerySpec MixedQuery() {
    StarQuerySpec spec;
    spec.id = "mixed";
    spec.dims = {{"store", "sa_store", "st_id", Predicate::True(),
                  {"st_city"}}};
    spec.aggregates = {
        {"total", Expr::Col("sa_amount"), AggKind::kSum},
        {"n", nullptr, AggKind::kCount},
        {"smallest", Expr::Col("sa_amount"), AggKind::kMin},
        {"largest", Expr::Col("sa_amount"), AggKind::kMax},
        {"mean", Expr::Col("sa_amount"), AggKind::kAvg},
    };
    spec.group_by = {"st_city"};
    spec.order_by = {{"st_city", true}};
    return spec;
  }

  static void CheckRows(const std::vector<Row>& rows, const char* label) {
    // east: total 35, n 3, min 5, max 20, avg 35/3. west: 10, 2, 3, 7, 5.0.
    ASSERT_EQ(rows.size(), 2u) << label;
    EXPECT_EQ(rows[0].Get(0).str(), "east") << label;
    EXPECT_EQ(rows[0].Get(1).i64(), 35) << label;
    EXPECT_EQ(rows[0].Get(2).i64(), 3) << label;
    EXPECT_EQ(rows[0].Get(3).i64(), 5) << label;
    EXPECT_EQ(rows[0].Get(4).i64(), 20) << label;
    EXPECT_DOUBLE_EQ(rows[0].Get(5).f64(), 35.0 / 3.0) << label;
    EXPECT_EQ(rows[1].Get(0).str(), "west") << label;
    EXPECT_EQ(rows[1].Get(1).i64(), 10) << label;
    EXPECT_EQ(rows[1].Get(2).i64(), 2) << label;
    EXPECT_EQ(rows[1].Get(3).i64(), 3) << label;
    EXPECT_EQ(rows[1].Get(4).i64(), 7) << label;
    EXPECT_DOUBLE_EQ(rows[1].Get(5).f64(), 5.0) << label;
  }

  static mr::MrCluster* cluster_;
  static core::StarSchema* star_;
};

mr::MrCluster* MixedAggTest::cluster_ = nullptr;
core::StarSchema* MixedAggTest::star_ = nullptr;

TEST_F(MixedAggTest, ReferenceExecutor) {
  auto rows = ssb::ExecuteReference(cluster_, *star_, MixedQuery());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  CheckRows(*rows, "reference");
}

TEST_F(MixedAggTest, ClydesdaleAllModes) {
  for (int mode = 0; mode < 3; ++mode) {
    ClydesdaleOptions options;
    if (mode == 1) options.multithreaded = false;
    if (mode == 2) options.map_side_agg = false;  // per-row emit + combiner
    ClydesdaleEngine engine(cluster_, *star_, options);
    auto result = engine.Execute(MixedQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    CheckRows(result->rows, "clydesdale");
  }
}

TEST_F(MixedAggTest, HiveBothStrategies) {
  for (auto strategy :
       {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
    hive::HiveOptions options;
    options.strategy = strategy;
    hive::HiveEngine engine(cluster_, *star_, options);
    auto result = engine.Execute(MixedQuery());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    CheckRows(result->rows, hive::JoinStrategyName(strategy));
  }
}

TEST_F(MixedAggTest, StagedJoin) {
  auto star = std::make_shared<const core::StarSchema>(*star_);
  // Budget of 1 forces the repartition path + final aggregation stage.
  core::ClydesdaleOptions options;
  options.max_hash_memory_bytes = 1;
  auto result = ExecuteStagedStarJoin(cluster_, star, MixedQuery(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CheckRows(result->rows, "staged");
}

TEST_F(MixedAggTest, SqlFrontEnd) {
  auto spec = sql::ParseStarQuery(
      "SELECT st_city, SUM(sa_amount) AS total, COUNT(*) AS n, "
      "MIN(sa_amount) AS smallest, MAX(sa_amount) AS largest, "
      "AVG(sa_amount) AS mean "
      "FROM sales, store WHERE sa_store = st_id "
      "GROUP BY st_city ORDER BY st_city",
      *star_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->aggregates.size(), 5u);
  EXPECT_EQ(spec->aggregates[1].kind, AggKind::kCount);
  EXPECT_EQ(spec->aggregates[4].kind, AggKind::kAvg);

  ClydesdaleEngine engine(cluster_, *star_, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CheckRows(result->rows, "sql");
}

TEST_F(MixedAggTest, OrderByAverage) {
  // ORDER BY a finalized double column.
  auto spec = sql::ParseStarQuery(
      "SELECT st_city, AVG(sa_amount) AS mean FROM sales, store "
      "WHERE sa_store = st_id GROUP BY st_city ORDER BY mean DESC",
      *star_);
  ASSERT_TRUE(spec.ok());
  ClydesdaleEngine engine(cluster_, *star_, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].Get(0).str(), "east");  // 11.67 > 5.0
}

}  // namespace
}  // namespace core
}  // namespace clydesdale
