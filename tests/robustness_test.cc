#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/clydesdale.h"
#include "core/staged_join.h"
#include "mapreduce/engine.h"
#include "mapreduce/input_format.h"
#include "ssb/reference_executor.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace {

mr::ClusterOptions SmallCluster() {
  mr::ClusterOptions options;
  options.num_nodes = 3;
  options.map_slots_per_node = 2;
  options.dfs_block_size = 64 * 1024;
  return options;
}

storage::TableDesc WriteInts(mr::MrCluster* cluster, const std::string& path,
                             int rows) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatBinaryRow;
  desc.schema = Schema::Make({{"k", TypeKind::kInt32, 4}});
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  for (int i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(Row({Value(int32_t{i})})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

// --- error propagation --------------------------------------------------------

class FailingMapper final : public mr::Mapper {
 public:
  explicit FailingMapper(int fail_at) : fail_at_(fail_at) {}
  Status Map(const Row& key, const Row& value, mr::TaskContext*,
             mr::OutputCollector* out) override {
    (void)key;
    if (value.Get(0).i32() == fail_at_) {
      return Status::Internal("mapper exploded on purpose");
    }
    return out->Collect(value, Row({Value(int64_t{1})}));
  }

 private:
  int fail_at_;
};

TEST(RobustnessTest, MapperFailureAbortsJobWithContext) {
  mr::MrCluster cluster(SmallCluster());
  WriteInts(&cluster, "/ints", 500);
  mr::JobConf conf;
  conf.job_name = "doomed";
  conf.Set(mr::kConfInputTable, "/ints");
  conf.input_format_factory = [] {
    return std::make_unique<mr::TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<FailingMapper>(250); };
  conf.num_reduce_tasks = 0;
  conf.output_format_factory = [] {
    return std::make_unique<mr::MemoryOutputFormat>();
  };
  auto result = mr::RunJob(&cluster, conf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("doomed"), std::string::npos)
      << "error should name the job: " << result.status().ToString();
  EXPECT_NE(result.status().message().find("exploded"), std::string::npos);
}

TEST(RobustnessTest, ReducerFailurePropagates) {
  mr::MrCluster cluster(SmallCluster());
  WriteInts(&cluster, "/ints", 50);
  class FailingReducer final : public mr::Reducer {
   public:
    Status Reduce(const Row&, const std::vector<Row>&, mr::TaskContext*,
                  mr::OutputCollector*) override {
      return Status::ResourceExhausted("reduce heap exhausted");
    }
  };
  class IdentityMapper final : public mr::Mapper {
   public:
    Status Map(const Row& key, const Row& value, mr::TaskContext*,
               mr::OutputCollector* out) override {
      (void)key;
      return out->Collect(value, value);
    }
  };
  mr::JobConf conf;
  conf.Set(mr::kConfInputTable, "/ints");
  conf.input_format_factory = [] {
    return std::make_unique<mr::TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  conf.reducer_factory = [] { return std::make_unique<FailingReducer>(); };
  conf.output_format_factory = [] {
    return std::make_unique<mr::MemoryOutputFormat>();
  };
  auto result = mr::RunJob(&cluster, conf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(RobustnessTest, OutputArityMismatchIsAnError) {
  mr::MrCluster cluster(SmallCluster());
  WriteInts(&cluster, "/ints", 20);
  class IdentityMapper final : public mr::Mapper {
   public:
    Status Map(const Row& key, const Row& value, mr::TaskContext*,
               mr::OutputCollector* out) override {
      (void)key;
      return out->Collect(value, value);  // 2 columns
    }
  };
  mr::JobConf conf;
  conf.Set(mr::kConfInputTable, "/ints");
  conf.input_format_factory = [] {
    return std::make_unique<mr::TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  conf.num_reduce_tasks = 0;
  conf.Set(mr::kConfOutputTable, "/out");
  conf.Set(mr::kConfOutputColumns, "k:int32");  // declares 1 column
  conf.output_format_factory = [] {
    return std::make_unique<mr::TableOutputFormat>();
  };
  EXPECT_FALSE(mr::RunJob(&cluster, conf).ok());
}

// --- corrupt on-disk data -------------------------------------------------------

TEST(RobustnessTest, GarbageMetaFileIsIoError) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  ASSERT_TRUE(dfs.WriteFile("/t/_meta", "not=even\nclose").ok());
  EXPECT_EQ(storage::LoadTableDesc(dfs, "/t").status().code(),
            StatusCode::kIoError);
}

/// Loads a well-formed CIF `_meta` in which `key`'s line is replaced by
/// `key=value`, or dropped when `value` is null.
Status LoadCifMetaWith(const std::string& key, const char* value) {
  const std::vector<std::pair<std::string, std::string>> lines = {
      {"format", "cif"},      {"rows", "20"},
      {"rows_per_split", "8"}, {"cif_version", "3"},
      {"segment_rows", "12,8"}, {"columns", "k:int32:4.00,s:string:6.50"}};
  std::string meta;
  for (const auto& [k, v] : lines) {
    if (k != key) {
      meta += StrCat(k, "=", v, "\n");
    } else if (value != nullptr) {
      meta += StrCat(k, "=", value, "\n");
    }
  }
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  CLY_CHECK_OK(dfs.WriteFile("/t/_meta", meta));
  return storage::LoadTableDesc(dfs, "/t").status();
}

TEST(RobustnessTest, NonNumericRowsInMetaIsIoError) {
  EXPECT_EQ(LoadCifMetaWith("rows", "abc").code(), StatusCode::kIoError);
  EXPECT_EQ(LoadCifMetaWith("rows", "").code(), StatusCode::kIoError);
  EXPECT_EQ(LoadCifMetaWith("rows", "-1").code(), StatusCode::kIoError);
}

TEST(RobustnessTest, NonNumericRowsPerSplitInMetaIsIoError) {
  EXPECT_EQ(LoadCifMetaWith("rows_per_split", "8x").code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadCifMetaWith("rows_per_split", "99999999999999999999").code(),
            StatusCode::kIoError);
}

TEST(RobustnessTest, NonNumericSegmentRowsInMetaIsIoError) {
  EXPECT_EQ(LoadCifMetaWith("segment_rows", "12,zz").code(),
            StatusCode::kIoError);
}

TEST(RobustnessTest, NonNumericColumnWidthInMetaIsIoError) {
  EXPECT_EQ(LoadCifMetaWith("columns", "k:int32:wide").code(),
            StatusCode::kIoError);
}

TEST(RobustnessTest, CifMetaWithoutLayoutVersion3IsIoError) {
  EXPECT_TRUE(LoadCifMetaWith("cif_version", "3").ok());
  EXPECT_EQ(LoadCifMetaWith("cif_version", "1").code(), StatusCode::kIoError);
  EXPECT_EQ(LoadCifMetaWith("cif_version", "2").code(), StatusCode::kIoError);
  EXPECT_EQ(LoadCifMetaWith("cif_version", nullptr).code(),
            StatusCode::kIoError);
}

TEST(RobustnessTest, TruncatedCifColumnIsIoError) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  storage::TableDesc desc;
  desc.path = "/t";
  desc.format = storage::kFormatCif;
  desc.schema = Schema::Make({{"k", TypeKind::kInt32, 4}});
  desc.rows_per_split = 16;
  auto writer = storage::OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*writer)->Append(Row({Value(int32_t{i})})).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  // Overwrite the column file with garbage claiming many rows.
  ASSERT_TRUE(dfs.Delete("/t/k.col").ok());
  std::string garbage;
  const uint32_t claimed = 1000;
  garbage.assign(reinterpret_cast<const char*>(&claimed), 4);
  garbage += "abc";
  ASSERT_TRUE(dfs.WriteFile("/t/k.col", garbage).ok());

  auto loaded = storage::LoadTableDesc(dfs, "/t");
  ASSERT_TRUE(loaded.ok());
  auto splits = storage::ListTableSplits(dfs, *loaded);
  ASSERT_TRUE(splits.ok());
  storage::ScanOptions scan;
  EXPECT_FALSE(
      storage::OpenSplitRowReader(dfs, *loaded, (*splits)[0], scan).ok());
}

TEST(RobustnessTest, CorruptRcFileMagicIsIoError) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  storage::TableDesc desc;
  desc.path = "/t";
  desc.format = storage::kFormatRcFile;
  desc.schema = Schema::Make({{"k", TypeKind::kInt32, 4}});
  desc.rows_per_split = 8;
  auto writer = storage::OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*writer)->Append(Row({Value(int32_t{i})})).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  ASSERT_TRUE(dfs.Delete("/t/data.rc").ok());
  ASSERT_TRUE(dfs.WriteFile("/t/data.rc",
                            std::string(64, '\x42')).ok());
  auto loaded = storage::LoadTableDesc(dfs, "/t");
  ASSERT_TRUE(loaded.ok());
  auto splits = storage::ListTableSplits(dfs, *loaded);
  ASSERT_TRUE(splits.ok());
  storage::ScanOptions scan;
  EXPECT_FALSE(
      storage::OpenSplitRowReader(dfs, *loaded, (*splits)[0], scan).ok());
}

// --- randomized star-join consistency ---------------------------------------------
// Property: for ANY small star schema, data, and query, Clydesdale (in all
// ablation modes, and staged under a tight memory budget) agrees with the
// single-threaded reference executor.

struct RandomStar {
  core::StarSchema star;
  core::StarQuerySpec query;
};

RandomStar MakeRandomStar(mr::MrCluster* cluster, uint64_t seed) {
  Random rng(seed);
  const int num_dims = static_cast<int>(rng.Uniform(1, 3));
  const int fact_rows = static_cast<int>(rng.Uniform(200, 3000));

  std::vector<core::DimTableInfo> dims;
  core::StarQuerySpec query;
  query.id = StrCat("rand", seed);

  std::vector<Field> fact_fields;
  std::vector<int> dim_sizes;
  for (int d = 0; d < num_dims; ++d) {
    const int dim_rows = static_cast<int>(rng.Uniform(3, 120));
    dim_sizes.push_back(dim_rows);
    const std::string name = StrCat("dim", d);
    core::DimTableInfo dim;
    dim.name = name;
    dim.pk = StrCat("d", d, "_pk");
    dim.local_path = StrCat("/dimcache/rand", seed, "/", name);
    dim.desc.path = StrCat("/rand", seed, "/", name);
    dim.desc.format = storage::kFormatBinaryRow;
    dim.desc.schema = Schema::Make({{dim.pk, TypeKind::kInt32, 4},
                                    {StrCat("d", d, "_cat"), TypeKind::kInt32, 4},
                                    {StrCat("d", d, "_tag"), TypeKind::kString, 4}});
    auto writer = storage::OpenTableWriter(cluster->dfs(), dim.desc);
    CLY_CHECK(writer.ok());
    for (int i = 1; i <= dim_rows; ++i) {
      CLY_CHECK_OK((*writer)->Append(
          Row({Value(int32_t{i}), Value(static_cast<int32_t>(rng.Uniform(0, 4))),
               Value(StrCat("t", rng.Uniform(0, 2)))})));
    }
    CLY_CHECK_OK((*writer)->Close());
    auto loaded = cluster->GetTable(dim.desc.path);
    CLY_CHECK(loaded.ok());
    dim.desc = *loaded;
    CLY_CHECK_OK(core::ReplicateDimensionToAllNodes(cluster, dim));

    core::DimJoinSpec join;
    join.dimension = name;
    join.fact_fk = StrCat("f_fk", d);
    join.dim_pk = dim.pk;
    // Random dimension predicate (sometimes none).
    switch (rng.Uniform(0, 3)) {
      case 0:
        join.predicate = Predicate::Le(StrCat("d", d, "_cat"),
                                       Value(static_cast<int32_t>(rng.Uniform(0, 4))));
        break;
      case 1:
        join.predicate = Predicate::Eq(StrCat("d", d, "_tag"),
                                       Value(StrCat("t", rng.Uniform(0, 2))));
        break;
      default:
        break;  // no predicate
    }
    if (rng.Bernoulli(0.7)) {
      join.aux_columns.push_back(StrCat("d", d, "_cat"));
      query.group_by.push_back(StrCat("d", d, "_cat"));
    }
    query.dims.push_back(std::move(join));
    dims.push_back(std::move(dim));
    fact_fields.push_back({StrCat("f_fk", d), TypeKind::kInt32, 4});
  }
  fact_fields.push_back({"f_m1", TypeKind::kInt32, 4});
  fact_fields.push_back({"f_m2", TypeKind::kInt32, 4});

  storage::TableDesc fact;
  fact.path = StrCat("/rand", seed, "/fact");
  fact.format = storage::kFormatCif;
  fact.schema = Schema::Make(fact_fields);
  fact.rows_per_split = 256;
  auto writer = storage::OpenTableWriter(cluster->dfs(), fact);
  CLY_CHECK(writer.ok());
  for (int i = 0; i < fact_rows; ++i) {
    Row row;
    for (int d = 0; d < num_dims; ++d) {
      // Occasionally dangle outside the dimension (no match -> dropped).
      const int hi = dim_sizes[static_cast<size_t>(d)] + 2;
      row.Append(Value(static_cast<int32_t>(rng.Uniform(1, hi))));
    }
    row.Append(Value(static_cast<int32_t>(rng.Uniform(0, 1000))));
    row.Append(Value(static_cast<int32_t>(rng.Uniform(0, 50))));
    CLY_CHECK_OK((*writer)->Append(row));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(fact.path);
  CLY_CHECK(loaded.ok());

  // Random fact predicate and aggregate.
  if (rng.Bernoulli(0.5)) {
    query.fact_predicate = Predicate::Lt(
        "f_m2", Value(static_cast<int32_t>(rng.Uniform(5, 45))));
  }
  query.aggregates.push_back(
      {"agg", rng.Bernoulli(0.5)
                  ? Expr::Col("f_m1")
                  : Expr::Mul(Expr::Col("f_m1"), Expr::Col("f_m2"))});
  // A fact-column group key (drawn last so earlier draws keep each seed's
  // schema).
  if (rng.Bernoulli(0.5)) query.group_by.push_back("f_m2");

  RandomStar out{core::StarSchema(*loaded, std::move(dims)), std::move(query)};
  return out;
}

class RandomStarJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomStarJoinTest, EnginesAgreeWithReference) {
  mr::MrCluster cluster(SmallCluster());
  const RandomStar rand = MakeRandomStar(&cluster, GetParam());

  auto expected = ssb::ExecuteReference(&cluster, rand.star, rand.query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int mode = 0; mode < 3; ++mode) {
    core::ClydesdaleOptions options;
    if (mode == 1) options.multithreaded = false;
    if (mode == 2) {
      options.block_iteration = false;
      options.map_side_agg = false;
    }
    core::ClydesdaleEngine engine(&cluster, rand.star, options);
    auto result = engine.Execute(rand.query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), expected->size()) << "mode " << mode;
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ(result->rows[i], (*expected)[i]) << "mode " << mode;
    }
  }

  // Staged plans: every join a repartition join (budget 1), and hash
  // stages packed within the largest single-dimension estimate.
  uint64_t max_single = 0;
  for (const core::DimJoinSpec& join : rand.query.dims) {
    auto dim = rand.star.dim(join.dimension);
    ASSERT_TRUE(dim.ok());
    max_single = std::max(max_single, core::EstimateDimHashBytes(**dim, join));
  }
  auto star = std::make_shared<const core::StarSchema>(rand.star);
  for (uint64_t budget : {uint64_t{1}, max_single}) {
    core::ClydesdaleOptions options;
    options.max_hash_memory_bytes = budget;
    auto result =
        core::ExecuteStagedStarJoin(&cluster, star, rand.query, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->rows, *expected) << "budget " << budget;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStarJoinTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- randomized predicate property -------------------------------------------------

TEST(PredicatePropertyTest, BatchEvalAlwaysMatchesRowEval) {
  Random rng(4242);
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 4},
                              {"b", TypeKind::kInt32, 4},
                              {"s", TypeKind::kString, 4}});
  for (int trial = 0; trial < 50; ++trial) {
    // Random conjunction/disjunction of comparisons.
    std::vector<Predicate::Ptr> parts;
    const int n = static_cast<int>(rng.Uniform(1, 4));
    for (int i = 0; i < n; ++i) {
      const char* col = rng.Bernoulli(0.5) ? "a" : "b";
      const auto v = Value(static_cast<int32_t>(rng.Uniform(0, 100)));
      switch (rng.Uniform(0, 4)) {
        case 0:
          parts.push_back(Predicate::Lt(col, v));
          break;
        case 1:
          parts.push_back(Predicate::Ge(col, v));
          break;
        case 2:
          parts.push_back(Predicate::Between(
              col, v, Value(static_cast<int32_t>(rng.Uniform(0, 100)))));
          break;
        case 3:
          parts.push_back(
              Predicate::Eq("s", Value(StrCat("s", rng.Uniform(0, 3)))));
          break;
        default:
          parts.push_back(Predicate::Ne(col, v));
      }
    }
    Predicate::Ptr pred = rng.Bernoulli(0.5) ? Predicate::And(parts)
                                             : Predicate::Or(parts);
    if (rng.Bernoulli(0.2)) pred = Predicate::Not(pred);
    auto bound = pred->Bind(*schema);
    ASSERT_TRUE(bound.ok());

    RowBatch batch(schema);
    for (int i = 0; i < 64; ++i) {
      batch.AppendRow(Row({Value(static_cast<int32_t>(rng.Uniform(0, 100))),
                           Value(static_cast<int32_t>(rng.Uniform(0, 100))),
                           Value(StrCat("s", rng.Uniform(0, 3)))}));
    }
    std::vector<uint8_t> sel(64, 1);
    (*bound)->EvalBatch(batch, &sel);
    for (int64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(sel[static_cast<size_t>(i)] != 0,
                (*bound)->Eval(batch.GetRow(i)))
          << "trial " << trial << " row " << i << " pred "
          << pred->ToString();
    }
  }
}

}  // namespace
}  // namespace clydesdale
