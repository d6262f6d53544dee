#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string_view>

#include "ssb/dbgen.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/ssb_schema.h"

namespace clydesdale {
namespace ssb {
namespace {

TEST(SsbSchemaTest, TableShapes) {
  EXPECT_EQ(LineorderSchema()->num_fields(), 17);
  EXPECT_EQ(CustomerSchema()->num_fields(), 8);
  EXPECT_EQ(SupplierSchema()->num_fields(), 7);
  EXPECT_EQ(PartSchema()->num_fields(), 9);
  EXPECT_EQ(DateSchema()->num_fields(), 17);
}

TEST(SsbSchemaTest, CardinalitiesScale) {
  const auto sf1 = CardinalitiesFor(1.0);
  EXPECT_EQ(sf1.orders, 1'500'000u);
  EXPECT_EQ(sf1.customers, 30'000u);
  EXPECT_EQ(sf1.suppliers, 2'000u);
  EXPECT_EQ(sf1.parts, 200'000u);
  EXPECT_EQ(sf1.dates, 2557u);
  // SSB's log2 growth for parts at high SF.
  EXPECT_EQ(CardinalitiesFor(1000.0).parts, 2'000'000u);
  // Dates never scale.
  EXPECT_EQ(CardinalitiesFor(0.01).dates, 2'557u);
}

TEST(SsbSchemaTest, NationRegionVocabulary) {
  std::set<std::string> regions;
  for (int n = 0; n < kNumNations; ++n) {
    regions.insert(RegionOfNation(n));
  }
  EXPECT_EQ(regions.size(), 5u);
  EXPECT_EQ(CityName(23, 1), "UNITED KI1");  // UNITED KINGDOM, city 1
  EXPECT_EQ(CityName(23, 5), "UNITED KI5");
  EXPECT_EQ(CityName(24, 0), "UNITED ST0");  // UNITED STATES
}

TEST(DbgenTest, DeterministicAcrossInstances) {
  SsbGenerator a(0.01), b(0.01);
  EXPECT_EQ(a.CustomerRow(17), b.CustomerRow(17));
  EXPECT_EQ(a.PartRow(5), b.PartRow(5));
  auto sa = a.Lineorders();
  auto sb = b.Lineorders();
  Row ra, rb;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(sa.Next(&ra));
    ASSERT_TRUE(sb.Next(&rb));
    ASSERT_EQ(ra, rb) << "row " << i;
  }
}

TEST(DbgenTest, SeedChangesData) {
  SsbGenerator a(0.01, 1), b(0.01, 2);
  EXPECT_NE(a.CustomerRow(17), b.CustomerRow(17));
}

TEST(DbgenTest, RowsMatchSchemas) {
  SsbGenerator gen(0.01);
  EXPECT_EQ(gen.CustomerRow(1).size(), CustomerSchema()->num_fields());
  EXPECT_EQ(gen.SupplierRow(1).size(), SupplierSchema()->num_fields());
  EXPECT_EQ(gen.PartRow(1).size(), PartSchema()->num_fields());
  EXPECT_EQ(gen.DateRow(0).size(), DateSchema()->num_fields());
  auto stream = gen.Lineorders();
  Row row;
  ASSERT_TRUE(stream.Next(&row));
  EXPECT_EQ(row.size(), LineorderSchema()->num_fields());
}

TEST(DbgenTest, CalendarIsCorrect) {
  SsbGenerator gen(0.01);
  EXPECT_EQ(gen.num_dates(), 2557);
  EXPECT_EQ(gen.DateKeyForIndex(0), 19920101);
  EXPECT_EQ(gen.DateKeyForIndex(2556), 19981231);
  // 1992 is a leap year: Feb 29 exists.
  EXPECT_EQ(gen.DateKeyForIndex(31 + 28), 19920229);

  const auto schema = DateSchema();
  const Row jan1 = gen.DateRow(0);
  EXPECT_EQ(jan1.Get(schema->IndexOf("d_year")).i32(), 1992);
  EXPECT_EQ(jan1.Get(schema->IndexOf("d_yearmonthnum")).i32(), 199201);
  EXPECT_EQ(jan1.Get(schema->IndexOf("d_yearmonth")).str(), "Jan1992");
  EXPECT_EQ(jan1.Get(schema->IndexOf("d_dayofweek")).str(), "Wednesday");
  EXPECT_EQ(jan1.Get(schema->IndexOf("d_weeknuminyear")).i32(), 1);
}

TEST(DbgenTest, LineorderValueRanges) {
  SsbGenerator gen(0.02);
  const auto schema = LineorderSchema();
  const int quantity = schema->IndexOf("lo_quantity");
  const int discount = schema->IndexOf("lo_discount");
  const int orderdate = schema->IndexOf("lo_orderdate");
  const int custkey = schema->IndexOf("lo_custkey");
  const int suppkey = schema->IndexOf("lo_suppkey");
  const int partkey = schema->IndexOf("lo_partkey");
  const int revenue = schema->IndexOf("lo_revenue");
  const int extended = schema->IndexOf("lo_extendedprice");
  const auto cards = gen.cardinalities();

  auto stream = gen.Lineorders();
  Row row;
  uint64_t rows = 0;
  while (stream.Next(&row)) {
    ++rows;
    EXPECT_GE(row.Get(quantity).i32(), 1);
    EXPECT_LE(row.Get(quantity).i32(), 50);
    EXPECT_GE(row.Get(discount).i32(), 0);
    EXPECT_LE(row.Get(discount).i32(), 10);
    EXPECT_GE(row.Get(orderdate).i32(), 19920101);
    EXPECT_LE(row.Get(orderdate).i32(), 19980802);
    EXPECT_GE(row.Get(custkey).i32(), 1);
    EXPECT_LE(row.Get(custkey).i32(), static_cast<int32_t>(cards.customers));
    EXPECT_GE(row.Get(suppkey).i32(), 1);
    EXPECT_LE(row.Get(suppkey).i32(), static_cast<int32_t>(cards.suppliers));
    EXPECT_GE(row.Get(partkey).i32(), 1);
    EXPECT_LE(row.Get(partkey).i32(), static_cast<int32_t>(cards.parts));
    EXPECT_LE(row.Get(revenue).i32(), row.Get(extended).i32());
  }
  // 1..7 lines per order, mean 4.
  EXPECT_GT(rows, cards.orders * 3);
  EXPECT_LT(rows, cards.orders * 5);
}

TEST(DbgenTest, LinesShareOrderAttributes) {
  SsbGenerator gen(0.01);
  const auto schema = LineorderSchema();
  const int orderkey = schema->IndexOf("lo_orderkey");
  const int custkey = schema->IndexOf("lo_custkey");
  const int orderdate = schema->IndexOf("lo_orderdate");
  const int linenumber = schema->IndexOf("lo_linenumber");

  auto stream = gen.Lineorders();
  Row row;
  int32_t prev_order = -1, prev_cust = 0, prev_date = 0, prev_line = 0;
  for (int i = 0; i < 2000 && stream.Next(&row); ++i) {
    if (row.Get(orderkey).i32() == prev_order) {
      EXPECT_EQ(row.Get(custkey).i32(), prev_cust);
      EXPECT_EQ(row.Get(orderdate).i32(), prev_date);
      EXPECT_EQ(row.Get(linenumber).i32(), prev_line + 1);
    } else {
      EXPECT_EQ(row.Get(linenumber).i32(), 1);
    }
    prev_order = row.Get(orderkey).i32();
    prev_cust = row.Get(custkey).i32();
    prev_date = row.Get(orderdate).i32();
    prev_line = row.Get(linenumber).i32();
  }
}

TEST(DbgenTest, RangeGenerationMatchesFullStream) {
  SsbGenerator gen(0.01);
  std::vector<Row> full;
  {
    auto stream = gen.Lineorders();
    Row row;
    while (stream.Next(&row)) full.push_back(row);
  }

  // The row-addressable fill reproduces the stream from any start row.
  const SsbGenerator::LineorderIndex index(&gen);
  ASSERT_EQ(index.num_rows(), full.size());
  const SchemaPtr schema_ptr = LineorderSchema();
  const Schema& schema = *schema_ptr;
  // Fills rows [first, first + n) at an offset into the arrays, so that
  // writing at `at` is covered too, and checks them against the stream.
  auto check_fill = [&](uint64_t first, uint64_t n) {
    constexpr size_t kAt = 3;
    std::vector<int32_t> ints(17 * (kAt + n), -1);
    std::vector<std::string_view> strs(17 * (kAt + n));
    SsbGenerator::LineorderSink sink;
    for (int c = 0; c < 17; ++c) {
      const size_t base = static_cast<size_t>(c) * (kAt + n);
      if (schema.field(c).type == TypeKind::kString) {
        sink.str[c] = &strs[base];
      } else {
        sink.i32[c] = &ints[base];
      }
    }
    index.Fill(first, n, sink, kAt);
    for (uint64_t i = 0; i < n; ++i) {
      Row row;
      for (int c = 0; c < 17; ++c) {
        const size_t at = static_cast<size_t>(c) * (kAt + n) + kAt + i;
        row.Append(schema.field(c).type == TypeKind::kString
                       ? Value(std::string(strs[at]))
                       : Value(ints[at]));
      }
      ASSERT_EQ(row, full[first + i]) << "fill from row " << first;
    }
  };
  // Every start offset 0..7 around several order boundaries: the first,
  // two in the middle and the last.
  const int orderkey = schema.IndexOf("lo_orderkey");
  std::vector<uint64_t> boundaries;
  for (size_t r = 1; r < full.size(); ++r) {
    if (full[r].Get(orderkey) != full[r - 1].Get(orderkey)) {
      boundaries.push_back(r);
    }
  }
  ASSERT_GT(boundaries.size(), 10u);
  for (const uint64_t b :
       {boundaries.front(), boundaries[boundaries.size() / 3],
        boundaries[boundaries.size() / 2], boundaries.back()}) {
    for (uint64_t offset = 0; offset < 8; ++offset) {
      const uint64_t first = b - 4 + offset;
      check_fill(first, std::min<uint64_t>(20, full.size() - first));
    }
  }
  // Split boundaries: the whole table in the loader's split sizes, the
  // last split partial.
  for (const uint64_t rows_per_split : {512u, 2048u, 2500u}) {
    for (uint64_t first = 0; first < full.size(); first += rows_per_split) {
      check_fill(first, std::min<uint64_t>(rows_per_split, full.size() - first));
    }
  }
}

TEST(DbgenTest, DimensionValueDistributions) {
  SsbGenerator gen(0.1);
  const auto cschema = CustomerSchema();
  const int region = cschema->IndexOf("c_region");
  int asia = 0;
  const int n = 3000;
  for (int i = 1; i <= n; ++i) {
    if (gen.CustomerRow(i).Get(region).str() == "ASIA") ++asia;
  }
  // Nations are uniform over 25 with 5 per region: expect ~1/5.
  EXPECT_NEAR(static_cast<double>(asia) / n, 0.2, 0.04);

  const auto pschema = PartSchema();
  const int category = pschema->IndexOf("p_category");
  std::set<std::string> categories;
  for (int i = 1; i <= 2000; ++i) {
    categories.insert(gen.PartRow(i).Get(category).str());
  }
  EXPECT_EQ(categories.size(), 25u);  // MFGR#11 .. MFGR#55
}

TEST(QueriesTest, CatalogueHasThirteen) {
  const auto queries = AllQueries();
  ASSERT_EQ(queries.size(), 13u);
  std::set<std::string> ids;
  for (const auto& q : queries) ids.insert(q.id);
  EXPECT_EQ(ids.size(), 13u);
  EXPECT_TRUE(ids.count("Q1.1"));
  EXPECT_TRUE(ids.count("Q3.4"));
  EXPECT_TRUE(ids.count("Q4.3"));
}

TEST(QueriesTest, FlightShapesMatchThePaper) {
  // Flight 1: Date only; flight 2: Date+Part+Supplier; flight 3:
  // Customer+Supplier+Date; flight 4: all four dimensions (paper §6.2).
  for (const auto& q : AllQueries()) {
    switch (FlightOf(q.id)) {
      case 1:
        EXPECT_EQ(q.dims.size(), 1u) << q.id;
        EXPECT_FALSE(q.fact_predicate->IsTrue()) << q.id;
        EXPECT_TRUE(q.group_by.empty()) << q.id;
        break;
      case 2:
        EXPECT_EQ(q.dims.size(), 3u) << q.id;
        break;
      case 3:
        EXPECT_EQ(q.dims.size(), 3u) << q.id;
        break;
      case 4:
        EXPECT_EQ(q.dims.size(), 4u) << q.id;
        break;
      default:
        FAIL() << "unknown flight for " << q.id;
    }
  }
}

TEST(QueriesTest, FactColumnsAreMinimal) {
  auto q21 = QueryById("Q2.1");
  ASSERT_TRUE(q21.ok());
  const auto cols = core::FactColumnsFor(*q21);
  EXPECT_EQ(cols, (std::vector<std::string>{"lo_orderdate", "lo_partkey",
                                            "lo_suppkey", "lo_revenue"}));
  auto q11 = QueryById("Q1.1");
  ASSERT_TRUE(q11.ok());
  const auto cols11 = core::FactColumnsFor(*q11);
  EXPECT_EQ(cols11.size(), 4u);  // orderdate, discount, quantity, extendedprice
}

TEST(QueriesTest, LookupFailsForUnknownId) {
  EXPECT_TRUE(QueryById("Q9.9").status().IsNotFound());
}

TEST(LoaderTest, LoadsAllTablesAndReplicas) {
  mr::ClusterOptions copts;
  copts.num_nodes = 3;
  copts.dfs_block_size = 256 * 1024;
  mr::MrCluster cluster(copts);

  SsbLoadOptions options;
  options.scale_factor = 0.002;
  options.with_rcfile = true;
  auto dataset = LoadSsb(&cluster, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  EXPECT_GT(dataset->lineorder_rows, 0u);
  EXPECT_EQ(dataset->star.fact().format, storage::kFormatCif);
  EXPECT_EQ(dataset->fact_rcfile.format, storage::kFormatRcFile);
  EXPECT_EQ(dataset->star.dims().size(), 4u);

  // Every node holds a local replica of every dimension.
  for (const auto& [name, dim] : dataset->star.dims()) {
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      EXPECT_TRUE(cluster.local_store(n)->Exists(dim.local_path))
          << name << " on node " << n;
    }
  }

  // Row counts agree across the CIF and RCFile fact copies.
  auto cif = cluster.GetTable(dataset->star.fact().path);
  auto rc = cluster.GetTable(dataset->fact_rcfile.path);
  ASSERT_TRUE(cif.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(cif->num_rows, dataset->lineorder_rows);
  EXPECT_EQ(rc->num_rows, dataset->lineorder_rows);

  // The binary CIF copy is smaller than the textual RCFile copy (paper:
  // 334 GB of binary against 600 GB of text at SF1000).
  auto table_bytes = [&cluster](const std::string& dir) {
    uint64_t bytes = 0;
    for (const std::string& path : cluster.dfs()->List(dir + "/")) {
      auto info = cluster.dfs()->Stat(path);
      EXPECT_TRUE(info.ok()) << path;
      if (info.ok()) bytes += (*info)->length;
    }
    return bytes;
  };
  const uint64_t cif_bytes = table_bytes(dataset->star.fact().path);
  const uint64_t rc_bytes = table_bytes(dataset->fact_rcfile.path);
  EXPECT_GT(cif_bytes, 0u);
  EXPECT_LT(cif_bytes, rc_bytes);
}

TEST(LoaderTest, RejectsBadScaleFactors) {
  mr::ClusterOptions copts;
  copts.num_nodes = 2;
  mr::MrCluster cluster(copts);
  // SF 1432 numbers more than INT32_MAX orders; int32 lo_orderkey would wrap.
  for (const double sf : {0.0, -1.0, std::nan(""), 1432.0}) {
    SsbLoadOptions options;
    options.scale_factor = sf;
    auto dataset = LoadSsb(&cluster, options);
    EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument)
        << "sf " << sf;
  }
  EXPECT_TRUE(cluster.dfs()->List("/").empty());
}

/// FNV-1a over everything a load leaves behind: every DFS file under the load
/// root (path, bytes, then each block's id, length and replica list, in
/// file order) and every node's local replica of every dimension.
class LoadHasher {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Hashes every DFS file under `root`: path, bytes and block placement.
uint64_t HashHdfs(mr::MrCluster* cluster, const std::string& root,
                  int* files) {
  LoadHasher h;
  *files = 0;
  for (const std::string& path : cluster->dfs()->List(root + "/")) {
    auto bytes = cluster->dfs()->ReadFileToString(path);
    auto info = cluster->dfs()->Stat(path);
    EXPECT_TRUE(bytes.ok() && info.ok()) << path;
    if (!bytes.ok() || !info.ok()) return 0;
    h.Str(path);
    h.Str(*bytes);
    for (const hdfs::BlockInfo& block : (*info)->blocks) {
      h.U64(block.id);
      h.U64(block.length);
      h.U64(block.replicas.size());
      for (hdfs::NodeId n : block.replicas) h.U64(static_cast<uint64_t>(n));
    }
    ++*files;
  }
  return h.value();
}

/// Hashes every node's dimension replicas.
uint64_t HashReplicas(mr::MrCluster* cluster, const SsbDataset& dataset) {
  LoadHasher h;
  for (const auto& [name, dim] : dataset.star.dims()) {
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      auto replica = cluster->local_store(n)->Read(dim.local_path);
      EXPECT_TRUE(replica.ok()) << name << " on node " << n;
      if (!replica.ok()) return 0;
      h.Str(dim.local_path);
      h.Bytes((*replica)->data(), (*replica)->size());
    }
  }
  return h.value();
}

// The loader's output is pinned byte for byte, in two hashes. The HDFS hash
// was taken from the serial row-at-a-time loader, so any change to
// generation, encoding or DFS write order (the shared placement RNG) shows
// up there. The replica hash pins the dimensions' column images, taken when
// replicas became column images. Each shape is loaded twice on fresh
// clusters so a scheduling-dependent result cannot pass by luck.
TEST(LoaderTest, GoldenBytesOnTwoClusterShapes) {
  struct Shape {
    uint64_t block_size;
    uint64_t hdfs_golden;
    uint64_t replica_golden;
  };
  const Shape shapes[] = {
      {64ull << 20, 0xc1328842bb2d2f92ull, 0x28526a5d6c381155ull},
      {256ull << 10, 0xebffa2a350f457d6ull, 0x28526a5d6c381155ull},
  };
  for (const Shape& shape : shapes) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      mr::ClusterOptions copts;
      copts.dfs_block_size = shape.block_size;
      mr::MrCluster cluster(copts);
      SsbLoadOptions options;
      options.scale_factor = 0.01;
      options.seed = 7;
      options.with_rcfile = true;
      auto dataset = LoadSsb(&cluster, options);
      ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
      // Both shapes end in a partial split.
      EXPECT_NE(dataset->lineorder_rows % dataset->star.fact().rows_per_split,
                0u);
      int files = 0;
      const uint64_t hdfs = HashHdfs(&cluster, options.root, &files);
      // 17 CIF columns + _meta, data.rc + _meta, 4 x (data.bin + _meta).
      EXPECT_EQ(files, 28);
      EXPECT_EQ(hdfs, shape.hdfs_golden)
          << "block size " << shape.block_size << ", attempt " << attempt
          << ": HDFS 0x" << std::hex << hdfs;
      const uint64_t replicas = HashReplicas(&cluster, *dataset);
      EXPECT_EQ(replicas, shape.replica_golden)
          << "block size " << shape.block_size << ", attempt " << attempt
          << ": replicas 0x" << std::hex << replicas;
    }
  }
}

}  // namespace
}  // namespace ssb
}  // namespace clydesdale
