#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/reference_executor.h"

namespace clydesdale {
namespace sql {
namespace {

// The 13 SSB queries as SQL text (the paper quotes Q3.1 and Q2.1 verbatim).
const std::pair<const char*, const char*> kSsbSql[] = {
    {"Q1.1",
     "SELECT SUM(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date "
     "WHERE lo_orderdate = d_datekey AND d_year = 1993 "
     "AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25"},
    {"Q1.2",
     "SELECT SUM(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date "
     "WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401 "
     "AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35"},
    {"Q1.3",
     "SELECT SUM(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date "
     "WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 "
     "AND d_year = 1994 "
     "AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35"},
    {"Q2.1",
     "SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier "
     "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
     "AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12' "
     "AND s_region = 'AMERICA' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q2.2",
     "SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier "
     "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
     "AND lo_suppkey = s_suppkey "
     "AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' "
     "AND s_region = 'ASIA' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q2.3",
     "SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier "
     "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
     "AND lo_suppkey = s_suppkey AND p_brand1 = 'MFGR#2239' "
     "AND s_region = 'EUROPE' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q3.1",
     "SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue "
     "FROM lineorder, customer, supplier, date "
     "WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey "
     "AND lo_suppkey = s_suppkey AND c_region = 'ASIA' "
     "AND s_region = 'ASIA' AND d_year BETWEEN 1992 AND 1997 "
     "GROUP BY c_nation, s_nation, d_year "
     "ORDER BY d_year ASC, revenue DESC"},
    {"Q3.2",
     "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue "
     "FROM lineorder, customer, supplier, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_orderdate = d_datekey AND c_nation = 'UNITED STATES' "
     "AND s_nation = 'UNITED STATES' AND d_year BETWEEN 1992 AND 1997 "
     "GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC"},
    {"Q3.3",
     "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue "
     "FROM lineorder, customer, supplier, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_orderdate = d_datekey "
     "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND d_year BETWEEN 1992 AND 1997 "
     "GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC"},
    {"Q3.4",
     "SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue "
     "FROM lineorder, customer, supplier, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_orderdate = d_datekey "
     "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND d_yearmonth = 'Dec1997' "
     "GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC"},
    {"Q4.1",
     "SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit "
     "FROM lineorder, customer, supplier, part, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
     "AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2') "
     "GROUP BY d_year, c_nation ORDER BY d_year, c_nation"},
    {"Q4.2",
     "SELECT d_year, s_nation, p_category, "
     "SUM(lo_revenue - lo_supplycost) AS profit "
     "FROM lineorder, customer, supplier, part, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
     "AND (d_year = 1997 OR d_year = 1998) "
     "AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2') "
     "GROUP BY d_year, s_nation, p_category "
     "ORDER BY d_year, s_nation, p_category"},
    {"Q4.3",
     "SELECT d_year, s_city, p_brand1, "
     "SUM(lo_revenue - lo_supplycost) AS profit "
     "FROM lineorder, customer, supplier, part, date "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
     "AND (d_year = 1997 OR d_year = 1998) AND p_category = 'MFGR#14' "
     "GROUP BY d_year, s_city, p_brand1 "
     "ORDER BY d_year, s_city, p_brand1"},
};

class SqlTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mr::ClusterOptions copts;
    copts.num_nodes = 2;
    copts.dfs_block_size = 256 * 1024;
    cluster_ = new mr::MrCluster(copts);
    ssb::SsbLoadOptions load;
    load.scale_factor = 0.005;
    auto dataset = ssb::LoadSsb(cluster_, load);
    CLY_CHECK(dataset.ok());
    dataset_ = new ssb::SsbDataset(std::move(*dataset));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete cluster_;
  }

  static mr::MrCluster* cluster_;
  static ssb::SsbDataset* dataset_;
};

mr::MrCluster* SqlTest::cluster_ = nullptr;
ssb::SsbDataset* SqlTest::dataset_ = nullptr;

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT x, 42 FROM t WHERE s = 'A''B' AND y >= 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].raw, "x");
  EXPECT_EQ((*tokens)[3].number, 42);
  // 'A''B' unescapes to A'B.
  bool found = false;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.raw, "A'B");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ((*tokens).back().kind, TokenKind::kEnd);
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a != b <> c <= d >= e");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> symbols;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kSymbol) symbols.push_back(t.text);
  }
  EXPECT_EQ(symbols, (std::vector<std::string>{"!=", "<>", "<=", ">="}));
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("x = 'unterminated").ok());
  EXPECT_FALSE(Tokenize("x ? y").ok());
  // An integer literal past int64 is an error naming its offset, not a
  // crash.
  auto overflow = Tokenize("select 99999999999999999999999");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("offset 7"), std::string::npos)
      << overflow.status().ToString();
  // The largest int64 still lexes.
  auto max = Tokenize("9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ((*max)[0].number, INT64_MAX);
}

TEST_F(SqlTest, AllSsbQueriesParseAndMatchTheCatalogue) {
  // The parsed query must produce exactly the same rows as the hand-built
  // catalogue spec, through the same reference executor.
  for (const auto& [id, text] : kSsbSql) {
    auto parsed = ParseStarQuery(text, dataset_->star);
    ASSERT_TRUE(parsed.ok()) << id << ": " << parsed.status().ToString();
    auto catalogue = ssb::QueryById(id);
    ASSERT_TRUE(catalogue.ok());

    auto parsed_rows =
        ssb::ExecuteReference(cluster_, dataset_->star, *parsed);
    auto catalogue_rows =
        ssb::ExecuteReference(cluster_, dataset_->star, *catalogue);
    ASSERT_TRUE(parsed_rows.ok()) << id;
    ASSERT_TRUE(catalogue_rows.ok()) << id;
    ASSERT_EQ(parsed_rows->size(), catalogue_rows->size()) << id;
    for (size_t i = 0; i < parsed_rows->size(); ++i) {
      EXPECT_EQ((*parsed_rows)[i], (*catalogue_rows)[i])
          << id << " row " << i;
    }
  }
}

TEST_F(SqlTest, ParsedSpecShape) {
  auto spec = ParseStarQuery(kSsbSql[3].second, dataset_->star);  // Q2.1
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->dims.size(), 3u);
  EXPECT_EQ(spec->dims[0].dimension, "date");
  EXPECT_EQ(spec->dims[0].fact_fk, "lo_orderdate");
  EXPECT_EQ(spec->dims[0].aux_columns,
            (std::vector<std::string>{"d_year"}));
  EXPECT_EQ(spec->group_by, (std::vector<std::string>{"d_year", "p_brand1"}));
  EXPECT_EQ(spec->aggregates[0].name, "revenue");
  EXPECT_EQ(spec->order_by.size(), 2u);
  EXPECT_TRUE(spec->order_by[0].ascending);
}

TEST_F(SqlTest, CaseInsensitiveIdentifiersAndKeywords) {
  auto spec = ParseStarQuery(
      "select SUM(LO_REVENUE) as R from LINEORDER, DATE "
      "where LO_ORDERDATE = D_DATEKEY and D_YEAR = 1995",
      dataset_->star);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->aggregates[0].name, "r");
}

TEST_F(SqlTest, DefaultAggregateName) {
  auto spec = ParseStarQuery(
      "SELECT SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey",
      dataset_->star);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->aggregates[0].name, "sum1");
}

TEST_F(SqlTest, RejectsBadQueries) {
  const char* bad[] = {
      // unknown table
      "SELECT SUM(lo_revenue) FROM lineorder, nope "
      "WHERE lo_orderdate = d_datekey",
      // unknown column
      "SELECT SUM(lo_nope) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey",
      // no aggregate
      "SELECT d_year FROM lineorder, date WHERE lo_orderdate = d_datekey "
      "GROUP BY d_year",
      // dimension without a join condition
      "SELECT SUM(lo_revenue) FROM lineorder, date WHERE d_year = 1993",
      // group by mismatch with select
      "SELECT d_year, SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey GROUP BY d_yearmonth",
      // ORDER BY something not in the output
      "SELECT SUM(lo_revenue) AS r FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey ORDER BY d_year",
      // OR across two different tables
      "SELECT SUM(lo_revenue) FROM lineorder, date, supplier "
      "WHERE lo_orderdate = d_datekey AND lo_suppkey = s_suppkey "
      "AND (d_year = 1997 OR s_region = 'ASIA')",
      // string literal against an int column
      "SELECT SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 'NOPE'",
      // aggregate over a dimension column
      "SELECT SUM(d_year) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey",
      // non-aggregate select without GROUP BY
      "SELECT d_year, SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey",
      // trailing garbage
      "SELECT SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey LIMIT 5",
      // integer literal past int64
      "SELECT SUM(lo_revenue) FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 99999999999999999999999",
  };
  for (const char* sql : bad) {
    EXPECT_FALSE(ParseStarQuery(sql, dataset_->star).ok()) << sql;
  }
}

TEST_F(SqlTest, QualifiedColumnNames) {
  auto spec = ParseStarQuery(
      "SELECT SUM(lineorder.lo_revenue) AS revenue FROM lineorder, date "
      "WHERE lineorder.lo_orderdate = date.d_datekey AND date.d_year = 1994",
      dataset_->star);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->dims[0].fact_fk, "lo_orderdate");
}

}  // namespace
}  // namespace sql
}  // namespace clydesdale
