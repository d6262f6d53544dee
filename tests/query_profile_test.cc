// Per-operator query-profiler tests: tree merge semantics (additive
// counters, wall maxima, children matched by name), the EXPLAIN ANALYZE
// text/JSON renderers, ScanStats folding, and end-to-end profiles of
// map-only CIF scan jobs proving the scan counters survive the per-task ->
// job merge loss-free.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "mapreduce/engine.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_trace.h"
#include "obs/query_profile.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace obs {
namespace {

OperatorProfile Node(const char* name, const char* kind, uint64_t rows_in,
                     uint64_t rows_out) {
  OperatorProfile node;
  node.name = name;
  node.kind = kind;
  node.rows_in = rows_in;
  node.rows_out = rows_out;
  node.tasks = 1;
  return node;
}

TEST(OperatorProfileTest, SelectivityDefinition) {
  OperatorProfile node = Node("probe", "probe", 100, 25);
  EXPECT_DOUBLE_EQ(node.selectivity(), 0.25);
  OperatorProfile source = Node("scan", "scan", 0, 100);
  EXPECT_DOUBLE_EQ(source.selectivity(), -1.0) << "sources have no input";
}

TEST(OperatorProfileTest, MergeAddsCountersAndTracksWallMax) {
  OperatorProfile a = Node("scan", "scan", 0, 100);
  a.wall_ns = 50;
  a.wall_max_ns = 50;
  a.cpu_ns = 40;
  a.batches = 2;
  a.bytes_decoded = 1000;
  a.bytes_raw = 4000;
  a.blocks_skipped = 3;
  a.rows_pruned = 17;
  a.blocks_by_encoding[1] = 5;

  OperatorProfile b = Node("scan", "scan", 0, 200);
  b.wall_ns = 80;
  b.wall_max_ns = 80;
  b.cpu_ns = 60;
  b.batches = 3;
  b.bytes_decoded = 500;
  b.bytes_raw = 2000;
  b.blocks_skipped = 1;
  b.rows_pruned = 3;
  b.blocks_by_encoding[1] = 2;
  b.blocks_by_encoding[4] = 9;

  a.MergeFrom(b);
  EXPECT_EQ(a.rows_out, 300u);
  EXPECT_EQ(a.wall_ns, 130u) << "wall sums (total work)";
  EXPECT_EQ(a.wall_max_ns, 80u) << "wall max tracks slowest attempt";
  EXPECT_EQ(a.cpu_ns, 100u);
  EXPECT_EQ(a.batches, 5u);
  EXPECT_EQ(a.bytes_decoded, 1500u);
  EXPECT_EQ(a.bytes_raw, 6000u);
  EXPECT_EQ(a.blocks_skipped, 4u);
  EXPECT_EQ(a.rows_pruned, 20u);
  EXPECT_EQ(a.blocks_by_encoding[1], 7u);
  EXPECT_EQ(a.blocks_by_encoding[4], 9u);
  EXPECT_EQ(a.tasks, 2u);
}

TEST(OperatorProfileTest, MergeMatchesChildrenByNameAndAppendsNew) {
  OperatorProfile a = Node("map", "task", 0, 10);
  a.children.push_back(Node("probe", "probe", 10, 4));

  OperatorProfile b = Node("map", "task", 0, 20);
  b.children.push_back(Node("probe", "probe", 20, 6));
  b.children.push_back(Node("combine", "aggregate", 6, 2));

  a.MergeFrom(b);
  ASSERT_EQ(a.children.size(), 2u);
  EXPECT_EQ(a.children[0].name, "combine")
      << "unmatched child inserted in name order";
  EXPECT_EQ(a.children[0].rows_in, 6u);
  EXPECT_EQ(a.children[1].name, "probe");
  EXPECT_EQ(a.children[1].rows_in, 30u);
  EXPECT_EQ(a.children[1].rows_out, 10u);
}

TEST(QueryProfileTest, MergeAttemptCollapsesDuplicateChildrenAndWidensSpan) {
  QueryProfile profile;
  // A multi-split attempt can push two scan nodes with the same name; the
  // job merge must collapse them into one.
  OperatorProfile attempt = Node("map", "task", 0, 7);
  attempt.children.push_back(Node("scan:/t", "scan", 0, 3));
  attempt.children.push_back(Node("scan:/t", "scan", 0, 4));
  profile.MergeAttempt(attempt, /*start_us=*/100, /*end_us=*/200);

  OperatorProfile second = Node("map", "task", 0, 5);
  second.children.push_back(Node("scan:/t", "scan", 0, 5));
  profile.MergeAttempt(second, /*start_us=*/150, /*end_us=*/400);

  ASSERT_EQ(profile.roots.size(), 1u);
  ASSERT_EQ(profile.roots[0].children.size(), 1u);
  EXPECT_EQ(profile.roots[0].children[0].rows_out, 12u);
  EXPECT_EQ(profile.roots[0].tasks, 2u);
  EXPECT_EQ(profile.first_start_us, 100);
  EXPECT_EQ(profile.last_end_us, 400);
  EXPECT_DOUBLE_EQ(profile.ProfiledSpanSeconds(), 300e-6);
  EXPECT_EQ(NumProfileOperators(profile), 2u);
}

TEST(QueryProfileTest, FirstAttemptSetsEnvelopeEvenAtTimeZero) {
  QueryProfile profile;
  profile.MergeAttempt(Node("map", "task", 0, 1), /*start_us=*/0,
                       /*end_us=*/10);
  profile.MergeAttempt(Node("map", "task", 0, 1), /*start_us=*/5,
                       /*end_us=*/8);
  EXPECT_EQ(profile.first_start_us, 0);
  EXPECT_EQ(profile.last_end_us, 10);
}

TEST(QueryProfileTest, SiblingOrderIsIndependentOfAttemptOrder) {
  // Two Hive repartition-join attempts, each scanning one side of the join:
  // the merged tree must not depend on which one finishes first.
  OperatorProfile fact_side = Node("map", "task", 0, 5);
  fact_side.children.push_back(Node("tag-partition", "partition", 5, 5));
  fact_side.children.push_back(Node("scan:/ssb/lineorder_rc", "scan", 0, 5));
  OperatorProfile dim_side = Node("map", "task", 0, 3);
  dim_side.children.push_back(Node("scan:/ssb/date", "scan", 0, 3));
  dim_side.children.push_back(Node("tag-partition", "partition", 3, 3));
  OperatorProfile reduce = Node("reduce", "task", 8, 2);
  reduce.children.push_back(Node("shuffle", "shuffle", 8, 8));
  reduce.children.push_back(Node("join", "join", 8, 2));

  QueryProfile forward;
  forward.MergeAttempt(fact_side, 0, 10);
  forward.MergeAttempt(dim_side, 0, 10);
  forward.MergeAttempt(reduce, 0, 10);
  QueryProfile backward;
  backward.MergeAttempt(reduce, 0, 10);
  backward.MergeAttempt(dim_side, 0, 10);
  backward.MergeAttempt(fact_side, 0, 10);
  EXPECT_EQ(ExplainAnalyzeText(forward), ExplainAnalyzeText(backward));
  EXPECT_EQ(ExplainAnalyzeJson(forward), ExplainAnalyzeJson(backward));
  ASSERT_EQ(forward.roots.size(), 2u);
  EXPECT_EQ(forward.roots[0].name, "map");
  ASSERT_EQ(forward.roots[0].children.size(), 3u);
  EXPECT_EQ(forward.roots[0].children[0].name, "scan:/ssb/date");
  EXPECT_EQ(forward.roots[0].children[1].name, "scan:/ssb/lineorder_rc");
  EXPECT_EQ(forward.roots[0].children[2].name, "tag-partition");
}

QueryProfile SampleProfile() {
  QueryProfile profile;
  profile.wall_seconds = 0.5;
  OperatorProfile map = Node("map", "task", 0, 40);
  OperatorProfile agg = Node("aggregate", "aggregate", 120, 40);
  OperatorProfile probe = Node("probe", "probe", 1000, 120);
  OperatorProfile scan = Node("scan:/ssb/lineorder", "scan", 0, 1000);
  scan.bytes_decoded = 2048;
  scan.bytes_raw = 8192;
  scan.blocks_skipped = 2;
  scan.rows_pruned = 99;
  scan.blocks_by_encoding[0] = 1;
  scan.blocks_by_encoding[3] = 4;
  probe.children.push_back(std::move(scan));
  agg.children.push_back(std::move(probe));
  map.children.push_back(std::move(agg));
  profile.MergeAttempt(map, 10, 490'000);

  OperatorProfile reduce = Node("reduce", "task", 40, 4);
  reduce.children.push_back(Node("shuffle", "shuffle", 40, 40));
  profile.MergeAttempt(reduce, 200'000, 500'000);
  return profile;
}

TEST(ExplainAnalyzeTest, TextRendersTreeWithInvariants) {
  const QueryProfile profile = SampleProfile();
  const std::string text = ExplainAnalyzeText(profile);
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_NE(text.find("operators=6"), std::string::npos) << text;
  EXPECT_NE(text.find("scan:/ssb/lineorder"), std::string::npos) << text;
  EXPECT_NE(text.find("shuffle"), std::string::npos) << text;
  // The probe line carries its selectivity (120/1000).
  EXPECT_NE(text.find("0.12"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, JsonIsBalancedAndMarksSourcesNullSelectivity) {
  const QueryProfile profile = SampleProfile();
  const std::string json = ExplainAnalyzeJson(profile);
  EXPECT_NE(json.find("\"selectivity\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"scan:/ssb/lineorder\""), std::string::npos);
  EXPECT_NE(json.find("\"rows_pruned\":99"), std::string::npos) << json;

  // The published shape: six top-level keys once each, and every node
  // carries all eighteen fields.
  auto count = [&json](const std::string& key) {
    size_t n = 0;
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      ++n;
    }
    return n;
  };
  for (const char* key : {"wall_seconds", "profiled_span_seconds",
                          "first_start_us", "last_end_us", "operators",
                          "roots"}) {
    EXPECT_EQ(count(StrCat("\"", key, "\":")), 1u) << key;
  }
  const size_t nodes = NumProfileOperators(profile);
  ASSERT_GT(nodes, 1u);
  for (const char* field :
       {"name", "kind", "rows_in", "rows_out", "selectivity", "batches",
        "wall_ns", "wall_max_ns", "cpu_ns", "bytes_decoded", "bytes_raw",
        "blocks_skipped", "rows_pruned", "blocks_by_encoding",
        "mem_current_bytes", "mem_peak_bytes", "tasks", "children"}) {
    EXPECT_EQ(count(StrCat("\"", field, "\":")), nodes) << field;
  }

  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ExplainAnalyzeTest, UncountedRowsInIsOmittedNotZero) {
  OperatorProfile map = Node("map", "task", 0, 40);
  map.rows_in_counted = false;
  map.children.push_back(Node("scan:/t", "scan", 0, 40));
  QueryProfile profile;
  profile.MergeAttempt(map, 0, 10);
  profile.MergeAttempt(map, 5, 20);
  ASSERT_EQ(profile.roots.size(), 1u);
  EXPECT_FALSE(profile.roots[0].rows_in_counted) << "stays uncounted merged";
  EXPECT_TRUE(profile.roots[0].children[0].rows_in_counted);

  const std::string text = ExplainAnalyzeText(profile);
  EXPECT_NE(text.find("map [task]  rows_out=80"), std::string::npos) << text;
  EXPECT_NE(text.find("scan:/t [scan]  rows_in=0 rows_out=80"),
            std::string::npos)
      << text;
  const std::string json = ExplainAnalyzeJson(profile);
  EXPECT_NE(json.find("\"name\":\"map\",\"kind\":\"task\",\"rows_in\":null"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"kind\":\"scan\",\"rows_in\":0,"), std::string::npos)
      << json;
}

TEST(ThreadCpuNanosTest, AdvancesWithWork) {
  const int64_t before = ThreadCpuNanos();
  uint64_t sink = 0;
  volatile uint64_t i = 0;
  while (true) {
    const uint64_t v = i;  // volatile read defeats closed-form elimination
    if (v >= 2'000'000) break;
    sink += v * v;
    i = v + 1;
  }
  ASSERT_GT(sink, 0u);
  EXPECT_GT(ThreadCpuNanos(), before);
}

}  // namespace
}  // namespace obs

namespace storage {
namespace {

TEST(ScanStatsTest, MergeFromFoldsEveryCounter) {
  ScanStats a;
  a.rows_read = 100;
  a.blocks_skipped = 2;
  a.rows_pruned = 20;
  a.bytes_encoded = 30;
  a.bytes_raw = 120;
  a.blocks_by_encoding[2] = 4;
  a.mem_peak_bytes = 64;

  ScanStats b = a;
  b.blocks_by_encoding[5] = 9;
  a.MergeFrom(b);

  EXPECT_EQ(a.rows_read, 200u);
  EXPECT_EQ(a.blocks_skipped, 4u);
  EXPECT_EQ(a.rows_pruned, 40u);
  EXPECT_EQ(a.bytes_encoded, 60u);
  EXPECT_EQ(a.bytes_raw, 240u);
  EXPECT_EQ(a.blocks_by_encoding[2], 8u);
  EXPECT_EQ(a.blocks_by_encoding[5], 9u);
  EXPECT_EQ(a.mem_peak_bytes, 128u);
}

}  // namespace
}  // namespace storage

namespace mr {
namespace {

ClusterOptions ScanCluster() {
  ClusterOptions options;
  options.num_nodes = 2;
  options.map_slots_per_node = 2;
  return options;
}

SchemaPtr ScanSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"qty", TypeKind::kInt32, 4},
                       {"mode", TypeKind::kString, 6}});
}

storage::TableDesc WriteCifTable(MrCluster* cluster, const std::string& path,
                                 int rows) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatCif;
  desc.schema = ScanSchema();
  desc.rows_per_split = 256;
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  const char* modes[] = {"AIR", "RAIL", "SHIP"};
  for (int i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(Row({Value(i), Value((i / 64) % 5),
                                        Value(modes[(i / 50) % 3])})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

class CountRowsMapper final : public Mapper {
 public:
  Status Map(const Row&, const Row&, TaskContext*, OutputCollector*) override {
    return Status::OK();
  }
};

/// Map-only scan of `table` with profiling on; returns the merged profile.
obs::QueryProfile ProfiledScan(MrCluster* cluster, const std::string& table) {
  JobConf conf;
  conf.job_name = "profiled-scan";
  conf.num_reduce_tasks = 0;
  conf.Set(kConfInputTable, table);
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<CountRowsMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  conf.SetBool(kConfProfileEnabled, true);
  auto result = RunJob(cluster, conf);
  CLY_CHECK(result.ok());
  return result->report.profile;
}

/// CIF scan counters must survive the per-task -> job merge loss-free: rows
/// add up exactly, decoded bytes are non-zero, and per-encoding block tags
/// are preserved.
TEST(ProfiledScanTest, CifScanStatsMergeLossFree) {
  MrCluster cluster(ScanCluster());
  const std::string table = "/scan";
  WriteCifTable(&cluster, table, 1000);

  const obs::QueryProfile profile = ProfiledScan(&cluster, table);
  ASSERT_FALSE(profile.empty());
  ASSERT_EQ(profile.roots.size(), 1u);
  const obs::OperatorProfile& map = profile.roots[0];
  EXPECT_EQ(map.name, "map");
  // Several splits, each a task attempt whose scan node merges into one
  // per-table node.
  EXPECT_GE(map.tasks, 2u);
  ASSERT_EQ(map.children.size(), 1u);
  const obs::OperatorProfile& scan = map.children[0];
  EXPECT_EQ(scan.name, StrCat("scan:", table));
  EXPECT_EQ(scan.kind, "scan");
  EXPECT_EQ(scan.rows_out, 1000u) << "merged rows must add up exactly";
  EXPECT_EQ(scan.rows_in, scan.rows_out + scan.rows_pruned);
  EXPECT_FALSE(map.rows_in_counted) << "a map root counts no input";
  const std::string text = obs::ExplainAnalyzeText(profile);
  EXPECT_EQ(text.find("map [task]  rows_in="), std::string::npos) << text;
  EXPECT_NE(text.find("map [task]  rows_out="), std::string::npos) << text;
  EXPECT_GT(scan.bytes_decoded, 0u);
  EXPECT_GT(scan.wall_ns, 0u);
  EXPECT_GE(scan.wall_ns, scan.wall_max_ns);
  uint64_t tagged = 0;
  for (uint64_t n : scan.blocks_by_encoding) tagged += n;
  EXPECT_GT(tagged, 0u) << "blocks carry encoding tags";
  EXPECT_GE(scan.bytes_raw, scan.bytes_decoded) << "raw >= encoded bytes";
  // Job-level derived counters agree with the tree.
  EXPECT_EQ(profile.ProfiledSpanSeconds() > 0, true);
}

TEST(ProfiledScanTest, ProfileOffLeavesReportEmpty) {
  MrCluster cluster(ScanCluster());
  WriteCifTable(&cluster, "/scan_off", 300);
  JobConf conf;
  conf.job_name = "unprofiled-scan";
  conf.num_reduce_tasks = 0;
  conf.Set(kConfInputTable, "/scan_off");
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<CountRowsMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.profile.empty())
      << "no kConfProfileEnabled -> zero profile state";
  EXPECT_EQ(result->report.counters.Get(kCounterProfOperators), 0);
}

TEST(ProfiledScanTest, ProfileCountersMatchTree) {
  MrCluster cluster(ScanCluster());
  WriteCifTable(&cluster, "/scan_counts", 512);
  JobConf conf;
  conf.job_name = "counted-scan";
  conf.num_reduce_tasks = 0;
  conf.Set(kConfInputTable, "/scan_counts");
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<CountRowsMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  conf.SetBool(kConfProfileEnabled, true);
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JobReport& report = result->report;
  ASSERT_FALSE(report.profile.empty());
  EXPECT_EQ(report.counters.Get(kCounterProfOperators),
            static_cast<int64_t>(obs::NumProfileOperators(report.profile)));
  EXPECT_EQ(report.counters.Get(kCounterProfTasksProfiled),
            static_cast<int64_t>(report.profile.roots[0].tasks));
  EXPECT_EQ(report.profile.wall_seconds, report.wall_seconds)
      << "profile stamped with the job wall clock at commit";
  EXPECT_LE(report.profile.ProfiledSpanSeconds(), report.wall_seconds + 0.01)
      << "profiled attempts fit inside the job envelope";
}

}  // namespace
}  // namespace mr
}  // namespace clydesdale
