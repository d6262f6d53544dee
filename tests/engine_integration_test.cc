#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/clydesdale.h"
#include "hive/hive_engine.h"
#include "mapreduce/counters.h"
#include "mapreduce/job_trace.h"
#include "obs/query_profile.h"
#include "sql/parser.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/reference_executor.h"

namespace clydesdale {
namespace {

/// Shared fixture: one loaded SSB cluster reused across all queries (loading
/// dominates test time).
class EngineIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mr::ClusterOptions copts;
    copts.num_nodes = 4;
    copts.map_slots_per_node = 2;
    copts.dfs_block_size = 256 * 1024;
    cluster_ = new mr::MrCluster(copts);

    ssb::SsbLoadOptions options;
    options.scale_factor = 0.002;
    auto dataset = ssb::LoadSsb(cluster_, options);
    CLY_CHECK(dataset.ok());
    dataset_ = new ssb::SsbDataset(std::move(*dataset));
  }

  static void TearDownTestSuite() {
    delete dataset_;
    delete cluster_;
    dataset_ = nullptr;
    cluster_ = nullptr;
  }

  static core::StarSchema HiveStar() {
    core::StarSchema star = dataset_->star;
    *star.mutable_fact() = dataset_->fact_rcfile;
    return star;
  }

  static std::vector<Row> Reference(const core::StarQuerySpec& spec) {
    auto rows = ssb::ExecuteReference(cluster_, dataset_->star, spec);
    CLY_CHECK(rows.ok());
    return std::move(*rows);
  }

  static void ExpectRowsEqual(const std::vector<Row>& expected,
                              const std::vector<Row>& actual,
                              const std::string& label) {
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], actual[i])
          << label << " row " << i << ": expected "
          << expected[i].ToString() << " got " << actual[i].ToString();
    }
  }

  static mr::MrCluster* cluster_;
  static ssb::SsbDataset* dataset_;
};

mr::MrCluster* EngineIntegrationTest::cluster_ = nullptr;
ssb::SsbDataset* EngineIntegrationTest::dataset_ = nullptr;

class AllQueriesTest : public EngineIntegrationTest,
                       public ::testing::WithParamInterface<std::string> {};

TEST_P(AllQueriesTest, ClydesdaleMatchesReference) {
  auto spec = ssb::QueryById(GetParam());
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "clydesdale " + GetParam());
  EXPECT_EQ(result->stage_reports.size(), 1u) << "one MR job per query";
}

TEST_P(AllQueriesTest, HiveRepartitionMatchesReference) {
  auto spec = ssb::QueryById(GetParam());
  ASSERT_TRUE(spec.ok());
  hive::HiveOptions options;
  options.strategy = hive::JoinStrategy::kRepartition;
  hive::HiveEngine engine(cluster_, HiveStar(), options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "hive-rp " + GetParam());
  // One MR job per dimension + group-by + order-by (paper §6.3).
  EXPECT_EQ(result->stage_reports.size(), spec->dims.size() + 2);
}

TEST_P(AllQueriesTest, HiveMapJoinMatchesReference) {
  auto spec = ssb::QueryById(GetParam());
  ASSERT_TRUE(spec.ok());
  hive::HiveOptions options;
  options.strategy = hive::JoinStrategy::kMapJoin;
  hive::HiveEngine engine(cluster_, HiveStar(), options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "hive-mj " + GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Ssb, AllQueriesTest,
    ::testing::Values("Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1",
                      "Q3.2", "Q3.3", "Q3.4", "Q4.1", "Q4.2", "Q4.3"),
    [](const auto& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '.'), name.end());
      return name;
    });

TEST_F(EngineIntegrationTest, AblationTogglesPreserveResults) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  const std::vector<Row> expected = Reference(*spec);

  for (int mask = 0; mask < 8; ++mask) {
    core::ClydesdaleOptions options;
    options.block_iteration = (mask & 1) != 0;
    options.columnar = (mask & 2) != 0;
    options.multithreaded = (mask & 4) != 0;
    core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
    auto result = engine.Execute(*spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " mask " << mask;
    ExpectRowsEqual(expected, result->rows,
                    "ablation mask " + std::to_string(mask));
  }
}

TEST_F(EngineIntegrationTest, LateMaterializationPrunesAndMatches) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());

  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "late-mat");

  // Q2.1 joins a filtered dimension (p_category = MFGR#12), so the pushed
  // key filter must prune fact rows before the probe ever sees them.
  EXPECT_GT(result->Counter(mr::kCounterCifRowsPruned), 0);
  EXPECT_LT(result->Counter(core::kCounterProbeRows),
            static_cast<int64_t>(dataset_->lineorder_rows));
}

TEST_F(EngineIntegrationTest, NonColumnarReadsMoreBytes) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());

  core::ClydesdaleEngine columnar(cluster_, dataset_->star, {});
  core::ClydesdaleOptions wide_options;
  wide_options.columnar = false;
  core::ClydesdaleEngine wide(cluster_, dataset_->star, wide_options);

  auto narrow_result = columnar.Execute(*spec);
  auto wide_result = wide.Execute(*spec);
  ASSERT_TRUE(narrow_result.ok());
  ASSERT_TRUE(wide_result.ok());
  const auto bytes = [](const core::QueryResult& r) {
    uint64_t total = 0;
    for (const auto& report : r.stage_reports) {
      total += report.TotalMapInputBytes();
    }
    return total;
  };
  // Q2.1 touches 4 of 17 columns; reading everything must cost ~3-4x more.
  EXPECT_GT(bytes(*wide_result), bytes(*narrow_result) * 2);
}

TEST_F(EngineIntegrationTest, JvmReuseBuildsHashTablesOncePerNode) {
  auto spec = ssb::QueryById("Q3.1");
  ASSERT_TRUE(spec.ok());

  core::ClydesdaleOptions options;
  options.multithreaded = false;  // one-split tasks: several per node
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());

  // Pull-based scheduling may leave a node without a task, so count the
  // nodes that ran one.
  const std::vector<mr::TaskReport>& tasks =
      result->stage_reports[0].map_tasks;
  std::set<hdfs::NodeId> nodes;
  for (const mr::TaskReport& task : tasks) nodes.insert(task.node);
  const int64_t builds = result->Counter(core::kCounterHashBuilds);
  const int64_t dims = static_cast<int64_t>(spec->dims.size());
  EXPECT_EQ(builds, dims * static_cast<int64_t>(nodes.size()))
      << "hash tables must be built exactly once per node (paper §5.2)";
  EXPECT_GT(tasks.size(), nodes.size());
}

TEST_F(EngineIntegrationTest, WithoutJvmReuseEveryTaskBuilds) {
  auto spec = ssb::QueryById("Q3.1");
  ASSERT_TRUE(spec.ok());

  core::ClydesdaleOptions options;
  options.multithreaded = false;  // stock mappers
  options.jvm_reuse = false;
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());

  const int64_t builds = result->Counter(core::kCounterHashBuilds);
  const int64_t tasks =
      static_cast<int64_t>(result->stage_reports[0].map_tasks.size());
  EXPECT_EQ(builds, tasks * static_cast<int64_t>(spec->dims.size()))
      << "without reuse every map task rebuilds every table";
}

TEST_F(EngineIntegrationTest, MapSideAggOffStillCorrectViaCombiner) {
  auto spec = ssb::QueryById("Q3.2");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleOptions options;
  options.map_side_agg = false;
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());
  ExpectRowsEqual(Reference(*spec), result->rows, "combiner path");
  EXPECT_GT(result->Counter(mr::kCounterCombineInputRecords), 0);
}

TEST_F(EngineIntegrationTest, SurvivesDimensionReplicaLoss) {
  auto spec = ssb::QueryById("Q2.2");
  ASSERT_TRUE(spec.ok());
  // Wipe one node's local dimension cache: tasks there must re-fetch the
  // master copy from HDFS (paper §4) and still produce correct results.
  cluster_->local_store(1)->Wipe();
  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "replica loss");
  // The wiped node now has its replicas back.
  for (const auto& [name, dim] : dataset_->star.dims()) {
    if (name == "part" || name == "supplier" || name == "date") {
      EXPECT_TRUE(cluster_->local_store(1)->Exists(dim.local_path)) << name;
    }
  }
}

TEST_F(EngineIntegrationTest, SingleMapTaskPerNodeWhenMultithreaded) {
  auto spec = ssb::QueryById("Q2.3");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());
  // Default multisplit packing: one map task per node that holds data.
  EXPECT_LE(result->stage_reports[0].map_tasks.size(),
            static_cast<size_t>(cluster_->num_nodes()));
}

TEST_F(EngineIntegrationTest, ClydesdaleMapsAreDataLocal) {
  auto spec = ssb::QueryById("Q1.1");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());
  const auto& report = result->stage_reports[0];
  for (const auto& task : report.map_tasks) {
    EXPECT_TRUE(task.data_local) << "task " << task.index;
    EXPECT_EQ(task.hdfs_remote_bytes, 0u) << "task " << task.index;
  }
}

TEST_F(EngineIntegrationTest, TracedRunEmitsSpansTimelineAndCriticalPath) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  const std::string trace_dir =
      ::testing::TempDir() + "/cly_traced_q21";
  std::filesystem::remove_all(trace_dir);  // stale files from earlier runs
  std::filesystem::create_directories(trace_dir);

  core::ClydesdaleOptions options;
  options.trace = true;
  options.trace_dir = trace_dir;
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "traced Q2.1");

  ASSERT_EQ(result->stage_reports.size(), 1u);
  const mr::JobReport& report = result->stage_reports[0];
  ASSERT_FALSE(report.spans.empty());

  // The span taxonomy covers the job, its phases, tasks, and the
  // star-join stages (hash-table amortisation + probe).
  std::set<std::string> names;
  for (const obs::SpanRecord& span : report.spans) names.insert(span.name);
  for (const char* expected :
       {"setup", "map-phase", "map-task", "hash-tables", "probe"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  // Phase spans partition the job: their sum must account for the wall
  // time (small scheduling gaps allowed; the absolute slack covers one
  // stray scheduler timeslice landing between spans on a tiny run under
  // parallel test load). The derived shuffle-overlap span has category
  // "overlap", not "phase" — it deliberately double-counts map time.
  double phase_sum = 0;
  for (const obs::SpanRecord& span : report.spans) {
    if (std::string_view(span.category) == "phase") {
      phase_sum += static_cast<double>(span.dur_us) * 1e-6;
    }
  }
  EXPECT_NEAR(phase_sum, report.wall_seconds,
              0.05 * report.wall_seconds + 0.010);

  // Summary surfaces the latency/volume distributions.
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("map p50/p95/p99="), std::string::npos) << summary;

  // The critical path names the straggler chain out of this report.
  const mr::CriticalPathReport path = mr::CriticalPath(report);
  EXPECT_GE(path.slowest_map, 0);
  EXPECT_GT(path.map_phase_seconds, 0);
  EXPECT_GE(path.map_skew, 1.0);
  const std::string chain = path.ToString();
  EXPECT_NE(chain.find(StrCat("m-", path.slowest_map, "@node",
                              path.slowest_map_node)),
            std::string::npos)
      << chain;
  if (!report.reduce_tasks.empty()) {
    // Pipelined shuffle prints "shuffle overlap"; a run where no reducer
    // fetched before the last map finished keeps the barrier wording.
    const bool names_handoff =
        chain.find("shuffle barrier") != std::string::npos ||
        chain.find("shuffle overlap") != std::string::npos;
    EXPECT_TRUE(names_handoff) << chain;
  }

  // Trace + timeline files landed in the requested directory.
  bool saw_trace = false, saw_timeline = false;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".trace.json") != std::string::npos) {
      saw_trace = true;
      std::ifstream file(entry.path());
      std::string content((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
      EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
      EXPECT_NE(content.find("\"map-task\""), std::string::npos);
    }
    if (name.find(".timeline.txt") != std::string::npos) saw_timeline = true;
  }
  EXPECT_TRUE(saw_trace);
  EXPECT_TRUE(saw_timeline);

  // Standard counters flow through a traced star-join run too.
  EXPECT_GT(result->Counter(mr::kCounterMapInputRecords), 0);
  EXPECT_GT(result->Counter(mr::kCounterHdfsReadOps), 0);
}

TEST_F(EngineIntegrationTest, TracingOffRecordsNoSpans) {
  auto spec = ssb::QueryById("Q1.1");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok());
  for (const mr::JobReport& report : result->stage_reports) {
    EXPECT_TRUE(report.spans.empty());
    EXPECT_TRUE(report.profile.empty()) << "profile off: no tree is merged";
    // Task wall times stay on regardless: they feed Summary() percentiles.
    ASSERT_FALSE(report.map_tasks.empty());
    for (const auto* tasks : {&report.map_tasks, &report.reduce_tasks}) {
      for (const mr::TaskReport& task : *tasks) {
        EXPECT_GT(task.wall_seconds, 0) << report.job_name << " #"
                                        << task.index;
      }
    }
  }
}

TEST_F(EngineIntegrationTest, HiveStagesEachEmitTraces) {
  auto spec = ssb::QueryById("Q1.1");
  ASSERT_TRUE(spec.ok());
  const std::string trace_dir = ::testing::TempDir() + "/hive_traced_q11";
  std::filesystem::remove_all(trace_dir);  // stale files from earlier runs
  std::filesystem::create_directories(trace_dir);

  hive::HiveOptions options;
  options.strategy = hive::JoinStrategy::kMapJoin;
  options.trace = true;
  options.trace_dir = trace_dir;
  hive::HiveEngine engine(cluster_, HiveStar(), options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "traced hive Q1.1");

  // Every stage job recorded spans; the map-join stages show the per-task
  // hash reload Clydesdale's JVM reuse amortises away.
  ASSERT_EQ(result->stage_reports.size(), spec->dims.size() + 2);
  bool saw_hash_load = false;
  for (const mr::JobReport& report : result->stage_reports) {
    EXPECT_FALSE(report.spans.empty()) << report.job_name;
    for (const obs::SpanRecord& span : report.spans) {
      if (span.name == "hash-load") saw_hash_load = true;
    }
  }
  EXPECT_TRUE(saw_hash_load);
  size_t trace_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    if (entry.path().string().find(".trace.json") != std::string::npos) {
      ++trace_files;
    }
  }
  EXPECT_EQ(trace_files, result->stage_reports.size());
}

/// Depth-first lookup of the first operator whose name starts with `prefix`.
const obs::OperatorProfile* FindOperator(const obs::OperatorProfile& node,
                                         const std::string& prefix) {
  if (node.name.rfind(prefix, 0) == 0) return &node;
  for (const obs::OperatorProfile& child : node.children) {
    if (const obs::OperatorProfile* hit = FindOperator(child, prefix)) {
      return hit;
    }
  }
  return nullptr;
}

TEST_F(EngineIntegrationTest, ProfiledRunSurfacesPerOperatorMemory) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleOptions options;
  options.profile = true;
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "profiled Q2.1");

  ASSERT_EQ(result->stage_reports.size(), 1u);
  const obs::QueryProfile& profile = result->stage_reports[0].profile;
  ASSERT_FALSE(profile.empty());

  // Every memory-bearing operator reports a non-zero footprint: the scan's
  // arena-held blocks, the probe's resident dimension tables, the partial
  // aggregation table, and the reducer's fetched shuffle runs.
  for (const char* op : {"scan:", "probe", "aggregate", "shuffle"}) {
    const obs::OperatorProfile* found = nullptr;
    for (const obs::OperatorProfile& root : profile.roots) {
      if ((found = FindOperator(root, op)) != nullptr) break;
    }
    ASSERT_NE(found, nullptr) << "missing operator " << op;
    EXPECT_GT(found->mem_peak_bytes, 0u) << op << " peak";
    EXPECT_GT(found->mem_current_bytes, 0u) << op << " current";
    EXPECT_GE(found->mem_peak_bytes, found->mem_current_bytes) << op;
  }

  // EXPLAIN ANALYZE invariants: every selectivity is a real fraction,
  // wall(sum) bounds wall(max) on every node, the fact scan feeds the probe
  // row for row, and the profiled attempt envelope fits in the job's wall
  // clock.
  std::vector<const obs::OperatorProfile*> pending;
  for (const obs::OperatorProfile& root : profile.roots) {
    pending.push_back(&root);
  }
  while (!pending.empty()) {
    const obs::OperatorProfile* node = pending.back();
    pending.pop_back();
    if (node->rows_in > 0) {
      EXPECT_GE(node->selectivity(), 0.0) << node->name;
      EXPECT_LE(node->selectivity(), 1.0) << node->name;
    }
    EXPECT_GE(node->wall_ns, node->wall_max_ns) << node->name;
    for (const obs::OperatorProfile& child : node->children) {
      pending.push_back(&child);
    }
  }
  const obs::OperatorProfile* map_root = nullptr;
  for (const obs::OperatorProfile& root : profile.roots) {
    if (root.name == "map") map_root = &root;
  }
  ASSERT_NE(map_root, nullptr);
  const obs::OperatorProfile* scan = FindOperator(*map_root, "scan:");
  const obs::OperatorProfile* probe = FindOperator(*map_root, "probe");
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(scan->rows_out, probe->rows_in);

  // The probe's build child: the hash-tables span's time, the rows of the
  // builds that ran (JVM reuse: one per node), and the tables' bytes.
  const obs::OperatorProfile* build = nullptr;
  for (const obs::OperatorProfile& child : probe->children) {
    if (child.name == "build") build = &child;
  }
  ASSERT_NE(build, nullptr) << obs::ExplainAnalyzeText(profile);
  EXPECT_EQ(build->kind, "build");
  EXPECT_EQ(build->tasks, result->stage_reports[0].map_tasks.size());
  EXPECT_EQ(static_cast<int64_t>(build->rows_in),
            result->Counter(core::kCounterHashBuildRows));
  EXPECT_EQ(static_cast<int64_t>(build->rows_out),
            result->Counter(core::kCounterHashEntries));
  EXPECT_GT(build->rows_out, 0u);
  EXPECT_GT(build->wall_ns, 0u);
  EXPECT_GT(build->mem_peak_bytes, 0u);
  // The builds' replica scans: decoded and raw bytes and the encoding
  // histogram of the column blocks they read, as on the fact scan node.
  EXPECT_GT(build->bytes_decoded, 0u);
  EXPECT_GE(build->bytes_raw, build->bytes_decoded);
  uint64_t build_blocks = 0;
  for (uint64_t n : build->blocks_by_encoding) build_blocks += n;
  EXPECT_GT(build_blocks, 0u);
  EXPECT_EQ(scan->rows_in, scan->rows_out + scan->rows_pruned);
  EXPECT_EQ(build->mem_peak_bytes, probe->mem_peak_bytes)
      << "the build's tables are the ones the probe holds";
  EXPECT_LE(profile.ProfiledSpanSeconds(),
            result->stage_reports[0].wall_seconds + 1e-6);

  // The task roots carry the attempt trackers' totals, and the rendered
  // EXPLAIN ANALYZE surfaces the per-operator line.
  const std::string text = obs::ExplainAnalyzeText(profile);
  EXPECT_NE(text.find("mem cur/peak="), std::string::npos) << text;
  // Job counters recorded the budget-relevant peaks.
  EXPECT_GT(result->Counter(mr::kCounterMemJobPeakBytes), 0);
  // With the query done, nothing is left charged against the cluster.
  EXPECT_EQ(cluster_->mem_tracker()->consumed(), 0);
}

TEST_F(EngineIntegrationTest, EachAttemptIsTimedOnce) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  core::ClydesdaleOptions options;
  options.trace = true;
  options.profile = true;
  options.multithreaded = false;  // one-split tasks: several per node
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->stage_reports.size(), 1u);
  const mr::JobReport& report = result->stage_reports[0];

  // The task report, the map-task span and the merged "map" root all read
  // the attempt's one timer: they agree to the span's microsecond rounding.
  double report_us = 0;
  for (const mr::TaskReport& task : report.map_tasks) {
    report_us += task.wall_seconds * 1e6;
  }
  double span_us = 0;
  size_t task_spans = 0;
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name != "map-task") continue;
    span_us += static_cast<double>(span.dur_us);
    ++task_spans;
  }
  const obs::OperatorProfile* map_root = nullptr;
  for (const obs::OperatorProfile& root : report.profile.roots) {
    if (root.name == "map") map_root = &root;
  }
  ASSERT_NE(map_root, nullptr);
  const size_t attempts = report.map_tasks.size();
  ASSERT_GT(attempts, static_cast<size_t>(cluster_->num_nodes()));
  ASSERT_EQ(task_spans, attempts);
  ASSERT_EQ(map_root->tasks, attempts);
  const double root_us = static_cast<double>(map_root->wall_ns) / 1e3;
  const double slack_us = static_cast<double>(attempts);
  EXPECT_NEAR(report_us, span_us, slack_us);
  EXPECT_NEAR(report_us, root_us, slack_us);
  EXPECT_NEAR(span_us, root_us, slack_us);
}

TEST_F(EngineIntegrationTest, ManyAccumulatorsMatchEveryEngine) {
  // More accumulators than any SSB query: 17 SUMs, and 9 AVGs (each a sum
  // and a count, so 18 accumulators).
  const std::vector<std::string> columns = {
      "lo_quantity", "lo_extendedprice", "lo_ordtotalprice", "lo_discount",
      "lo_revenue",  "lo_supplycost",    "lo_tax"};
  std::string sums;
  for (size_t i = 0; i < 17; ++i) {
    const std::string& col = columns[i % columns.size()];
    sums += StrCat(", SUM(", col, i < columns.size() ? "" : " * lo_quantity",
                   ") AS r", i);
  }
  std::string avgs;
  for (size_t i = 0; i < 9; ++i) {
    const std::string& col = columns[i % columns.size()];
    avgs += StrCat(", AVG(", col, i < columns.size() ? "" : " * lo_discount",
                   ") AS a", i);
  }
  for (const std::string& select : {sums, avgs}) {
    const std::string sql =
        StrCat("SELECT d_year", select,
               " FROM lineorder, date WHERE lo_orderdate = d_datekey "
               "GROUP BY d_year");
    auto spec = sql::ParseStarQuery(sql, dataset_->star);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString() << ": " << sql;
    const std::vector<Row> expected = Reference(*spec);
    ASSERT_FALSE(expected.empty());

    core::ClydesdaleOptions row_at_a_time;
    row_at_a_time.block_iteration = false;
    core::ClydesdaleOptions single_threaded;
    single_threaded.multithreaded = false;
    const std::pair<const char*, core::ClydesdaleOptions> modes[] = {
        {"default", {}},
        {"block_iteration off", row_at_a_time},
        {"multithreaded off", single_threaded}};
    for (const auto& [label, options] : modes) {
      core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
      auto result = engine.Execute(*spec);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ExpectRowsEqual(expected, result->rows, StrCat("clydesdale ", label));
    }
    for (hive::JoinStrategy strategy :
         {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
      hive::HiveOptions options;
      options.strategy = strategy;
      hive::HiveEngine engine(cluster_, HiveStar(), options);
      auto result = engine.Execute(*spec);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectRowsEqual(expected, result->rows,
                      StrCat("hive ", hive::JoinStrategyName(strategy)));
    }
  }
}

/// Reads a whole real-filesystem file (the engine's profile artifacts).
std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST_F(EngineIntegrationTest, ProfiledTracedRunWritesProfileNextToTrace) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  const std::string trace_dir = ::testing::TempDir() + "/cly_profiled_q21";
  std::filesystem::remove_all(trace_dir);  // stale files from earlier runs
  std::filesystem::create_directories(trace_dir);

  core::ClydesdaleOptions options;
  options.trace = true;
  options.profile = true;
  options.trace_dir = trace_dir;
  core::ClydesdaleEngine engine(cluster_, dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectRowsEqual(Reference(*spec), result->rows, "profiled traced Q2.1");
  ASSERT_EQ(result->stage_reports.size(), 1u);
  const mr::JobReport& report = result->stage_reports[0];
  ASSERT_FALSE(report.profile.empty());

  // The reduce root carries the shuffle child with its fetched batches.
  const obs::OperatorProfile* reduce = nullptr;
  for (const obs::OperatorProfile& root : report.profile.roots) {
    if (root.name == "reduce") reduce = &root;
  }
  ASSERT_NE(reduce, nullptr);
  const obs::OperatorProfile* shuffle = nullptr;
  for (const obs::OperatorProfile& child : reduce->children) {
    if (child.name == "shuffle") shuffle = &child;
  }
  ASSERT_NE(shuffle, nullptr);
  EXPECT_GT(shuffle->batches, 0u);

  // Exactly one <job>-<n>.profile.json, with its .profile.txt beside it,
  // holding the report's own EXPLAIN ANALYZE renderings.
  const std::string suffix = ".profile.json";
  std::vector<std::filesystem::path> profiles;
  for (const auto& entry : std::filesystem::directory_iterator(trace_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      profiles.push_back(entry.path());
    }
  }
  ASSERT_EQ(profiles.size(), 1u);
  const std::string json_name = profiles[0].filename().string();
  const std::string prefix = report.job_name + "-";
  ASSERT_EQ(json_name.rfind(prefix, 0), 0u) << json_name;
  const std::string instance = json_name.substr(
      prefix.size(), json_name.size() - prefix.size() - suffix.size());
  ASSERT_FALSE(instance.empty()) << json_name;
  EXPECT_EQ(instance.find_first_not_of("0123456789"), std::string::npos)
      << json_name;
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(trace_dir) / (prefix + instance + ".trace.json")));
  const std::filesystem::path text_path =
      std::filesystem::path(trace_dir) / (prefix + instance + ".profile.txt");
  ASSERT_TRUE(std::filesystem::exists(text_path)) << text_path;
  EXPECT_EQ(ReadFile(profiles[0]), obs::ExplainAnalyzeJson(report.profile));
  EXPECT_EQ(ReadFile(text_path), obs::ExplainAnalyzeText(report.profile));
}

TEST_F(EngineIntegrationTest, BlockIterationOffProbesOneRecordPerBatch) {
  // The block-iteration ablation turns off per-block amortisation and
  // nothing else: the same vectorized pipeline runs on one-row batches over
  // the same pruned scan. The scan's key filters leave Q3.3 and Q3.4 no
  // probe rows at this scale, so "some rows" is checked over the stream.
  int64_t per_record_rows = 0, blocked_rows = 0, blocked_batches = 0;
  for (const core::StarQuerySpec& spec : ssb::AllQueries()) {
    const std::vector<Row> expected = Reference(spec);
    core::ClydesdaleEngine blocked(cluster_, dataset_->star, {});
    auto blocked_result = blocked.Execute(spec);
    ASSERT_TRUE(blocked_result.ok())
        << spec.id << ": " << blocked_result.status().ToString();
    const int64_t rows = blocked_result->Counter(core::kCounterProbeRows);
    const int64_t batches = blocked_result->Counter(core::kCounterProbeBatches);
    EXPECT_LE(batches, rows) << spec.id;
    blocked_rows += rows;
    blocked_batches += batches;
    for (const bool map_side_agg : {true, false}) {
      const std::string label =
          StrCat(spec.id, map_side_agg ? "" : " map_side_agg off");
      core::ClydesdaleOptions per_record;
      per_record.block_iteration = false;
      per_record.map_side_agg = map_side_agg;
      core::ClydesdaleEngine engine(cluster_, dataset_->star, per_record);
      auto result = engine.Execute(spec);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ExpectRowsEqual(expected, result->rows, label);
      EXPECT_EQ(result->Counter(core::kCounterProbeRows), rows) << label;
      EXPECT_EQ(result->Counter(core::kCounterProbeBatches), rows) << label;
      per_record_rows += result->Counter(core::kCounterProbeRows);
    }
  }
  EXPECT_GT(per_record_rows, 0);
  EXPECT_LT(blocked_batches, blocked_rows);
}

TEST_F(EngineIntegrationTest, ConcurrentQueriesShareTheCluster) {
  // Two different queries run simultaneously against the same cluster;
  // both must be correct (exercises thread safety of the DFS, table cache,
  // shuffle, and shared-state registries under concurrent jobs).
  auto q1 = ssb::QueryById("Q2.1");
  auto q2 = ssb::QueryById("Q3.2");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  const std::vector<Row> expected1 = Reference(*q1);
  const std::vector<Row> expected2 = Reference(*q2);

  core::ClydesdaleEngine engine(cluster_, dataset_->star, {});
  Status st1, st2;
  std::vector<Row> rows1, rows2;
  std::thread t1([&] {
    for (int i = 0; i < 3; ++i) {
      auto r = engine.Execute(*q1);
      if (!r.ok()) {
        st1 = r.status();
        return;
      }
      rows1 = std::move(r->rows);
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 3; ++i) {
      auto r = engine.Execute(*q2);
      if (!r.ok()) {
        st2 = r.status();
        return;
      }
      rows2 = std::move(r->rows);
    }
  });
  t1.join();
  t2.join();
  ASSERT_TRUE(st1.ok()) << st1.ToString();
  ASSERT_TRUE(st2.ok()) << st2.ToString();
  ExpectRowsEqual(expected1, rows1, "concurrent Q2.1");
  ExpectRowsEqual(expected2, rows2, "concurrent Q3.2");
}

/// SSB at SF 0.01 on the default cluster shape, loaded fresh for every test
/// because some tests break the dataset on purpose.
class ScratchCleanupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<mr::MrCluster>(mr::ClusterOptions{});
    ssb::SsbLoadOptions options;
    options.scale_factor = 0.01;
    auto dataset = ssb::LoadSsb(cluster_.get(), options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = std::make_unique<ssb::SsbDataset>(std::move(*dataset));
  }

  core::StarSchema HiveStar() const {
    core::StarSchema star = dataset_->star;
    *star.mutable_fact() = dataset_->fact_rcfile;
    return star;
  }

  std::unique_ptr<mr::MrCluster> cluster_;
  std::unique_ptr<ssb::SsbDataset> dataset_;
};

TEST_F(ScratchCleanupTest, HiveStrategiesLeaveNoScratch) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  for (auto strategy :
       {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
    hive::HiveOptions options;
    options.strategy = strategy;
    hive::HiveEngine engine(cluster_.get(), HiveStar(), options);
    auto result = engine.Execute(*spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(cluster_->dfs()->List("/tmp/hive/"),
              std::vector<std::string>{})
        << hive::JoinStrategyName(strategy);
  }
}

TEST_F(ScratchCleanupTest, FailedStagedPlanLeavesNoScratch) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  // A budget of 1 byte makes every dimension its own repartition stage; with
  // supplier gone, the third stage fails after two stages wrote their
  // intermediates.
  auto supplier = dataset_->star.dim("supplier");
  ASSERT_TRUE(supplier.ok());
  ASSERT_TRUE(cluster_->DropTable((*supplier)->desc.path).ok());
  core::ClydesdaleOptions options;
  options.max_hash_memory_bytes = 1;
  core::ClydesdaleEngine engine(cluster_.get(), dataset_->star, options);
  auto result = engine.Execute(*spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
      << result.status().ToString();
  EXPECT_EQ(cluster_->dfs()->List("/tmp/clydesdale/"),
            std::vector<std::string>{});

  // A Hive plan failing on the same dimension drops its scratch too.
  for (auto strategy :
       {hive::JoinStrategy::kRepartition, hive::JoinStrategy::kMapJoin}) {
    hive::HiveOptions hive_options;
    hive_options.strategy = strategy;
    hive::HiveEngine hive_engine(cluster_.get(), HiveStar(), hive_options);
    EXPECT_FALSE(hive_engine.Execute(*spec).ok());
    EXPECT_EQ(cluster_->dfs()->List("/tmp/hive/"),
              std::vector<std::string>{})
        << hive::JoinStrategyName(strategy);
  }
}

TEST_F(ScratchCleanupTest, HiveScanNodesCountTheRowsTheyStream) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  hive::HiveOptions options;
  options.profile = true;
  hive::HiveEngine engine(cluster_.get(), HiveStar(), options);
  auto result = engine.Execute(*spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Each repartition join's map side tags every row its scans deliver, so
  // the scan nodes' rows add up to the tag-partition node's input.
  size_t join_jobs = 0;
  for (const mr::JobReport& report : result->stage_reports) {
    const obs::OperatorProfile* map = nullptr;
    for (const obs::OperatorProfile& root : report.profile.roots) {
      if (root.name == "map") map = &root;
    }
    ASSERT_NE(map, nullptr) << report.job_name;
    const obs::OperatorProfile* tag = nullptr;
    uint64_t scanned = 0;
    for (const obs::OperatorProfile& child : map->children) {
      if (child.name == "tag-partition") tag = &child;
      if (child.kind == "scan") scanned += child.rows_out;
    }
    if (tag == nullptr) continue;  // group-by and order-by stages
    ++join_jobs;
    EXPECT_GT(tag->rows_in, 0u) << report.job_name;
    EXPECT_EQ(scanned, tag->rows_in) << report.job_name;
  }
  EXPECT_EQ(join_jobs, spec->dims.size());
}

/// Hive writes each intermediate table in task order, so the rows every
/// downstream map task reads — and with them every record counter of every
/// stage, map-side combining included — repeat exactly from run to run.
/// Small DFS blocks give each intermediate several splits, so the group-by
/// stage runs several map tasks, each combining only its own split.
TEST(HiveDeterminismTest, RepartitionStageCountersRepeatAcrossRuns) {
  mr::ClusterOptions cluster_options;
  cluster_options.dfs_block_size = 32 * 1024;
  mr::MrCluster cluster(cluster_options);
  ssb::SsbLoadOptions load_options;
  load_options.scale_factor = 0.01;
  auto dataset = ssb::LoadSsb(&cluster, load_options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  core::StarSchema star = dataset->star;
  *star.mutable_fact() = dataset->fact_rcfile;
  auto spec = ssb::QueryById("Q3.1");
  ASSERT_TRUE(spec.ok());

  const char* const kRecordCounters[] = {
      mr::kCounterMapInputRecords,     mr::kCounterMapOutputRecords,
      mr::kCounterCombineInputRecords, mr::kCounterCombineOutputRecords,
      mr::kCounterReduceInputRecords,  mr::kCounterReduceInputGroups,
      mr::kCounterReduceOutputRecords, mr::kCounterShuffleBytes,
      mr::kCounterHdfsBytesWritten};
  // Per stage: its job name, map task count and record counters.
  auto run = [&]() -> std::vector<std::string> {
    hive::HiveEngine engine(&cluster, star, {});
    auto result = engine.Execute(*spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::string> stages;
    if (!result.ok()) return stages;
    for (const mr::JobReport& report : result->stage_reports) {
      std::string line = StrCat(report.job_name, " maps=",
                                report.map_tasks.size());
      for (const char* name : kRecordCounters) {
        line += StrCat(" ", name, "=", report.counters.Get(name));
      }
      stages.push_back(std::move(line));
    }
    return stages;
  };
  const std::vector<std::string> first = run();
  ASSERT_EQ(first.size(), spec->dims.size() + 2);
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(run(), first) << "repeat " << repeat;
  }
  // The group-by stage reads a multi-split intermediate and combines.
  const std::string& group_by = first[spec->dims.size()];
  EXPECT_EQ(group_by.find(" maps=1 "), std::string::npos) << group_by;
  EXPECT_EQ(group_by.find(StrCat(mr::kCounterCombineOutputRecords, "=0")),
            std::string::npos)
      << group_by;
}

}  // namespace
}  // namespace clydesdale
