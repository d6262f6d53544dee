// Hierarchical memory accounting tests: MemTracker tree semantics
// (consume/release/peak propagation), the RAII consumer/charge adapters,
// exact-byte accounting for the big consumers (DimHashTable,
// HashAggregator), the CIF scan's O(batch) footprint, a failed job draining
// every tracker,
// and concurrent consume/release (the tsan preset includes this file).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/mem.h"
#include "common/strings.h"
#include "core/aggregation.h"
#include "core/dim_hash_table.h"
#include "mapreduce/engine.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_trace.h"
#include "obs/mem_tracker.h"
#include "storage/cif.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace obs {
namespace {

TEST(MemTrackerTest, ConsumeReleasePropagateToAncestors) {
  auto root = MemTracker::Create("root");
  auto node = MemTracker::Create("node", root);
  auto job = MemTracker::Create("job", node);

  job->Consume(100);
  node->Consume(40);
  EXPECT_EQ(job->consumed(), 100);
  EXPECT_EQ(node->consumed(), 140);
  EXPECT_EQ(root->consumed(), 140);

  job->Release(100);
  node->Release(40);
  EXPECT_EQ(job->consumed(), 0);
  EXPECT_EQ(node->consumed(), 0);
  EXPECT_EQ(root->consumed(), 0);

  // Peaks survive the release at every level.
  EXPECT_EQ(job->peak(), 100);
  EXPECT_EQ(node->peak(), 140);
  EXPECT_EQ(root->peak(), 140);
}

TEST(MemTrackerTest, PeakIsHighWaterMarkNotLastValue) {
  auto t = MemTracker::Create("t");
  t->Consume(500);
  t->Release(400);
  t->Consume(100);  // 200 now, below the 500 peak
  EXPECT_EQ(t->consumed(), 200);
  EXPECT_EQ(t->peak(), 500);
}

TEST(ScopedMemConsumerTest, ReleasesExactlyWhatItConsumed) {
  auto t = MemTracker::Create("t");
  {
    ScopedMemConsumer consumer(t);
    consumer.Add(64);
    consumer.Add(36);
    EXPECT_EQ(consumer.consumed(), 100);
    EXPECT_EQ(t->consumed(), 100);
    consumer.SyncTo(250);  // delta-consume up to the target
    EXPECT_EQ(t->consumed(), 250);
    consumer.SyncTo(70);  // and back down
    EXPECT_EQ(t->consumed(), 70);
  }
  EXPECT_EQ(t->consumed(), 0) << "destructor releases the outstanding charge";
  EXPECT_EQ(t->peak(), 250);
}

TEST(ScopedMemConsumerTest, NullTrackerIsANoOpEverywhere) {
  ScopedMemConsumer consumer;
  consumer.Add(100);
  consumer.SyncTo(50);
  EXPECT_EQ(consumer.consumed(), 0);
  EXPECT_EQ(consumer.peak(), 0);
}

TEST(TrackerNamesTest, CanonicalLevelNames) {
  EXPECT_EQ(NodeTrackerName(3), "node3");
  EXPECT_EQ(JobTrackerName(7, 2), "job7@node2");
}

TEST(MemTrackerConcurrencyTest, ConcurrentConsumeReleaseIsExact) {
  auto root = MemTracker::Create("root");
  auto node = MemTracker::Create("node", root);
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&node] {
      auto attempt = MemTracker::Create("attempt", node);
      for (int j = 0; j < kIters; ++j) {
        attempt->Consume(64);
        attempt->Consume(32);
        attempt->Release(96);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(root->consumed(), 0);
  EXPECT_EQ(node->consumed(), 0);
  EXPECT_GE(root->peak(), 64);
}

}  // namespace
}  // namespace obs

namespace core {
namespace {

SchemaPtr DimSchema() {
  return Schema::Make({{"pk", TypeKind::kInt32, 4},
                       {"nation", TypeKind::kString, 10}});
}

std::vector<uint8_t> DimStream(int rows) {
  std::vector<Row> data;
  for (int i = 1; i <= rows; ++i) {
    data.push_back(Row({Value(int32_t{i}),
                        Value(std::string("nation") + std::to_string(i % 5))}));
  }
  return storage::EncodeColumnImage(DimSchema(), data);
}

TEST(DimHashTableMemTest, BuildChargesExactBytesAndReleasesOnDrop) {
  auto tracker = obs::MemTracker::Create("job");
  auto stream = DimStream(500);
  {
    auto table =
        DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                            *Predicate::True(), "pk", {"nation"}, tracker);
    ASSERT_TRUE(table.ok());
    EXPECT_GT((*table)->stats().memory_bytes, 0u);
    EXPECT_EQ(tracker->consumed(),
              static_cast<int64_t>((*table)->stats().memory_bytes))
        << "tracker charge equals the table's own estimate, byte for byte";
  }
  EXPECT_EQ(tracker->consumed(), 0) << "dropping the table drains the charge";
  EXPECT_GT(tracker->peak(), 0);
}

TEST(HashAggregatorMemTest, GrowthIsTrackedAndReleasedExactly) {
  auto tracker = obs::MemTracker::Create("attempt");
  const AggLayout layout = AggLayout::For({{"s", Expr::Col("x"), AggKind::kSum},
                                           {"n", nullptr, AggKind::kCount}});
  {
    HashAggregator agg(layout);
    agg.AttachMemTracker(tracker);
    const int64_t empty_bytes = tracker->consumed();
    EXPECT_EQ(empty_bytes, static_cast<int64_t>(agg.memory_bytes()));

    // Enough distinct groups to force several rehashes and arena growth.
    std::vector<uint8_t> key_bytes;
    for (int i = 0; i < 4000; ++i) {
      const Row key({Value(std::string("grp") + std::to_string(i))});
      const int64_t inputs[2] = {i, 1};
      key_bytes.clear();
      group_key::AppendRow(key, &key_bytes);
      agg.AddEncoded(key_bytes.data(), key_bytes.size(), inputs);
    }
    EXPECT_GT(agg.memory_bytes(), static_cast<uint64_t>(empty_bytes));
    // The synced charge is allowed to lag the arena's tail block but must
    // match exactly at every rehash; after this many inserts it is the
    // table-dominated footprint.
    EXPECT_GT(tracker->consumed(), empty_bytes);
    EXPECT_LE(tracker->consumed(), static_cast<int64_t>(agg.memory_bytes()));
  }
  EXPECT_EQ(tracker->consumed(), 0) << "aggregator drop releases everything";
}

}  // namespace
}  // namespace core

namespace mr {
namespace {

ClusterOptions TinyCluster() {
  ClusterOptions options;
  options.num_nodes = 2;
  options.map_slots_per_node = 2;
  return options;
}

storage::TableDesc WriteCifStrings(MrCluster* cluster, const std::string& path,
                                   int rows, int64_t rows_per_split) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatCif;
  desc.schema = Schema::Make(
      {{"id", TypeKind::kInt32, 4}, {"mode", TypeKind::kString, 6}});
  desc.rows_per_split = rows_per_split;
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  for (int i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(Row({Value(i), Value(modes[i % 4])})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

constexpr int64_t kScanBatchRows = 4096;
/// What one batch of the test table's projection holds: an int32 and a
/// string view per row.
constexpr uint64_t kOneBatchBytes =
    kScanBatchRows * (sizeof(int32_t) + sizeof(std::string_view));

/// Mapper that reads its split and emits nothing, so the attempt's memory
/// is the scan's alone.
class DrainMapper final : public Mapper {
 public:
  Status Map(const Row&, const Row&, TaskContext*, OutputCollector*) override {
    return Status::OK();
  }
};

/// The scan's memory, read three ways, at one split size: the reader's
/// ScanStats and tracker peak, and the MEM_* counter and profile scan node
/// of a map-only job over the same table.
struct ScanMemory {
  uint64_t stats_peak = 0;
  int64_t tracker_peak = 0;
  int64_t node_peak_counter = 0;
  uint64_t profile_peak = 0;
};

ScanMemory MeasureScanMemory(int64_t rows_per_split) {
  ClusterOptions options;
  options.num_nodes = 1;
  options.map_slots_per_node = 1;
  MrCluster cluster(options);
  const storage::TableDesc desc =
      WriteCifStrings(&cluster, "/scanmem", 4 * 16384, rows_per_split);
  auto splits = storage::ListTableSplits(*cluster.dfs(), desc);
  CLY_CHECK(splits.ok());

  ScanMemory mem;
  auto tracker = obs::MemTracker::Create("attempt");
  storage::ScanStats stats;
  storage::ScanOptions scan;
  scan.scan_stats = &stats;
  scan.mem_reporter = tracker;
  for (const storage::StorageSplit& split : *splits) {
    auto reader =
        storage::OpenSplitBatchReader(*cluster.dfs(), desc, split, scan);
    CLY_CHECK(reader.ok());
    RowBatch batch((*reader)->output_schema());
    while (true) {
      auto more = (*reader)->NextBatch(&batch, kScanBatchRows);
      CLY_CHECK(more.ok());
      if (!*more) break;
    }
  }
  EXPECT_EQ(tracker->consumed(), 0) << "dropped readers release their charge";
  mem.stats_peak = stats.mem_peak_bytes;
  mem.tracker_peak = tracker->peak();

  JobConf conf;
  conf.job_name = "scan-mem";
  conf.num_reduce_tasks = 0;
  conf.Set(kConfInputTable, desc.path);
  conf.SetBool(kConfProfileEnabled, true);
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<DrainMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  auto job = RunJob(&cluster, conf);
  CLY_CHECK(job.ok());
  mem.node_peak_counter = job->report.counters.Get(kCounterMemNodePeakBytes);
  std::vector<const obs::OperatorProfile*> pending;
  for (const obs::OperatorProfile& root : job->report.profile.roots) {
    pending.push_back(&root);
  }
  while (!pending.empty()) {
    const obs::OperatorProfile* node = pending.back();
    pending.pop_back();
    if (node->kind == "scan") {
      mem.profile_peak = std::max(mem.profile_peak, node->mem_peak_bytes);
    }
    for (const obs::OperatorProfile& child : node->children) {
      pending.push_back(&child);
    }
  }
  return mem;
}

/// The scan reads column blocks in place and decodes one batch at a time,
/// so what it holds is O(batch): a 4x larger split must not move its peak
/// by more than one batch's bytes, on any of the three instruments.
TEST(ScanMemTest, PeakIsOneBatchAtAnySplitSize) {
  const ScanMemory small = MeasureScanMemory(16384);
  const ScanMemory big = MeasureScanMemory(4 * 16384);
  for (const ScanMemory* m : {&small, &big}) {
    EXPECT_GT(m->stats_peak, kOneBatchBytes / 2);
    EXPECT_EQ(m->tracker_peak, static_cast<int64_t>(m->stats_peak))
        << "the tracker charge is what ScanStats reports";
    EXPECT_EQ(m->profile_peak, m->stats_peak);
    EXPECT_GT(m->node_peak_counter, 0);
    EXPECT_LT(m->node_peak_counter, static_cast<int64_t>(4 * kOneBatchBytes));
  }
  auto near = [](uint64_t a, uint64_t b) {
    return (a > b ? a - b : b - a) <= kOneBatchBytes;
  };
  EXPECT_TRUE(near(small.stats_peak, big.stats_peak))
      << small.stats_peak << " vs " << big.stats_peak;
  EXPECT_TRUE(near(static_cast<uint64_t>(small.node_peak_counter),
                   static_cast<uint64_t>(big.node_peak_counter)))
      << small.node_peak_counter << " vs " << big.node_peak_counter;
  EXPECT_TRUE(near(small.profile_peak, big.profile_peak))
      << small.profile_peak << " vs " << big.profile_peak;
}

/// The node's dimension table as the star-join map task holds it: in the
/// job's shared state, charged to the job's per-node tracker.
struct SharedDimTable {
  std::shared_ptr<const core::DimHashTable> table;
};

/// Mapper that builds a dimension hash table into the node's shared state
/// against the job tracker. With `fail_after_build` it then fails the
/// attempt, so the charge is live when the job errors out.
class HashBuildingMapper final : public Mapper {
 public:
  explicit HashBuildingMapper(bool fail_after_build)
      : fail_after_build_(fail_after_build) {}

  Status Setup(TaskContext* context) override {
    Status build_status;
    std::shared_ptr<SharedDimTable> shared =
        context->shared_state()->GetOrCreate<SharedDimTable>(
            "mem-test.dim", [&]() -> std::shared_ptr<SharedDimTable> {
              auto stream = core::DimStream(2000);
              auto table = core::DimHashTable::Build(
                  *core::DimSchema(), stream.data(), stream.size(),
                  *Predicate::True(), "pk", {"nation"},
                  context->job_mem_tracker());
              if (!table.ok()) {
                build_status = table.status();
                return nullptr;
              }
              return std::make_shared<SharedDimTable>(
                  SharedDimTable{std::move(*table)});
            });
    CLY_RETURN_IF_ERROR(build_status);
    if (fail_after_build_) {
      if (context->job_mem_tracker()->consumed() <= 0) {
        return Status::Internal("the build charged nothing");
      }
      return Status::Internal("injected failure after the hash build");
    }
    return Status::OK();
  }
  Status Map(const Row&, const Row&, TaskContext*, OutputCollector*) override {
    return Status::OK();
  }

 private:
  const bool fail_after_build_;
};

storage::TableDesc WriteTinyFact(MrCluster* cluster) {
  storage::TableDesc desc;
  desc.path = "/fact";
  desc.format = storage::kFormatBinaryRow;
  desc.schema = Schema::Make({{"x", TypeKind::kInt64, 8}});
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  for (int i = 0; i < 64; ++i) {
    CLY_CHECK_OK((*writer)->Append(Row({Value(int64_t{i})})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(desc.path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

JobConf HashBuildJob(bool fail_after_build) {
  JobConf conf;
  conf.job_name = "hash-build";
  conf.num_reduce_tasks = 0;
  conf.jvm_reuse = true;
  conf.Set(kConfInputTable, "/fact");
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [fail_after_build] {
    return std::make_unique<HashBuildingMapper>(fail_after_build);
  };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  return conf;
}

TEST(MemTrackerJobTest, FailedJobDrainsEveryTrackerAndClusterRecovers) {
  MrCluster cluster(TinyCluster());
  WriteTinyFact(&cluster);

  // The attempt fails while its node's table still charges the job tracker.
  auto failed = RunJob(&cluster, HashBuildJob(/*fail_after_build=*/true));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected failure"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_GT(cluster.mem_tracker()->peak(), 0) << "the build was charged";
  EXPECT_EQ(cluster.mem_tracker()->consumed(), 0)
      << "the failed job's charges all drained";

  // The cluster is healthy: the same job without the failure runs to
  // completion and also drains to zero.
  auto ok = RunJob(&cluster, HashBuildJob(/*fail_after_build=*/false));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(cluster.mem_tracker()->consumed(), 0);
  EXPECT_GT(cluster.mem_tracker()->peak(), 0);
  // Job counters surface the job trackers' peaks.
  EXPECT_GT(ok->report.counters.Get(kCounterMemJobPeakBytes), 0);
  EXPECT_GT(ok->report.counters.Get(kCounterMemNodePeakBytes), 0);
}

}  // namespace
}  // namespace mr
}  // namespace clydesdale
