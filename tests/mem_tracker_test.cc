// Hierarchical memory accounting tests: MemTracker tree semantics
// (consume/release/peak propagation), the RAII consumer/charge adapters,
// exact-byte accounting for the big consumers (DimHashTable,
// HashAggregator, CIF scan arenas), a failed job draining every tracker,
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
#include "obs/mem_tracker.h"
#include "storage/binary_row_format.h"
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

TEST(TrackSharedArenaTest, ChargeLivesExactlyAsLongAsTheLastReference) {
  auto t = MemTracker::Create("t");
  auto arena = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(1024, 0xAB));
  auto tracked = TrackSharedArena(arena, t);
  ASSERT_NE(tracked, nullptr);
  EXPECT_EQ(tracked->size(), 1024u);
  EXPECT_EQ(t->consumed(), 1024);

  // A second consumer (a RowBatch outliving the reader) keeps the charge.
  auto second = tracked;
  tracked.reset();
  EXPECT_EQ(t->consumed(), 1024);
  second.reset();
  EXPECT_EQ(t->consumed(), 0) << "last reference drop releases the bytes";
  // The original shared_ptr held by the wrapper does not double-release.
  arena.reset();
  EXPECT_EQ(t->consumed(), 0);
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
  return storage::EncodeRowStream(data);
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
                                   int rows) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatCif;
  desc.schema = Schema::Make(
      {{"id", TypeKind::kInt32, 4}, {"mode", TypeKind::kString, 6}});
  desc.rows_per_split = 256;
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

TEST(ScanArenaMemTest, TrackedBytesAgreeWithScanStatsArenaBytes) {
  MrCluster cluster(TinyCluster());
  const storage::TableDesc desc = WriteCifStrings(&cluster, "/arena", 1000);
  auto splits = storage::ListTableSplits(*cluster.dfs(), desc);
  ASSERT_TRUE(splits.ok());
  ASSERT_FALSE(splits->empty());

  auto tracker = obs::MemTracker::Create("attempt");
  storage::ScanStats stats;
  storage::ScanOptions options;
  // String-only projection: every loaded arena is retained by the batch
  // (zero-copy string views), so the live charge must equal arena_bytes
  // exactly. Numeric arenas are dropped once decoded and release early.
  options.projection = {"mode"};
  options.scan_stats = &stats;
  options.mem_reporter = tracker;
  {
    auto reader = storage::OpenSplitRowReader(*cluster.dfs(), desc,
                                              (*splits)[0], options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_GT(stats.arena_bytes, 0u) << "string columns decode into arenas";
    EXPECT_EQ(tracker->consumed(), static_cast<int64_t>(stats.arena_bytes))
        << "EXPLAIN ANALYZE's arena_bytes and the tracker charge agree";
    Row row;
    int rows = 0;
    while (true) {
      auto more = (*reader)->Next(&row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      ++rows;
    }
    EXPECT_GT(rows, 0);
    EXPECT_EQ(tracker->consumed(), static_cast<int64_t>(stats.arena_bytes))
        << "reading does not change the arena-held footprint";
  }
  EXPECT_EQ(tracker->consumed(), 0)
      << "dropping the reader (the last arena reference) drains the charge";
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
