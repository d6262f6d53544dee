// Hierarchical memory accounting tests: MemTracker tree semantics
// (consume/release/peak propagation, TryConsume all-or-nothing budget
// enforcement), the RAII consumer/charge adapters, exact-byte accounting
// for the big consumers (DimHashTable, HashAggregator, CIF scan arenas),
// budget-enforced job admission and mid-job breach, and concurrent
// consume/release (the tsan preset includes this file).
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

TEST(MemTrackerTest, TryConsumeEnforcesLimitAllOrNothing) {
  auto root = MemTracker::Create("root");
  auto limited = MemTracker::Create("limited", root, /*limit=*/1000);
  auto child = MemTracker::Create("child", limited);

  ASSERT_TRUE(child->TryConsume(800).ok());
  Status breach = child->TryConsume(300);
  EXPECT_EQ(breach.code(), StatusCode::kResourceExhausted);
  // Rollback: the failed request left no residue anywhere in the chain.
  EXPECT_EQ(child->consumed(), 800);
  EXPECT_EQ(limited->consumed(), 800);
  EXPECT_EQ(root->consumed(), 800);
  // The breach names the limiting tracker, not the asking one.
  EXPECT_NE(breach.message().find("limited"), std::string::npos)
      << breach.ToString();

  // A request that still fits goes through after the rejection.
  EXPECT_TRUE(child->TryConsume(200).ok());
  EXPECT_EQ(limited->consumed(), 1000);
}

TEST(MemTrackerTest, UnlimitedTrackersNeverReject) {
  auto t = MemTracker::Create("t");  // limit 0 = unlimited
  EXPECT_TRUE(t->TryConsume(int64_t{1} << 60).ok());
  t->Release(int64_t{1} << 60);
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

TEST(ScopedMemConsumerTest, TryAddLeavesNothingOnRejection) {
  auto limited = MemTracker::Create("limited", nullptr, /*limit=*/100);
  ScopedMemConsumer consumer(limited);
  ASSERT_TRUE(consumer.TryAdd(90).ok());
  EXPECT_EQ(consumer.TryAdd(20).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(consumer.consumed(), 90);
  EXPECT_EQ(limited->consumed(), 90);
}

TEST(ScopedMemConsumerTest, NullTrackerIsANoOpEverywhere) {
  ScopedMemConsumer consumer;
  consumer.Add(100);
  consumer.SyncTo(50);
  EXPECT_TRUE(consumer.TryAdd(10).ok());
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
        (void)attempt->TryConsume(32);
        attempt->Release(96);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(root->consumed(), 0);
  EXPECT_EQ(node->consumed(), 0);
  EXPECT_GE(root->peak(), 64);
}

TEST(MemTrackerConcurrencyTest, ConcurrentTryConsumeNeverOverCommits) {
  auto limited = MemTracker::Create("limited", nullptr, /*limit=*/1 << 20);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int64_t> granted(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&limited, &granted, i] {
      for (int j = 0; j < 2000; ++j) {
        if (limited->TryConsume(4096).ok()) granted[i] += 4096;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  int64_t total = 0;
  for (int64_t g : granted) total += g;
  EXPECT_LE(total, int64_t{1} << 20) << "grants never exceed the limit";
  EXPECT_EQ(limited->consumed(), total);
  limited->Release(total);
  EXPECT_EQ(limited->consumed(), 0);
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

TEST(DimHashTableMemTest, BudgetBreachAbortsBuildWithNothingConsumed) {
  auto limited = obs::MemTracker::Create("job", nullptr, /*limit=*/64);
  auto stream = DimStream(500);
  auto table =
      DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                          *Predicate::True(), "pk", {"nation"}, limited);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted)
      << table.status().ToString();
  EXPECT_EQ(limited->consumed(), 0) << "failed build leaves no residue";
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
    for (int i = 0; i < 4000; ++i) {
      const Row key({Value(std::string("grp") + std::to_string(i))});
      const int64_t inputs[2] = {i, 1};
      agg.Add(key, inputs);
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

/// Mapper that builds a dimension hash table against the attempt's tracker —
/// the runtime-breach half of budget enforcement.
class HashBuildingMapper final : public Mapper {
 public:
  Status Setup(TaskContext* context) override {
    auto stream = core::DimStream(2000);
    auto table = core::DimHashTable::Build(
        *core::DimSchema(), stream.data(), stream.size(), *Predicate::True(),
        "pk", {"nation"}, context->mem_tracker());
    CLY_RETURN_IF_ERROR(table.status());
    table_ = std::move(*table);
    return Status::OK();
  }
  Status Map(const Row&, const Row&, TaskContext*, OutputCollector*) override {
    return Status::OK();
  }

 private:
  std::shared_ptr<const core::DimHashTable> table_;
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

JobConf HashBuildJob() {
  JobConf conf;
  conf.job_name = "hash-build";
  conf.num_reduce_tasks = 0;
  conf.Set(kConfInputTable, "/fact");
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<HashBuildingMapper>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  return conf;
}

TEST(MemBudgetTest, AdmissionRejectsJobsWhoseEstimateExceedsBudget) {
  MrCluster cluster(TinyCluster());
  WriteTinyFact(&cluster);
  JobConf conf = HashBuildJob();
  conf.mem_budget_bytes = 1000;
  conf.SetInt(kConfMemEstimateBytes, 5000);
  auto result = RunJob(&cluster, conf);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("admission"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(cluster.mem_tracker()->consumed(), 0)
      << "a rejected job never touched cluster memory";
}

TEST(MemBudgetTest, MidJobBreachFailsCleanlyAndClusterRecovers) {
  MrCluster cluster(TinyCluster());
  WriteTinyFact(&cluster);

  // No estimate conf key, so admission passes; the build's TryConsume
  // against the 1 KiB job tracker is what trips.
  JobConf breach = HashBuildJob();
  breach.mem_budget_bytes = 1024;
  auto failed = RunJob(&cluster, breach);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
      << failed.status().ToString();
  EXPECT_EQ(cluster.mem_tracker()->consumed(), 0)
      << "the failed job's charges all drained";

  // The cluster is healthy: the same job without a budget runs to
  // completion and also drains to zero.
  auto ok = RunJob(&cluster, HashBuildJob());
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
