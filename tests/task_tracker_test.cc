#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "mapreduce/engine.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_trace.h"
#include "mapreduce/task_attempt.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace mr {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions options;
  options.num_nodes = 3;
  options.map_slots_per_node = 2;
  options.dfs_block_size = 1024;
  options.dfs_replication = 2;
  return options;
}

storage::TableDesc WriteWordTable(MrCluster* cluster, int rows) {
  storage::TableDesc desc;
  desc.path = "/words";
  desc.format = storage::kFormatBinaryRow;
  desc.schema = Schema::Make(
      {{"word", TypeKind::kString, 8}, {"n", TypeKind::kInt64, 8}});
  auto writer = storage::OpenTableWriter(cluster->dfs(), desc);
  CLY_CHECK(writer.ok());
  const char* vocab[] = {"ant", "bee", "cat", "dog", "eel", "fox"};
  for (int i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(
        Row({Value(vocab[i % 6]), Value(int64_t{1})})));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = cluster->GetTable(desc.path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

class WordCountMapper final : public Mapper {
 public:
  /// Optional per-task delay: stretches the map phase so pipelined reducers
  /// demonstrably fetch while maps are still running.
  explicit WordCountMapper(int setup_sleep_ms = 0)
      : setup_sleep_ms_(setup_sleep_ms) {}

  Status Setup(TaskContext*) override {
    if (setup_sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(setup_sleep_ms_));
    }
    return Status::OK();
  }
  Status Map(const Row& key, const Row& value, TaskContext*,
             OutputCollector* out) override {
    (void)key;
    return out->Collect(Row({value.Get(0)}), Row({value.Get(1)}));
  }

 private:
  int setup_sleep_ms_;
};

class SumCountsReducer final : public Reducer {
 public:
  Status Reduce(const Row& key, const std::vector<Row>& values, TaskContext*,
                OutputCollector* out) override {
    int64_t total = 0;
    for (const Row& v : values) total += v.Get(0).i64();
    return out->Collect(key, Row({Value(total)}));
  }
};

JobConf WordCountJob(const std::string& table, int reduces) {
  JobConf conf;
  conf.job_name = "wordcount";
  conf.num_reduce_tasks = reduces;
  conf.Set(kConfInputTable, table);
  conf.input_format_factory = [] {
    return std::make_unique<TableInputFormat>();
  };
  conf.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  conf.reducer_factory = [] { return std::make_unique<SumCountsReducer>(); };
  conf.output_format_factory = [] {
    return std::make_unique<MemoryOutputFormat>();
  };
  return conf;
}

// ---------------------------------------------------------------------------
// TaskAttempt state machine
// ---------------------------------------------------------------------------

TEST(TaskAttemptTest, HappyPathTransitions) {
  TaskAttempt attempt(3, 0, /*is_map=*/true);
  EXPECT_EQ(attempt.state(), AttemptState::kQueued);
  EXPECT_FALSE(attempt.terminal());
  EXPECT_EQ(attempt.Label(), "m-3.0");

  ASSERT_TRUE(attempt.Transition(AttemptState::kRunning).ok());
  EXPECT_EQ(attempt.state(), AttemptState::kRunning);
  ASSERT_TRUE(attempt.Transition(AttemptState::kSucceeded).ok());
  EXPECT_TRUE(attempt.terminal());
}

TEST(TaskAttemptTest, FailureEdges) {
  // running -> failed (task code errored).
  TaskAttempt ran(0, 0, /*is_map=*/true);
  ASSERT_TRUE(ran.Transition(AttemptState::kRunning).ok());
  ASSERT_TRUE(ran.Transition(AttemptState::kFailed).ok());
  EXPECT_TRUE(ran.terminal());

  // queued -> failed (killed before launch on job abort).
  TaskAttempt killed(1, 2, /*is_map=*/false);
  EXPECT_EQ(killed.Label(), "r-1.2");
  ASSERT_TRUE(killed.Transition(AttemptState::kFailed).ok());
  EXPECT_TRUE(killed.terminal());
}

TEST(TaskAttemptTest, InvalidTransitionsRejected) {
  TaskAttempt attempt(0, 0, /*is_map=*/true);
  // Can't succeed without running.
  EXPECT_EQ(attempt.Transition(AttemptState::kSucceeded).code(),
            StatusCode::kInternal);
  ASSERT_TRUE(attempt.Transition(AttemptState::kRunning).ok());
  // Can't go back to queued.
  EXPECT_EQ(attempt.Transition(AttemptState::kQueued).code(),
            StatusCode::kInternal);
  ASSERT_TRUE(attempt.Transition(AttemptState::kSucceeded).ok());
  // Terminal states accept nothing.
  for (AttemptState next :
       {AttemptState::kQueued, AttemptState::kRunning, AttemptState::kFailed,
        AttemptState::kSucceeded}) {
    EXPECT_EQ(attempt.Transition(next).code(), StatusCode::kInternal);
  }
}

// ---------------------------------------------------------------------------
// Pull-based executor end to end
// ---------------------------------------------------------------------------

TEST(TaskTrackerTest, SchedPullsAndLocalityCountersCoverEveryAttempt) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 400);
  auto result = RunJob(&cluster, WordCountJob("/words", 2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto maps = static_cast<int64_t>(result->report.map_tasks.size());
  const auto reduces = static_cast<int64_t>(result->report.reduce_tasks.size());
  const Counters& counters = result->report.counters;
  // One pull per launched attempt (no retries yet: attempts == tasks).
  EXPECT_EQ(counters.Get(kCounterSchedPulls), maps + reduces);
  // Every map was placed either data-local or rack-remote at pull time.
  EXPECT_EQ(counters.Get(kCounterDataLocalMaps) +
                counters.Get(kCounterRackRemoteMaps),
            maps);
  for (const TaskReport& t : result->report.map_tasks) {
    EXPECT_EQ(t.attempt, 0);
  }
}

TEST(TaskTrackerTest, ShuffleScratchIsGarbageCollectedAfterCommit) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 300);
  ASSERT_TRUE(cluster.dfs()->WriteFile("/cache/gc-probe", "payload").ok());
  JobConf conf = WordCountJob("/words", 3);
  conf.distributed_cache.push_back("/cache/gc-probe");
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Shuffle runs live only in memory; the dcache copies are the job's only
  // local-disk scratch, and commit-time GC must leave every node's
  // LocalStore empty.
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.local_store(n)->file_count(), 0u) << "node " << n;
  }
}

TEST(TaskTrackerTest, MapOnlyOutputCountsAreExactUnderConcurrentMaps) {
  // Slow maps on every slot at once: each attempt's output counts must be
  // its own, not whatever its neighbours wrote to the shared OutputFormat
  // while it ran.
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 600);
  JobConf conf = WordCountJob("/words", 0);
  conf.reducer_factory = nullptr;
  conf.mapper_factory = [] {
    class SlowIdentityMapper final : public Mapper {
     public:
      Status Map(const Row& key, const Row& value, TaskContext*,
                 OutputCollector* out) override {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return out->Collect(key, value);
      }
    };
    return std::make_unique<SlowIdentityMapper>();
  };
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->report.map_tasks.size(),
            static_cast<size_t>(cluster.options().map_slots_per_node))
      << "test needs concurrent map attempts";
  ASSERT_EQ(result->output_rows.size(), 600u);
  uint64_t task_records = 0;
  for (const TaskReport& task : result->report.map_tasks) {
    task_records += task.output_records;
  }
  EXPECT_EQ(task_records, 600u);
  EXPECT_EQ(result->report.counters.Get(kCounterMapOutputRecords), 600);
}

TEST(TaskTrackerTest, FailingMapAbortsPipelinedJobWithoutHanging) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 300);
  JobConf conf = WordCountJob("/words", 2);
  conf.mapper_factory = [] {
    class FailingMapper final : public Mapper {
     public:
      Status Map(const Row&, const Row&, TaskContext*,
                 OutputCollector*) override {
        return Status::Internal("injected map failure");
      }
    };
    return std::make_unique<FailingMapper>();
  };
  // Reducers are already blocked waiting for runs when the failure lands;
  // the abort must close the shuffle and unwind them (a hang here means the
  // producers were never closed).
  auto result = RunJob(&cluster, conf);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("injected map failure"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("map task"), std::string::npos)
      << result.status().ToString();
  // The failed job's scratch is GCed on the error path too.
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.local_store(n)->file_count(), 0u) << "node " << n;
  }
}

TEST(TaskTrackerTest, FailingReduceReportsReduceTaskContext) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 100);
  JobConf conf = WordCountJob("/words", 1);
  conf.reducer_factory = [] {
    class FailingReducer final : public Reducer {
     public:
      Status Reduce(const Row&, const std::vector<Row>&, TaskContext*,
                    OutputCollector*) override {
        return Status::Internal("injected reduce failure");
      }
    };
    return std::make_unique<FailingReducer>();
  };
  auto result = RunJob(&cluster, conf);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("reduce task"), std::string::npos)
      << result.status().ToString();
}

TEST(TaskTrackerTest, PipelinedReducersFetchWhileMapsStillRun) {
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 600);
  JobConf conf = WordCountJob("/words", 2);
  conf.SetBool(kConfTraceEnabled, true);
  // Slow maps in several waves: early runs are published (and fetched) while
  // later waves are still occupying the map slots.
  conf.mapper_factory = [] { return std::make_unique<WordCountMapper>(15); };
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const int total_map_slots =
      cluster.num_nodes() * cluster.options().map_slots_per_node;
  ASSERT_GT(result->report.map_tasks.size(),
            static_cast<size_t>(total_map_slots))
      << "test needs multiple map waves to demonstrate overlap";

  int64_t last_map_end = 0;
  int64_t first_fetch = -1;
  bool saw_overlap_span = false;
  for (const obs::SpanRecord& span : result->report.spans) {
    if (span.name == "map-task") {
      last_map_end = std::max(last_map_end, span.end_us());
    } else if (span.name == "shuffle-fetch") {
      if (first_fetch < 0 || span.start_us < first_fetch) {
        first_fetch = span.start_us;
      }
    } else if (span.name == "shuffle-overlap") {
      saw_overlap_span = true;
    }
  }
  ASSERT_GE(first_fetch, 0) << "no shuffle-fetch spans recorded";
  EXPECT_LT(first_fetch, last_map_end)
      << "first reducer fetch should start before the last map task ends";
  EXPECT_TRUE(saw_overlap_span);
  EXPECT_GT(CriticalPath(result->report).shuffle_overlap_seconds, 0);
}

TEST(TaskTrackerTest, ReduceCodeRunsUnderTaskLogContext) {
  // Every reduce attempt (and its pipelined fetch loop) runs under the same
  // ambient ScopedLogContext trackers set for maps: "job/r-N@nodeM". User
  // reducer code observes it via LogContext(), so any CLY_LOG line inside a
  // reducer is attributable to its attempt without manual tagging.
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 300);
  JobConf conf = WordCountJob("/words", 2);
  auto contexts = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  conf.reducer_factory = [contexts, mu] {
    class ContextCapturingReducer final : public Reducer {
     public:
      ContextCapturingReducer(std::shared_ptr<std::vector<std::string>> out,
                              std::shared_ptr<std::mutex> mu)
          : out_(std::move(out)), mu_(std::move(mu)) {}
      Status Reduce(const Row& key, const std::vector<Row>& values,
                    TaskContext*, OutputCollector* out) override {
        {
          std::lock_guard<std::mutex> lock(*mu_);
          out_->push_back(LogContext());
        }
        int64_t total = 0;
        for (const Row& v : values) total += v.Get(0).i64();
        return out->Collect(key, Row({Value(total)}));
      }

     private:
      std::shared_ptr<std::vector<std::string>> out_;
      std::shared_ptr<std::mutex> mu_;
    };
    return std::make_unique<ContextCapturingReducer>(contexts, mu);
  };
  auto result = RunJob(&cluster, conf);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(contexts->empty());
  for (const std::string& context : *contexts) {
    EXPECT_EQ(context.find("wordcount/r-"), 0u) << context;
    EXPECT_NE(context.find("@node"), std::string::npos) << context;
  }
}

TEST(TaskTrackerTest, BackToBackJobsReuseThePersistentTrackers) {
  // The tracker pool is cluster-owned: many jobs against one cluster must
  // come and go without respawning workers or leaking queued state.
  MrCluster cluster(SmallCluster());
  WriteWordTable(&cluster, 200);
  std::map<std::string, int64_t> first;
  for (int run = 0; run < 4; ++run) {
    auto result = RunJob(&cluster, WordCountJob("/words", 2));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::map<std::string, int64_t> counts;
    for (const Row& row : result->output_rows) {
      counts[row.Get(0).str()] = row.Get(1).i64();
    }
    if (run == 0) {
      first = counts;
    } else {
      EXPECT_EQ(counts, first) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace mr
}  // namespace clydesdale
