#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "core/clydesdale.h"
#include "core/dim_table_cache.h"
#include "mapreduce/counters.h"
#include "serving/query_server.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/reference_executor.h"
#include "storage/cif.h"

namespace clydesdale {
namespace {

// ---------------------------------------------------------------------------
// DimTableCache unit tests (no cluster)
// ---------------------------------------------------------------------------

SchemaPtr CacheDimSchema() {
  return Schema::Make({{"pk", TypeKind::kInt32, 4},
                       {"nation", TypeKind::kString, 10}});
}

std::vector<uint8_t> CacheDimStream(int rows) {
  std::vector<Row> data;
  for (int i = 1; i <= rows; ++i) {
    data.push_back(Row(
        {Value(int32_t{i}), Value(std::string("n") + std::to_string(i % 7))}));
  }
  return storage::EncodeColumnImage(CacheDimSchema(), data);
}

/// Builder over an in-memory stream that counts real invocations.
core::DimTableCache::Builder CountingBuilder(
    const std::vector<uint8_t>* stream, std::atomic<int>* builds,
    int sleep_ms = 0) {
  return [stream, builds, sleep_ms](
             const std::shared_ptr<obs::MemTracker>& tracker)
             -> Result<std::shared_ptr<const core::DimHashTable>> {
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    builds->fetch_add(1);
    return core::DimHashTable::Build(*CacheDimSchema(), stream->data(),
                                     stream->size(), *Predicate::True(), "pk",
                                     {"nation"}, tracker);
  };
}

core::DimCacheKey KeyFor(const std::string& path, int64_t version = 1,
                         uint64_t fingerprint = 42) {
  return core::DimCacheKey{path, version, fingerprint};
}

TEST(DimTableCacheTest, FingerprintSeparatesPredicatesKeysAndAux) {
  const auto base = core::FilterFingerprint(
      *Predicate::Eq("region", Value("ASIA")), "pk", {"nation"});
  EXPECT_EQ(base, core::FilterFingerprint(*Predicate::Eq("region",
                                                         Value("ASIA")),
                                          "pk", {"nation"}));
  EXPECT_NE(base, core::FilterFingerprint(*Predicate::Eq("region",
                                                         Value("EUROPE")),
                                          "pk", {"nation"}));
  EXPECT_NE(base, core::FilterFingerprint(*Predicate::Eq("region",
                                                         Value("ASIA")),
                                          "pk2", {"nation"}));
  EXPECT_NE(base, core::FilterFingerprint(*Predicate::Eq("region",
                                                         Value("ASIA")),
                                          "pk", {}));
}

TEST(DimTableCacheTest, SecondLookupIsAHit) {
  auto stream = CacheDimStream(50);
  std::atomic<int> builds{0};
  core::DimTableCache cache({});
  bool hit = true;
  auto first = cache.GetOrBuild(KeyFor("/d"), CountingBuilder(&stream, &builds),
                                &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = cache.GetOrBuild(KeyFor("/d"),
                                 CountingBuilder(&stream, &builds), &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get()) << "one shared table";
  EXPECT_EQ(builds.load(), 1);
  const core::DimTableCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.resident_bytes,
            static_cast<int64_t>((*first)->stats().memory_bytes));
}

TEST(DimTableCacheTest, SingleFlightConcurrentLookupsBuildOnce) {
  auto stream = CacheDimStream(200);
  std::atomic<int> builds{0};
  core::DimTableCache cache({});
  const auto builder = CountingBuilder(&stream, &builds, /*sleep_ms=*/20);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::DimHashTable>> tables(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto table = cache.GetOrBuild(KeyFor("/d"), builder);
      ASSERT_TRUE(table.ok());
      tables[static_cast<size_t>(i)] = *table;
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1) << "the build must be single-flighted";
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(tables[0].get(), tables[static_cast<size_t>(i)].get());
  }
  const core::DimTableCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST(DimTableCacheTest, EvictionFreesBytesOnlyAtLastRefDrop) {
  auto stream = CacheDimStream(100);
  // Measure one table's footprint, then size the cache so a single table
  // fits but two do not.
  auto probe = core::DimHashTable::Build(*CacheDimSchema(), stream.data(),
                                         stream.size(), *Predicate::True(),
                                         "pk", {"nation"});
  ASSERT_TRUE(probe.ok());
  const int64_t bytes = static_cast<int64_t>((*probe)->stats().memory_bytes);
  ASSERT_GT(bytes, 0);

  auto root = obs::MemTracker::Create("test-root");
  std::atomic<int> builds{0};
  core::DimTableCache cache(
      {.capacity_bytes = static_cast<uint64_t>(bytes) * 3 / 2}, root);

  auto a = cache.GetOrBuild(KeyFor("/a"), CountingBuilder(&stream, &builds));
  ASSERT_TRUE(a.ok());
  // Move the table out of the Result so `held` is the only live reference.
  std::shared_ptr<const core::DimHashTable> held = std::move(*a);
  auto b = cache.GetOrBuild(KeyFor("/b"), CountingBuilder(&stream, &builds));
  ASSERT_TRUE(b.ok());

  // Inserting B pushed the ledger over capacity: A (LRU tail) was evicted.
  const core::DimTableCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.resident_bytes, bytes);

  // But the real bytes stay charged while this query still holds the table.
  EXPECT_EQ(root->consumed(), 2 * bytes)
      << "eviction must not free memory a running query is probing";
  held.reset();  // last reference drops -> ScopedMemConsumer releases
  EXPECT_EQ(root->consumed(), bytes);

  // The evicted key rebuilds on next use.
  auto again = cache.GetOrBuild(KeyFor("/a"), CountingBuilder(&stream,
                                                              &builds));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(builds.load(), 3);
}

TEST(DimTableCacheTest, EvictionNeverDropsTheEntryBeingReturned) {
  auto stream = CacheDimStream(100);
  auto probe = core::DimHashTable::Build(*CacheDimSchema(), stream.data(),
                                         stream.size(), *Predicate::True(),
                                         "pk", {"nation"});
  ASSERT_TRUE(probe.ok());
  const uint64_t bytes = (*probe)->stats().memory_bytes;
  std::atomic<int> builds{0};
  // Capacity below a single table: the fresh entry must survive anyway so
  // the caller can probe it; it just stays the only (oversized) resident.
  core::DimTableCache cache({.capacity_bytes = bytes / 2});
  auto a = cache.GetOrBuild(KeyFor("/a"), CountingBuilder(&stream, &builds));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.stats().entries, 1);
  auto b = cache.GetOrBuild(KeyFor("/b"), CountingBuilder(&stream, &builds));
  ASSERT_TRUE(b.ok());
  const core::DimTableCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1) << "A evicted, B kept";
  EXPECT_EQ(stats.evictions, 1);
}

TEST(DimTableCacheTest, InvalidateDropsEveryVersionOfThePath) {
  auto stream = CacheDimStream(30);
  std::atomic<int> builds{0};
  core::DimTableCache cache({});
  ASSERT_TRUE(
      cache.GetOrBuild(KeyFor("/p", 1, 1), CountingBuilder(&stream, &builds))
          .ok());
  ASSERT_TRUE(
      cache.GetOrBuild(KeyFor("/p", 1, 2), CountingBuilder(&stream, &builds))
          .ok());
  ASSERT_TRUE(
      cache.GetOrBuild(KeyFor("/q", 1, 1), CountingBuilder(&stream, &builds))
          .ok());
  EXPECT_EQ(cache.stats().entries, 3);

  cache.Invalidate("/p");
  EXPECT_EQ(cache.stats().entries, 1) << "/q survives";

  bool hit = true;
  ASSERT_TRUE(cache.GetOrBuild(KeyFor("/p", 1, 1),
                               CountingBuilder(&stream, &builds), &hit)
                  .ok());
  EXPECT_FALSE(hit) << "invalidated entries rebuild";
  EXPECT_EQ(builds.load(), 4);
}

TEST(DimTableCacheTest, InvalidateDuringBuildKeepsResultOutOfTheCache) {
  auto stream = CacheDimStream(30);
  std::atomic<int> builds{0};
  std::atomic<bool> building{false};
  std::atomic<bool> release{false};
  core::DimTableCache cache({});

  // Builder parks until the main thread has invalidated the path mid-build.
  const core::DimTableCache::Builder builder =
      [&](const std::shared_ptr<obs::MemTracker>& tracker)
      -> Result<std::shared_ptr<const core::DimHashTable>> {
    building = true;
    while (!release) std::this_thread::yield();
    builds.fetch_add(1);
    return core::DimHashTable::Build(*CacheDimSchema(), stream.data(),
                                     stream.size(), *Predicate::True(), "pk",
                                     {"nation"}, tracker);
  };

  std::thread leader([&] {
    auto table = cache.GetOrBuild(KeyFor("/p"), builder);
    ASSERT_TRUE(table.ok()) << "the leader still gets its table";
    EXPECT_GT((*table)->entries(), 0u);
  });
  while (!building) std::this_thread::yield();
  cache.Invalidate("/p");  // the table under construction is already stale
  release = true;
  leader.join();

  EXPECT_EQ(cache.stats().entries, 0)
      << "a build overtaken by invalidation must not become resident";
  bool hit = true;
  release = true;
  ASSERT_TRUE(
      cache.GetOrBuild(KeyFor("/p"), CountingBuilder(&stream, &builds), &hit)
          .ok());
  EXPECT_FALSE(hit);
}

TEST(DimTableCacheTest, FailedBuildPropagatesAndRetries) {
  auto stream = CacheDimStream(30);
  std::atomic<int> builds{0};
  core::DimTableCache cache({});
  const core::DimTableCache::Builder failing =
      [](const std::shared_ptr<obs::MemTracker>&)
      -> Result<std::shared_ptr<const core::DimHashTable>> {
    return Status::IoError("replica unreadable");
  };
  auto failed = cache.GetOrBuild(KeyFor("/p"), failing);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

  // The failure is not cached: the next query retries and succeeds.
  bool hit = true;
  auto retried = cache.GetOrBuild(KeyFor("/p"),
                                  CountingBuilder(&stream, &builds), &hit);
  ASSERT_TRUE(retried.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(builds.load(), 1);
}

// ---------------------------------------------------------------------------
// QueryServer integration tests (shared loaded cluster)
// ---------------------------------------------------------------------------

class ServingTest : public ::testing::Test {
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
          << label << " row " << i << ": expected " << expected[i].ToString()
          << " got " << actual[i].ToString();
    }
  }

  static mr::MrCluster* cluster_;
  static ssb::SsbDataset* dataset_;
};

mr::MrCluster* ServingTest::cluster_ = nullptr;
ssb::SsbDataset* ServingTest::dataset_ = nullptr;

TEST_F(ServingTest, ColdCacheMatchesPerQueryEngineOnAllShapes) {
  serving::QueryServerOptions options;
  options.result_cache_entries = 0;  // isolate the dim cache
  serving::QueryServer server(cluster_, dataset_->star, options);
  core::ClydesdaleEngine direct(cluster_, dataset_->star, {});

  for (const core::StarQuerySpec& spec : ssb::AllQueries()) {
    server.InvalidateAll();  // every query runs cache-cold
    auto served = server.Execute(spec);
    ASSERT_TRUE(served.ok()) << spec.id << ": " << served.status().ToString();
    auto standalone = direct.Execute(spec);
    ASSERT_TRUE(standalone.ok()) << spec.id;
    ExpectRowsEqual(standalone->rows, served->rows, "cold " + spec.id);
    EXPECT_FALSE(served->from_result_cache);
    EXPECT_GT(served->Counter(mr::kCounterCacheDimMisses), 0) << spec.id;
  }
  EXPECT_EQ(server.stats().queries, 13);
}

TEST_F(ServingTest, WarmRepeatIsProbeOnly) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  serving::QueryServerOptions options;
  options.result_cache_entries = 0;  // force re-execution, not replay
  serving::QueryServer server(cluster_, dataset_->star, options);

  auto cold = server.Execute(*spec);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->Counter(core::kCounterHashBuilds), 0);
  EXPECT_GT(cold->Counter(mr::kCounterCacheDimMisses), 0);

  auto warm = server.Execute(*spec);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectRowsEqual(Reference(*spec), warm->rows, "warm Q2.1");
  EXPECT_EQ(warm->Counter(core::kCounterHashBuilds), 0)
      << "a cache-warm query must not rebuild any dimension table";
  EXPECT_EQ(warm->Counter(mr::kCounterCacheDimMisses), 0);
  EXPECT_GT(warm->Counter(mr::kCounterCacheDimHits), 0);
  EXPECT_GT(warm->Counter(mr::kCounterCacheBytes), 0);
  EXPECT_FALSE(warm->from_result_cache) << "the dim cache, not a replay";
}

TEST_F(ServingTest, ResultCacheServesExactRepeats) {
  auto spec = ssb::QueryById("Q3.2");
  ASSERT_TRUE(spec.ok());
  serving::QueryServer server(cluster_, dataset_->star, {});

  auto first = server.Execute(*spec);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_result_cache);
  auto repeat = server.Execute(*spec);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_result_cache) << "exact repeat, no job";
  ExpectRowsEqual(first->rows, repeat->rows, "result-cache Q3.2");

  const serving::QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.result_cache_hits, 1);
}

TEST_F(ServingTest, ExplicitInvalidateForcesRebuildAndBumpsVersion) {
  auto spec = ssb::QueryById("Q2.1");
  ASSERT_TRUE(spec.ok());
  serving::QueryServer server(cluster_, dataset_->star, {});
  ASSERT_TRUE(server.Execute(*spec).ok());

  const auto part = dataset_->star.dim("part");
  ASSERT_TRUE(part.ok());
  const std::string path = (*part)->desc.path;
  const int64_t version_before = cluster_->table_version(path);
  server.Invalidate(path);
  EXPECT_EQ(cluster_->table_version(path), version_before + 1);

  auto after = server.Execute(*spec);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->from_result_cache)
      << "invalidation empties the result cache";
  EXPECT_GT(after->Counter(mr::kCounterCacheDimMisses), 0)
      << "the invalidated dimension rebuilds under its new version";
  ExpectRowsEqual(Reference(*spec), after->rows, "post-invalidate Q2.1");
}

TEST_F(ServingTest, ConcurrentClientsShareOneCache) {
  serving::QueryServerOptions options;
  options.result_cache_entries = 0;  // every query really executes
  serving::QueryServer server(cluster_, dataset_->star, options);

  const char* ids[] = {"Q1.1", "Q2.1", "Q3.1", "Q2.1", "Q1.1", "Q3.1",
                       "Q2.1", "Q3.1", "Q1.1", "Q2.1", "Q3.1", "Q1.1"};
  std::vector<core::StarQuerySpec> specs;
  for (const char* id : ids) {
    auto spec = ssb::QueryById(id);
    ASSERT_TRUE(spec.ok());
    specs.push_back(std::move(*spec));
  }
  // Four client threads, each executing every fourth query of the stream.
  constexpr size_t kClients = 4;
  std::vector<std::optional<Result<core::QueryResult>>> results(specs.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < specs.size(); i += kClients) {
        results[i].emplace(server.Execute(specs[i]));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << ids[i];
    const Result<core::QueryResult>& result = *results[i];
    ASSERT_TRUE(result.ok()) << ids[i] << ": " << result.status().ToString();
    ExpectRowsEqual(Reference(specs[i]), result->rows,
                    std::string("concurrent ") + ids[i]);
  }

  const serving::QueryServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, static_cast<int64_t>(std::size(ids)));
  EXPECT_GT(stats.dim_cache.hits, 0) << "repeats must share built tables";
  EXPECT_GT(stats.dim_cache.resident_bytes, 0);
  EXPECT_GT(stats.dim_cache.entries, 0);
}

// ---------------------------------------------------------------------------
// Reload mid-stream (own cluster: the reload rewrites the shared tables)
// ---------------------------------------------------------------------------

TEST(ServingReloadTest, ReloadMidStreamNeverProbesStaleEntries) {
  mr::ClusterOptions copts;
  copts.num_nodes = 2;
  copts.map_slots_per_node = 2;
  copts.dfs_block_size = 256 * 1024;
  mr::MrCluster cluster(copts);

  ssb::SsbLoadOptions load;
  load.scale_factor = 0.002;
  load.seed = 7;
  auto first_load = ssb::LoadSsb(&cluster, load);
  ASSERT_TRUE(first_load.ok());

  auto spec = ssb::QueryById("Q3.2");
  ASSERT_TRUE(spec.ok());
  serving::QueryServer server(&cluster, first_load->star, {});
  auto warm = server.Execute(*spec);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(server.Execute(*spec).ok());  // result cache primed too

  // Reload the dataset in place with different contents (new seed): delete
  // every table, regenerate under the same paths. The loader's
  // InvalidateTable calls bump each path's catalog version.
  for (const auto& [name, dim] : first_load->star.dims()) {
    ASSERT_TRUE(cluster.dfs()->DeleteRecursive(dim.desc.path).ok()) << name;
  }
  ASSERT_TRUE(
      cluster.dfs()->DeleteRecursive(first_load->star.fact().path).ok());
  load.seed = 99;
  auto second_load = ssb::LoadSsb(&cluster, load);
  ASSERT_TRUE(second_load.ok());

  // The post-reload query must see only new data: byte-identical to a cold
  // per-query engine over the reloaded tables, never the stale cache.
  auto after = server.Execute(*spec);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->from_result_cache)
      << "versions in the result-cache key make stale replays unreachable";
  EXPECT_GT(after->Counter(mr::kCounterCacheDimMisses), 0)
      << "reloaded dimensions rebuild under their bumped versions";

  core::ClydesdaleEngine cold(&cluster, second_load->star, {});
  auto expected = cold.Execute(*spec);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->rows.size(), after->rows.size());
  for (size_t i = 0; i < expected->rows.size(); ++i) {
    ASSERT_EQ(expected->rows[i], after->rows[i]) << "row " << i;
  }

  auto reference = ssb::ExecuteReference(&cluster, second_load->star, *spec);
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->size(), after->rows.size());
  for (size_t i = 0; i < reference->size(); ++i) {
    ASSERT_EQ((*reference)[i], after->rows[i]) << "row " << i;
  }
}

}  // namespace
}  // namespace clydesdale
