#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hdfs/dfs.h"
#include "hdfs/local_store.h"

namespace clydesdale {
namespace hdfs {
namespace {

DfsOptions SmallDfs(int nodes = 4, uint64_t block = 1024, int repl = 3) {
  DfsOptions options;
  options.num_nodes = nodes;
  options.block_size = block;
  options.replication = repl;
  return options;
}

std::string Bytes(size_t n, char fill = 'x') { return std::string(n, fill); }

TEST(DfsTest, WriteReadRoundTrip) {
  MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.WriteFile("/a/b.txt", "hello world").ok());
  auto contents = dfs.ReadFileToString("/a/b.txt");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello world");
}

TEST(DfsTest, CreateRejectsDuplicateAndBadPaths) {
  MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.WriteFile("/f", "x").ok());
  EXPECT_EQ(dfs.WriteFile("/f", "y").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dfs.WriteFile("relative", "y").code(),
            StatusCode::kInvalidArgument);
}

TEST(DfsTest, OpenMissingFileFails) {
  MiniDfs dfs(SmallDfs());
  EXPECT_TRUE(dfs.Open("/nope").status().IsNotFound());
}

TEST(DfsTest, MultiBlockFileSplitsAtBlockSize) {
  MiniDfs dfs(SmallDfs(4, 1024));
  ASSERT_TRUE(dfs.WriteFile("/big", Bytes(2500)).ok());
  auto info = dfs.Stat("/big");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->length, 2500u);
  ASSERT_EQ((*info)->blocks.size(), 3u);
  EXPECT_EQ((*info)->blocks[0].length, 1024u);
  EXPECT_EQ((*info)->blocks[2].length, 452u);
}

TEST(DfsTest, ReplicationFactorHonored) {
  MiniDfs dfs(SmallDfs(5, 1024, 3));
  ASSERT_TRUE(dfs.WriteFile("/r", Bytes(100)).ok());
  auto info = dfs.Stat("/r");
  ASSERT_TRUE(info.ok());
  ASSERT_EQ((*info)->blocks.size(), 1u);
  EXPECT_EQ((*info)->blocks[0].replicas.size(), 3u);
  std::set<NodeId> distinct((*info)->blocks[0].replicas.begin(),
                            (*info)->blocks[0].replicas.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(DfsTest, ReplicationCappedByClusterSize) {
  MiniDfs dfs(SmallDfs(2, 1024, 3));
  ASSERT_TRUE(dfs.WriteFile("/r", Bytes(10)).ok());
  auto info = dfs.Stat("/r");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->blocks[0].replicas.size(), 2u);
}

TEST(DfsTest, PReadAcrossBlockBoundary) {
  MiniDfs dfs(SmallDfs(4, 16));
  std::string data = "0123456789abcdefghijklmnop";
  ASSERT_TRUE(dfs.WriteFile("/d", data).ok());
  auto reader = dfs.Open("/d");
  ASSERT_TRUE(reader.ok());
  char buf[10];
  ASSERT_TRUE((*reader)->PRead(12, buf, 8).ok());
  EXPECT_EQ(std::string(buf, 8), data.substr(12, 8));
  EXPECT_FALSE((*reader)->PRead(20, buf, 10).ok());  // past EOF
}

TEST(DfsTest, SequentialReadAndSeek) {
  MiniDfs dfs(SmallDfs(4, 8));
  ASSERT_TRUE(dfs.WriteFile("/d", "abcdefghij").ok());
  auto reader = dfs.Open("/d");
  ASSERT_TRUE(reader.ok());
  char buf[4];
  auto n = (*reader)->Read(buf, 4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(std::string(buf, 4), "abcd");
  ASSERT_TRUE((*reader)->Seek(8).ok());
  n = (*reader)->Read(buf, 4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);  // only 2 bytes left
  EXPECT_EQ(std::string(buf, 2), "ij");
  n = (*reader)->Read(buf, 4);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);  // EOF
}

TEST(DfsTest, IoStatsAttributeLocality) {
  MiniDfs dfs(SmallDfs(4, 1024, 2));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(100)).ok());
  auto info = dfs.Stat("/d");
  ASSERT_TRUE(info.ok());
  const NodeId holder = (*info)->blocks[0].replicas[0];
  NodeId outsider = 0;
  while (std::find((*info)->blocks[0].replicas.begin(),
                   (*info)->blocks[0].replicas.end(),
                   outsider) != (*info)->blocks[0].replicas.end()) {
    ++outsider;
  }

  IoStats local_stats;
  auto local_reader = dfs.Open("/d", holder, &local_stats);
  ASSERT_TRUE(local_reader.ok());
  char buf[100];
  ASSERT_TRUE((*local_reader)->PRead(0, buf, 100).ok());
  EXPECT_EQ(local_stats.local_bytes_read, 100u);
  EXPECT_EQ(local_stats.remote_bytes_read, 0u);

  IoStats remote_stats;
  auto remote_reader = dfs.Open("/d", outsider, &remote_stats);
  ASSERT_TRUE(remote_reader.ok());
  ASSERT_TRUE((*remote_reader)->PRead(0, buf, 100).ok());
  EXPECT_EQ(remote_stats.local_bytes_read, 0u);
  EXPECT_EQ(remote_stats.remote_bytes_read, 100u);
}

TEST(DfsTest, WriteAccountingCountsReplicas) {
  MiniDfs dfs(SmallDfs(4, 1024, 3));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(100)).ok());
  EXPECT_EQ(dfs.TotalIo().bytes_written, 300u);
}

TEST(DfsTest, DeleteRemovesReplicas) {
  MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(100)).ok());
  ASSERT_TRUE(dfs.Delete("/d").ok());
  EXPECT_FALSE(dfs.Exists("/d"));
  uint64_t stored = 0;
  for (int n = 0; n < dfs.num_nodes(); ++n) {
    stored += dfs.data_node(n)->StoredBytes();
  }
  EXPECT_EQ(stored, 0u);
}

TEST(DfsTest, ListByPrefix) {
  MiniDfs dfs(SmallDfs());
  ASSERT_TRUE(dfs.WriteFile("/t/a", "1").ok());
  ASSERT_TRUE(dfs.WriteFile("/t/b", "2").ok());
  ASSERT_TRUE(dfs.WriteFile("/u/c", "3").ok());
  EXPECT_EQ(dfs.List("/t/"), (std::vector<std::string>{"/t/a", "/t/b"}));
  auto removed = dfs.DeleteRecursive("/t/");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2);
  EXPECT_TRUE(dfs.List("/t/").empty());
}

TEST(DfsTest, KilledNodeFallsBackToSurvivingReplica) {
  MiniDfs dfs(SmallDfs(4, 1024, 2));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(64, 'z')).ok());
  auto info = dfs.Stat("/d");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(dfs.KillDataNode((*info)->blocks[0].replicas[0]).ok());
  auto contents = dfs.ReadFileToString("/d");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, Bytes(64, 'z'));
}

TEST(DfsTest, AllReplicasLostIsAnError) {
  MiniDfs dfs(SmallDfs(4, 1024, 2));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(64)).ok());
  auto info = dfs.Stat("/d");
  ASSERT_TRUE(info.ok());
  for (NodeId n : (*info)->blocks[0].replicas) {
    ASSERT_TRUE(dfs.KillDataNode(n).ok());
  }
  EXPECT_FALSE(dfs.ReadFileToString("/d").ok());
}

TEST(DfsTest, ReReplicateRestoresFactor) {
  MiniDfs dfs(SmallDfs(4, 1024, 3));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(200)).ok());
  auto info = dfs.Stat("/d");
  ASSERT_TRUE(info.ok());
  const NodeId victim = (*info)->blocks[0].replicas[0];
  ASSERT_TRUE(dfs.KillDataNode(victim).ok());
  ASSERT_TRUE(dfs.ReviveDataNode(victim).ok());  // comes back empty

  auto copied = dfs.ReReplicate();
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 200u);
  auto info2 = dfs.Stat("/d");
  ASSERT_TRUE(info2.ok());
  int live = 0;
  for (NodeId n : (*info2)->blocks[0].replicas) {
    if (dfs.data_node(n)->HasReplica((*info2)->blocks[0].id)) ++live;
  }
  EXPECT_EQ(live, 3);
}

TEST(DfsTest, PReadWithWrappingOffsetIsInvalidArgument) {
  MiniDfs dfs(SmallDfs(4, 16));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(40)).ok());
  auto reader = dfs.Open("/d");
  ASSERT_TRUE(reader.ok());
  char buf[8];
  // offset + len wraps past UINT64_MAX to 4, which is inside the file.
  EXPECT_EQ((*reader)->PRead(UINT64_MAX - 3, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*reader)->PRead(36, buf, sizeof(buf)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE((*reader)->PRead(32, buf, sizeof(buf)).ok());
}

TEST(DfsTest, OpensShareOneSnapshot) {
  MiniDfs dfs(SmallDfs(4, 16));
  ASSERT_TRUE(dfs.WriteFile("/d", Bytes(100)).ok());
  auto first = dfs.Open("/d");
  auto second = dfs.Open("/d");
  auto info = dfs.Stat("/d");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(&(*first)->file_info(), info->get());
  EXPECT_EQ(&(*second)->file_info(), info->get());
}

TEST(DfsTest, ReReplicationIsCopyOnWrite) {
  MiniDfs dfs(SmallDfs(4, 16, 3));
  std::string data;
  for (int i = 0; i < 64; ++i) data.push_back(static_cast<char>('a' + i % 26));
  ASSERT_TRUE(dfs.WriteFile("/d", data).ok());
  auto reader = dfs.Open("/d");
  ASSERT_TRUE(reader.ok());
  const FileInfo& held = (*reader)->file_info();
  std::vector<std::vector<NodeId>> before;
  for (const BlockInfo& block : held.blocks) before.push_back(block.replicas);
  const NodeId victim = before[0][0];

  ASSERT_TRUE(dfs.KillDataNode(victim).ok());
  auto copied = dfs.ReReplicate();
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, 0u);

  // The reader's snapshot is untouched and still reads the same bytes.
  std::string read(data.size(), '\0');
  ASSERT_TRUE((*reader)->PRead(0, read.data(), read.size()).ok());
  EXPECT_EQ(read, data);
  ASSERT_EQ(held.blocks.size(), before.size());
  for (size_t b = 0; b < before.size(); ++b) {
    EXPECT_EQ(held.blocks[b].replicas, before[b]) << "block " << b;
  }

  // A Stat after re-replication sees every block back at 3 live replicas.
  auto after = dfs.Stat("/d");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->get(), &held);
  for (const BlockInfo& block : (*after)->blocks) {
    EXPECT_EQ(dfs.AliveReplicas(block).size(), 3u) << "block " << block.id;
    EXPECT_EQ(std::count(block.replicas.begin(), block.replicas.end(), victim),
              0);
  }
}

TEST(DfsTest, StatMidWriteIsStable) {
  MiniDfs dfs(SmallDfs(4, 16));
  auto writer = dfs.Create("/d");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendString(Bytes(10)).ok());
  ASSERT_TRUE((*writer)->CloseBlock().ok());
  auto mid = dfs.Stat("/d");
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ((*mid)->blocks.size(), 1u);
  EXPECT_EQ((*mid)->length, 10u);

  ASSERT_TRUE((*writer)->AppendString(Bytes(12)).ok());
  ASSERT_TRUE((*writer)->CloseBlock().ok());
  ASSERT_TRUE((*writer)->AppendString(Bytes(20)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  EXPECT_EQ((*mid)->blocks.size(), 1u);
  EXPECT_EQ((*mid)->block_offsets.size(), 1u);
  EXPECT_EQ((*mid)->length, 10u);
  auto done = dfs.Stat("/d");
  ASSERT_TRUE(done.ok());
  ASSERT_EQ((*done)->blocks.size(), 4u);
  EXPECT_EQ((*done)->length, 42u);
  EXPECT_EQ((*done)->block_offsets, (std::vector<uint64_t>{0, 10, 22, 38}));
}

TEST(DfsConcurrencyTest, ReadersRaceReReplication) {
  constexpr int kBlocks = 64;
  constexpr uint64_t kBlockSize = 64;
  MiniDfs dfs(SmallDfs(4, kBlockSize, 3));
  std::string data;
  for (uint64_t i = 0; i < kBlocks * kBlockSize; ++i) {
    data.push_back(static_cast<char>((i * 131 + 7) % 251));
  }
  {
    auto writer = dfs.Create("/tbl/a.col", "/tbl");
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendString(data).ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto info = dfs.Stat("/tbl/a.col");
  ASSERT_TRUE(info.ok());
  const NodeId victim = (*info)->blocks[0].replicas[0];

  constexpr int kReaders = 8;
  constexpr int kIterations = 200;
  std::atomic<int> started{0};
  std::atomic<int> mismatches{0};
  std::atomic<int> untyped_errors{0};  // any failure but IoError
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::string buf(data.size(), '\0');
      for (int i = 0; i < kIterations; ++i) {
        if (i == 1) started.fetch_add(1);
        auto count = [&](const Status& st) {
          if (st.code() != StatusCode::kIoError) untyped_errors.fetch_add(1);
        };
        auto locations = dfs.BlockLocations("/tbl/a.col", (t + i) % kBlocks);
        if (!locations.ok()) count(locations.status());
        auto reader = dfs.Open("/tbl/a.col", t % dfs.num_nodes());
        if (!reader.ok()) {
          count(reader.status());
          continue;
        }
        // A different range each time: whole blocks, block-straddling tails.
        const uint64_t offset = static_cast<uint64_t>((t * 37 + i * 53) %
                                                      (data.size() / 2));
        const size_t len = data.size() - offset;
        Status st = (*reader)->PRead(offset, buf.data(), len);
        if (!st.ok()) {
          count(st);
        } else if (buf.compare(0, len, data, offset, len) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  const Status killed = dfs.KillDataNode(victim);
  auto copied = dfs.ReReplicate();
  for (std::thread& reader : readers) reader.join();

  ASSERT_TRUE(killed.ok()) << killed.ToString();
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(untyped_errors.load(), 0);
  auto after = dfs.Stat("/tbl/a.col");
  ASSERT_TRUE(after.ok());
  for (const BlockInfo& block : (*after)->blocks) {
    EXPECT_EQ(dfs.AliveReplicas(block).size(), 3u) << "block " << block.id;
  }
  auto contents = dfs.ReadFileToString("/tbl/a.col");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, data);
}

TEST(PlacementTest, ColocationGroupsAlignAcrossFiles) {
  MiniDfs dfs(SmallDfs(6, 64, 3));
  // Two "column" files in one group, three blocks each.
  for (const char* path : {"/tbl/a.col", "/tbl/b.col"}) {
    auto writer = dfs.Create(path, "/tbl");
    ASSERT_TRUE(writer.ok());
    for (int split = 0; split < 3; ++split) {
      ASSERT_TRUE((*writer)->AppendString(Bytes(40)).ok());
      ASSERT_TRUE((*writer)->CloseBlock().ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  for (int split = 0; split < 3; ++split) {
    auto a = dfs.BlockLocations("/tbl/a.col", split);
    auto b = dfs.BlockLocations("/tbl/b.col", split);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "split " << split;
  }
}

TEST(PlacementTest, UngroupedFilesSpreadIndependently) {
  MiniDfs dfs(SmallDfs(8, 64, 1));
  for (const char* path : {"/x", "/y", "/z", "/w"}) {
    ASSERT_TRUE(dfs.WriteFile(path, Bytes(40)).ok());
  }
  std::set<NodeId> used;
  for (const char* path : {"/x", "/y", "/z", "/w"}) {
    auto locations = dfs.BlockLocations(path, 0);
    ASSERT_TRUE(locations.ok());
    used.insert((*locations)[0]);
  }
  EXPECT_GT(used.size(), 1u);  // random spread uses several nodes
}

TEST(LocalStoreTest, WriteReadDeleteWipe) {
  LocalStore store(3);
  ASSERT_TRUE(store.Write("/dim/customer", {1, 2, 3}).ok());
  EXPECT_TRUE(store.Exists("/dim/customer"));
  auto data = store.Read("/dim/customer");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)->size(), 3u);
  EXPECT_EQ(store.bytes_read(), 3u);
  EXPECT_EQ(store.bytes_written(), 3u);
  ASSERT_TRUE(store.Delete("/dim/customer").ok());
  EXPECT_TRUE(store.Read("/dim/customer").status().IsNotFound());
  ASSERT_TRUE(store.Write("/a", {1}).ok());
  store.Wipe();
  EXPECT_FALSE(store.Exists("/a"));
}

}  // namespace
}  // namespace hdfs
}  // namespace clydesdale
