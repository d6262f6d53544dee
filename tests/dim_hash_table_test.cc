#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "common/hash.h"
#include "common/random.h"
#include "core/dim_hash_table.h"
#include "storage/binary_row_format.h"
#include "storage/byte_io.h"

namespace clydesdale {
namespace core {
namespace {

SchemaPtr DimSchema() {
  return Schema::Make({{"pk", TypeKind::kInt32, 4},
                       {"nation", TypeKind::kString, 10},
                       {"region", TypeKind::kString, 8}});
}

std::vector<uint8_t> MakeStream(int rows) {
  std::vector<Row> data;
  const char* regions[] = {"ASIA", "EUROPE"};
  for (int i = 1; i <= rows; ++i) {
    data.push_back(Row({Value(int32_t{i}),
                        Value(std::string("nation") + std::to_string(i % 5)),
                        Value(regions[i % 2])}));
  }
  return storage::EncodeRowStream(data);
}

/// The payload row `key` probes to, or nullopt on a miss.
std::optional<Row> Payload(const DimHashTable& table, int64_t key) {
  const int32_t slot = table.Probe(key);
  if (slot == DimHashTable::kMiss) return std::nullopt;
  Row row;
  table.AppendPayload(slot, &row);
  return row;
}

TEST(DimHashTableTest, BuildsAndProbes) {
  auto stream = MakeStream(100);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 100u);
  const std::optional<Row> aux = Payload(**table, 7);
  ASSERT_TRUE(aux.has_value());
  EXPECT_EQ(aux->Get(0).str(), "nation2");
  EXPECT_EQ((*table)->Probe(101), DimHashTable::kMiss);
  EXPECT_EQ((*table)->Probe(0), DimHashTable::kMiss);
  EXPECT_EQ((*table)->Probe(-5), DimHashTable::kMiss);
}

TEST(DimHashTableTest, PredicateFiltersEntries) {
  auto stream = MakeStream(100);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::Eq("region", Value("ASIA")),
                                   "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 50u);
  EXPECT_EQ((*table)->stats().input_rows, 100u);
  // Even pks have region ASIA (regions[i % 2]).
  EXPECT_EQ((*table)->Probe(3), DimHashTable::kMiss);
  EXPECT_NE((*table)->Probe(4), DimHashTable::kMiss);
}

TEST(DimHashTableTest, ZeroAuxColumnsYieldEmptyPayload) {
  auto stream = MakeStream(10);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {});
  ASSERT_TRUE(table.ok());
  const std::optional<Row> aux = Payload(**table, 1);
  ASSERT_TRUE(aux.has_value());
  EXPECT_TRUE(aux->empty());
}

TEST(DimHashTableTest, EmptyQualifyingSetProbesCleanly) {
  auto stream = MakeStream(10);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::Eq("region", Value("MARS")),
                                   "pk", {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 0u);
  EXPECT_EQ((*table)->Probe(1), DimHashTable::kMiss);
}

TEST(DimHashTableTest, MemoryEstimateGrowsWithEntries) {
  auto small_stream = MakeStream(10);
  auto big_stream = MakeStream(1000);
  auto small = DimHashTable::Build(*DimSchema(), small_stream.data(),
                                   small_stream.size(), *Predicate::True(),
                                   "pk", {"nation"});
  auto big = DimHashTable::Build(*DimSchema(), big_stream.data(),
                                 big_stream.size(), *Predicate::True(), "pk",
                                 {"nation"});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_GT((*big)->stats().memory_bytes, (*small)->stats().memory_bytes * 10);
}

TEST(DimHashTableTest, UnknownColumnsFailCleanly) {
  auto stream = MakeStream(10);
  EXPECT_FALSE(DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "nope", {})
                   .ok());
  EXPECT_FALSE(DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nope"})
                   .ok());
}

/// A stream of: one valid row, the row whose body is `body` under a length
/// prefix of body.size(), then one more valid row — so a field that
/// overruns its row would land in the next row's bytes, not off the end.
std::vector<uint8_t> StreamAround(const std::vector<uint8_t>& body) {
  storage::ByteWriter out;
  auto valid_row = [&out](int32_t pk) {
    storage::ByteWriter row;
    row.PutI32(pk);
    row.PutString("nation1");
    row.PutString("ASIA");
    out.PutU32(static_cast<uint32_t>(row.size()));
    out.PutBytes(row.bytes().data(), row.size());
  };
  valid_row(1);
  out.PutU32(static_cast<uint32_t>(body.size()));
  out.PutBytes(body.data(), body.size());
  valid_row(3);
  return out.Release();
}

/// Builds over `stream` reading nation (aux) but never region.
Status BuildNationOnly(const std::vector<uint8_t>& stream) {
  return DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                             *Predicate::True(), "pk", {"nation"})
      .status();
}

TEST(DimHashTableTest, CorruptStreamFails) {
  auto stream = MakeStream(10);
  stream.resize(stream.size() - 3);  // truncate mid-row
  EXPECT_EQ(BuildNationOnly(stream).code(), StatusCode::kIoError);

  // Each row must end exactly at its u32 length prefix.
  storage::ByteWriter half_length;  // the nation length is cut to one byte
  half_length.PutI32(2);
  half_length.PutU8(7);
  EXPECT_EQ(BuildNationOnly(StreamAround(half_length.bytes())).code(),
            StatusCode::kIoError);

  storage::ByteWriter overrun;  // nation claims 10 bytes, the row holds 3
  overrun.PutI32(2);
  overrun.PutU16(10);
  overrun.PutBytes("abc", 3);
  EXPECT_EQ(BuildNationOnly(StreamAround(overrun.bytes())).code(),
            StatusCode::kIoError);

  storage::ByteWriter skipped;  // region is never read, and is cut short
  skipped.PutI32(2);
  skipped.PutString("nation2");
  skipped.PutU16(6);
  skipped.PutBytes("AS", 2);
  EXPECT_EQ(BuildNationOnly(StreamAround(skipped.bytes())).code(),
            StatusCode::kIoError);

  storage::ByteWriter short_row;  // every field fits; 3 bytes are left over
  short_row.PutI32(2);
  short_row.PutString("nation2");
  short_row.PutString("ASIA");
  short_row.PutBytes("xyz", 3);
  EXPECT_EQ(BuildNationOnly(StreamAround(short_row.bytes())).code(),
            StatusCode::kIoError);

  // The same framing around a well-formed row builds.
  storage::ByteWriter good;
  good.PutI32(2);
  good.PutString("nation2");
  good.PutString("ASIA");
  EXPECT_TRUE(BuildNationOnly(StreamAround(good.bytes())).ok());
}

TEST(DimHashTableTest, NegativeKeysProbeBack) {
  std::vector<Row> data;
  for (int i = 0; i < 10; ++i) {
    data.push_back(Row({Value(int32_t{-100 + i * 7}),
                        Value(std::string("n") + std::to_string(i)),
                        Value("ASIA")}));
  }
  auto stream = storage::EncodeRowStream(data);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 10u);
  for (int i = 0; i < 10; ++i) {
    const std::optional<Row> aux = Payload(**table, -100 + i * 7);
    ASSERT_TRUE(aux.has_value()) << "key " << -100 + i * 7;
    EXPECT_EQ(aux->Get(0).str(), std::string("n") + std::to_string(i));
  }
  EXPECT_EQ((*table)->Probe(-101), DimHashTable::kMiss);
  EXPECT_EQ((*table)->Probe(100), DimHashTable::kMiss);
}

TEST(DimHashTableTest, DuplicatePrimaryKeysKeepFirstInScanOrder) {
  // Dimension streams with repeated pks are tolerated: both rows occupy a
  // slot, but probes resolve to the first row in scan order (the linear
  // probe stops at the first matching key).
  std::vector<Row> data = {
      Row({Value(int32_t{7}), Value("first"), Value("ASIA")}),
      Row({Value(int32_t{7}), Value("second"), Value("ASIA")}),
      Row({Value(int32_t{9}), Value("other"), Value("EUROPE")}),
  };
  auto stream = storage::EncodeRowStream(data);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 3u);
  const std::optional<Row> aux = Payload(**table, 7);
  ASSERT_TRUE(aux.has_value());
  EXPECT_EQ(aux->Get(0).str(), "first");
}

TEST(DimHashTableTest, CollisionChainMissWalksToEmptySlot) {
  // Craft keys that all hash to the same home slot so probes must walk a
  // full linear chain. Build sizes the table at the smallest power of two
  // >= 2 * entries, so 8 colliding entries land in a capacity-16 table and
  // a 9th colliding absent key has to traverse all 8 before the empty slot.
  constexpr size_t kCapacity = 16;
  std::vector<int32_t> colliding;
  for (int32_t k = 1; colliding.size() < 9; ++k) {
    if ((Mix64(static_cast<uint64_t>(k)) & (kCapacity - 1)) == 0) {
      colliding.push_back(k);
    }
  }
  std::vector<Row> data;
  for (size_t i = 0; i < 8; ++i) {
    data.push_back(Row({Value(colliding[i]),
                        Value(std::string("n") + std::to_string(i)),
                        Value("ASIA")}));
  }
  auto stream = storage::EncodeRowStream(data);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->entries(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    const std::optional<Row> aux = Payload(**table, colliding[i]);
    ASSERT_TRUE(aux.has_value()) << "key " << colliding[i];
    EXPECT_EQ(aux->Get(0).str(), std::string("n") + std::to_string(i));
  }
  // The 9th key shares the home slot but was never inserted: the chain walk
  // must pass every occupied slot and stop at the empty one with a miss.
  EXPECT_EQ((*table)->Probe(colliding[8]), DimHashTable::kMiss);

  // The batch probe walks the same chains branchlessly.
  std::vector<int64_t> keys(colliding.begin(), colliding.end());
  std::vector<int32_t> out(keys.size());
  (*table)->ProbeBatch(keys.data(), static_cast<int64_t>(keys.size()),
                       out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], (*table)->Probe(keys[i])) << "key " << keys[i];
  }
}

TEST(DimHashTableTest, ProbeBatchMatchesScalarProbe) {
  auto stream = MakeStream(500);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  // Mixed hits, misses, zero, and negative keys; more than one 256-key
  // stride so the batch loop crosses its internal boundary.
  std::vector<int64_t> keys;
  for (int i = 0; i < 700; ++i) {
    switch (i % 5) {
      case 0: keys.push_back(i % 500 + 1); break;        // hit
      case 1: keys.push_back(500 + i); break;            // miss (too large)
      case 2: keys.push_back(-i); break;                 // miss (negative)
      case 3: keys.push_back(0); break;                  // miss (zero)
      default: keys.push_back(499 - i % 499); break;     // hit
    }
  }
  std::vector<int32_t> out(keys.size(), 0);
  (*table)->ProbeBatch(keys.data(), static_cast<int64_t>(keys.size()),
                       out.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], (*table)->Probe(keys[i])) << "lane " << i << " key "
                                                << keys[i];
  }
}

TEST(DimHashTableTest, ProbeBatchOnEmptyTableReturnsAllNull) {
  auto stream = MakeStream(10);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::Eq("region", Value("MARS")),
                                   "pk", {});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->entries(), 0u);
  std::vector<int64_t> keys = {1, 2, 3, -4, 0};
  std::vector<int32_t> out(keys.size(), 1);
  (*table)->ProbeBatch(keys.data(), static_cast<int64_t>(keys.size()),
                       out.data());
  for (int32_t slot : out) EXPECT_EQ(slot, DimHashTable::kMiss);
}

// --- FilterSelection: the scan's semi-join filter ---------------------------

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// An aux-free table over int64 keys.
std::shared_ptr<const DimHashTable> KeyTable(const std::vector<int64_t>& keys) {
  std::vector<Row> rows;
  for (int64_t k : keys) rows.push_back(Row({Value(k)}));
  const std::vector<uint8_t> stream = storage::EncodeRowStream(rows);
  auto table = DimHashTable::Build(
      *Schema::Make({{"pk", TypeKind::kInt64, 8}}), stream.data(),
      stream.size(), *Predicate::True(), "pk", {});
  CLY_CHECK(table.ok());
  return *table;
}

/// FilterSelection over a random ascending selection of `probes` must keep
/// exactly the rows Probe finds, in order.
void ExpectFilterAgreesWithProbe(const DimHashTable& table,
                                 const std::vector<int64_t>& probes,
                                 Random* rng) {
  std::vector<int32_t> sel;
  for (size_t i = 0; i < probes.size(); ++i) {
    if (rng->Bernoulli(0.8)) sel.push_back(static_cast<int32_t>(i));
  }
  std::vector<int32_t> expected;
  for (int32_t row : sel) {
    if (table.Probe(probes[static_cast<size_t>(row)]) != DimHashTable::kMiss) {
      expected.push_back(row);
    }
  }
  const int64_t kept = table.FilterSelection(
      probes.data(), sel.data(), static_cast<int64_t>(sel.size()));
  sel.resize(static_cast<size_t>(kept));
  EXPECT_EQ(sel, expected);
}

/// Probe keys around a key set: every key, its neighbours, both ends of
/// the range and one past them, the int64 extremes, and random keys.
std::vector<int64_t> ProbesAround(const std::vector<int64_t>& keys,
                                  Random* rng) {
  std::vector<int64_t> probes = {kI64Min, kI64Min + 1, kI64Max, 0, -1};
  for (int64_t k : keys) {
    probes.push_back(k);
    if (k != kI64Min) probes.push_back(k - 1);
    if (k != kI64Max) probes.push_back(k + 1);
  }
  for (int i = 0; i < 300; ++i) {
    probes.push_back(static_cast<int64_t>(rng->Next()));
  }
  return probes;
}

TEST(DimHashTableTest, FilterSelectionAgreesWithProbeOnBothPaths) {
  Random rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const bool dense = trial % 2 == 0;
    std::vector<int64_t> keys;
    const int64_t n = rng.Uniform(1, 2000);
    const int64_t base = rng.Uniform(-100000, 100000);
    for (int64_t i = 0; i < n; ++i) {
      // Dense: a random subset of a range at most 2n wide. Sparse: keys
      // spread over all of int64.
      keys.push_back(dense ? base + rng.Uniform(0, 2 * n)
                           : static_cast<int64_t>(rng.Next()));
    }
    if (!dense) keys.push_back(kI64Max);
    const auto table = KeyTable(keys);
    ASSERT_EQ(table->has_key_bitmap(), dense) << "trial " << trial;
    ExpectFilterAgreesWithProbe(*table, ProbesAround(keys, &rng), &rng);
  }
}

TEST(DimHashTableTest, FilterSelectionOnEmptyTableKeepsNothing) {
  const auto table = KeyTable({});
  ASSERT_EQ(table->entries(), 0u);
  EXPECT_FALSE(table->has_key_bitmap());
  std::vector<int64_t> keys = {kI64Min, 0, 1, kI64Max};
  std::vector<int32_t> sel = {0, 1, 2, 3};
  EXPECT_EQ(table->FilterSelection(keys.data(), sel.data(), 4), 0);
}

TEST(DimHashTableTest, SentinelKeyIsAMemberOnBothPaths) {
  // kEmptySlotKey marks empty buckets, so a stored INT64_MIN lives out of
  // line; both filter paths must still find it, and only it.
  Random rng(5);
  const std::vector<int64_t> narrow = {kI64Min, kI64Min + 3};
  const std::vector<int64_t> wide = {kI64Min, -7, 0, kI64Max};
  for (const auto& keys : {narrow, wide}) {
    const auto table = KeyTable(keys);
    EXPECT_EQ(table->has_key_bitmap(), keys.size() == 2);
    EXPECT_NE(table->Probe(kI64Min), DimHashTable::kMiss);
    ExpectFilterAgreesWithProbe(*table, ProbesAround(keys, &rng), &rng);
  }
  // Without the sentinel stored, probing INT64_MIN misses on both paths.
  for (const auto& keys : {std::vector<int64_t>{kI64Min + 1, kI64Min + 2},
                           std::vector<int64_t>{kI64Min + 1, kI64Max}}) {
    const auto table = KeyTable(keys);
    std::vector<int64_t> probes = {kI64Min};
    std::vector<int32_t> sel = {0};
    EXPECT_EQ(table->FilterSelection(probes.data(), sel.data(), 1), 0);
  }
}

TEST(DimHashTableTest, MemoryBytesIncludeTheBitmap) {
  // Same entry count, so the same bucket lanes: the dense table differs by
  // exactly its bitmap words, and those never outgrow the key lane.
  std::vector<int64_t> dense, sparse;
  for (int64_t i = 0; i < 1000; ++i) {
    dense.push_back(i * 3);
    sparse.push_back(i << 40);
  }
  const auto with_bitmap = KeyTable(dense);
  const auto without = KeyTable(sparse);
  ASSERT_TRUE(with_bitmap->has_key_bitmap());
  ASSERT_FALSE(without->has_key_bitmap());
  const uint64_t bitmap_bytes = (999 * 3 / 64 + 1) * sizeof(uint64_t);
  EXPECT_EQ(with_bitmap->stats().memory_bytes,
            without->stats().memory_bytes + bitmap_bytes);
  EXPECT_LE(bitmap_bytes,
            DimHashTable::CapacityFor(dense.size()) * sizeof(int64_t));
}

// Property-style sweep: every inserted key must probe back to its payload,
// across a range of table sizes (resize boundaries, collisions).
class DimHashTableSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(DimHashTableSizeTest, AllKeysProbeBack) {
  const int n = GetParam();
  auto stream = MakeStream(n);
  auto table = DimHashTable::Build(*DimSchema(), stream.data(), stream.size(),
                                   *Predicate::True(), "pk", {"region"});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ((*table)->entries(), static_cast<uint64_t>(n));
  for (int i = 1; i <= n; ++i) {
    const std::optional<Row> aux = Payload(**table, i);
    ASSERT_TRUE(aux.has_value()) << "key " << i;
    EXPECT_EQ(aux->Get(0).str(), i % 2 == 0 ? "ASIA" : "EUROPE");
  }
  for (int i = n + 1; i <= n + 100; ++i) {
    EXPECT_EQ((*table)->Probe(i), DimHashTable::kMiss);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DimHashTableSizeTest,
                         ::testing::Values(1, 2, 3, 15, 16, 17, 255, 256, 257,
                                           1000, 4096));

}  // namespace
}  // namespace core
}  // namespace clydesdale
