#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/dim_hash_table.h"
#include "mapreduce/engine.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "storage/binary_row_format.h"
#include "storage/cif.h"
#include "storage/column_codec.h"

namespace clydesdale {
namespace core {
namespace {

SchemaPtr DimSchema() {
  return Schema::Make({{"pk", TypeKind::kInt32, 4},
                       {"nation", TypeKind::kString, 10},
                       {"region", TypeKind::kString, 8}});
}

std::vector<uint8_t> MakeImage(int rows) {
  std::vector<Row> data;
  const char* regions[] = {"ASIA", "EUROPE"};
  for (int i = 1; i <= rows; ++i) {
    data.push_back(Row({Value(int32_t{i}),
                        Value(std::string("nation") + std::to_string(i % 5)),
                        Value(regions[i % 2])}));
  }
  return storage::EncodeColumnImage(DimSchema(), data);
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
  auto image = MakeImage(100);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = MakeImage(100);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = MakeImage(10);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                   *Predicate::True(), "pk", {});
  ASSERT_TRUE(table.ok());
  const std::optional<Row> aux = Payload(**table, 1);
  ASSERT_TRUE(aux.has_value());
  EXPECT_TRUE(aux->empty());
}

TEST(DimHashTableTest, EmptyQualifyingSetProbesCleanly) {
  auto image = MakeImage(10);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                   *Predicate::Eq("region", Value("MARS")),
                                   "pk", {});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->entries(), 0u);
  EXPECT_EQ((*table)->Probe(1), DimHashTable::kMiss);
}

TEST(DimHashTableTest, MemoryEstimateGrowsWithEntries) {
  auto small_image = MakeImage(10);
  auto big_image = MakeImage(1000);
  auto small = DimHashTable::Build(*DimSchema(), small_image.data(),
                                   small_image.size(), *Predicate::True(),
                                   "pk", {"nation"});
  auto big = DimHashTable::Build(*DimSchema(), big_image.data(),
                                 big_image.size(), *Predicate::True(), "pk",
                                 {"nation"});
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_GT((*big)->stats().memory_bytes, (*small)->stats().memory_bytes * 10);
}

TEST(DimHashTableTest, UnknownColumnsFailCleanly) {
  auto image = MakeImage(10);
  EXPECT_FALSE(DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                   *Predicate::True(), "nope", {})
                   .ok());
  EXPECT_FALSE(DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                   *Predicate::True(), "pk", {"nope"})
                   .ok());
}

// --- Corrupt images ----------------------------------------------------------
// The column image layout (storage/cif.h): [u32 magic][u32 nfields], then
// per field {u64 offset, u64 length, u64 sum, u64 weighted_sum}, then the
// 8-aligned CIF blocks.

constexpr size_t kDirectoryBegin = 8;
constexpr size_t kEntryBytes = 32;

uint64_t EntryField(const std::vector<uint8_t>& image, int field, int word) {
  uint64_t v = 0;
  std::memcpy(&v, image.data() + kDirectoryBegin + kEntryBytes * field + 8 * word,
              sizeof(v));
  return v;
}

void SetEntryField(std::vector<uint8_t>* image, int field, int word,
                   uint64_t v) {
  std::memcpy(image->data() + kDirectoryBegin + kEntryBytes * field + 8 * word,
              &v, sizeof(v));
}

/// Recomputes every block's sums, so an edit inside a block reaches the
/// block parser instead of stopping at the checksum.
void Reseal(std::vector<uint8_t>* image, int nfields) {
  for (int f = 0; f < nfields; ++f) {
    const uint8_t* p = image->data() + EntryField(*image, f, 0);
    const size_t n = EntryField(*image, f, 1);
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w = 0;
      std::memcpy(&w, p + i, sizeof(w));
      s1 += w;
      s2 += s1;
    }
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    s1 += tail;
    s2 += s1;
    SetEntryField(image, f, 2, s1);
    SetEntryField(image, f, 3, s2);
  }
}

/// Builds over `image` reading pk and nation (aux) but never region.
Status BuildNationOnly(const std::vector<uint8_t>& image) {
  return DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                             *Predicate::True(), "pk", {"nation"})
      .status();
}

/// Expects an IoError whose message contains `what`.
void ExpectIoError(const std::vector<uint8_t>& image, const std::string& what) {
  const Status st = BuildNationOnly(image);
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  EXPECT_NE(st.ToString().find(what), std::string::npos) << st.ToString();
}

TEST(DimHashTableTest, CorruptImageFails) {
  const std::vector<uint8_t> good = MakeImage(10);
  ASSERT_TRUE(BuildNationOnly(good).ok());

  // A truncated header, and a directory cut short.
  ExpectIoError(std::vector<uint8_t>(good.begin(), good.begin() + 5),
                "truncated column image header");
  ExpectIoError(std::vector<uint8_t>(good.begin(), good.begin() + 40),
                "truncated column image directory");

  // A block offset or length past the end.
  std::vector<uint8_t> bad = good;
  SetEntryField(&bad, 1, 0, good.size() + 8);
  ExpectIoError(bad, "lies outside");
  bad = good;
  SetEntryField(&bad, 1, 1, good.size());
  ExpectIoError(bad, "lies outside");
  bad = good;
  SetEntryField(&bad, 0, 0, 0);  // pointing back into the directory
  ExpectIoError(bad, "lies outside");

  // A misaligned block, and an image whose base is misaligned.
  bad = good;
  SetEntryField(&bad, 1, 0, EntryField(good, 1, 0) + 4);
  ExpectIoError(bad, "8-aligned");
  std::vector<uint8_t> shifted(good.size() + 1);
  std::memcpy(shifted.data() + 1, good.data(), good.size());
  const Status st = DimHashTable::Build(*DimSchema(), shifted.data() + 1,
                                        good.size(), *Predicate::True(), "pk",
                                        {"nation"})
                        .status();
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();

  // Columns that disagree on nrows (the sums are made to match, so the
  // reader's own row-count check must catch it).
  bad = good;
  const uint32_t nrows = 9;
  std::memcpy(bad.data() + EntryField(good, 1, 0) + 4, &nrows, sizeof(nrows));
  Reseal(&bad, 3);
  ExpectIoError(bad, "disagree on row count");

  // A schema with a different field count.
  const SchemaPtr two = Schema::Make(
      {{"pk", TypeKind::kInt32, 4}, {"nation", TypeKind::kString, 10}});
  EXPECT_EQ(DimHashTable::Build(*two, good.data(), good.size(),
                                *Predicate::True(), "pk", {"nation"})
                .status()
                .code(),
            StatusCode::kIoError);

  // Every flipped bit of the image fails the build, or lands in a byte the
  // build never reads (region's block and directory entry, block padding)
  // and leaves the table intact. Either way nothing crashes.
  const size_t region_entry = kDirectoryBegin + kEntryBytes * 2;
  std::vector<bool> read(good.size(), false);
  for (size_t i = 0; i < kDirectoryBegin + kEntryBytes * 3; ++i) read[i] = true;
  for (size_t i = region_entry; i < region_entry + kEntryBytes; ++i) {
    read[i] = false;
  }
  for (int f = 0; f < 2; ++f) {
    for (size_t i = EntryField(good, f, 0);
         i < EntryField(good, f, 0) + EntryField(good, f, 1); ++i) {
      read[i] = true;
    }
  }
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      bad = good;
      bad[i] ^= static_cast<uint8_t>(1u << bit);
      const Status flipped = BuildNationOnly(bad);
      if (read[i]) {
        EXPECT_EQ(flipped.code(), StatusCode::kIoError)
            << "byte " << i << " bit " << bit << ": " << flipped.ToString();
      } else {
        EXPECT_TRUE(flipped.ok()) << "byte " << i << ": " << flipped.ToString();
      }
    }
  }

  // Payload edits behind matching sums still meet the block parser: a
  // dictionary code past the dictionary is an IoError, not a wild read.
  const size_t nation_block = EntryField(good, 1, 0);
  const size_t nation_len = EntryField(good, 1, 1);
  for (size_t i = nation_block + 8; i < nation_block + nation_len; ++i) {
    std::vector<uint8_t> edited = good;
    edited[i] = 0xFF;
    Reseal(&edited, 3);
    const Status parsed = BuildNationOnly(edited);
    EXPECT_TRUE(parsed.ok() || parsed.code() == StatusCode::kIoError)
        << "byte " << i << ": " << parsed.ToString();
  }
}

TEST(DimHashTableTest, ReadsOnlyTheBlocksOfItsColumns) {
  const std::vector<uint8_t> image = MakeImage(1000);
  // pk and nation: the directory and those two blocks, never region's.
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                   *Predicate::True(), "pk", {"nation"});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->stats().bytes_read, kDirectoryBegin + kEntryBytes * 3 +
                                              EntryField(image, 0, 1) +
                                              EntryField(image, 1, 1));
  EXPECT_EQ((*table)->stats().scan.rows_read, 1000u);
  EXPECT_GT((*table)->stats().scan.bytes_encoded, 0u);

  // A predicate column is read too, and its leaf prunes inside the scan.
  auto asia = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                  *Predicate::Eq("region", Value("ASIA")),
                                  "pk", {"nation"});
  ASSERT_TRUE(asia.ok());
  EXPECT_EQ((*asia)->stats().bytes_read,
            (*table)->stats().bytes_read + EntryField(image, 2, 1));
  EXPECT_EQ((*asia)->stats().scan.rows_pruned, 500u);
  EXPECT_EQ((*asia)->stats().input_rows, 1000u);
  EXPECT_EQ((*asia)->entries(), 500u);
}

// --- Concurrent builds -------------------------------------------------------

/// The engine builds each node's tables on whichever task gets there first,
/// while other nodes' tasks build from the same shared replica buffer: the
/// reader must never write to the image.
TEST(DimHashTableConcurrencyTest, ThreadsBuildFromOneSharedImage) {
  const std::vector<uint8_t> image = MakeImage(5000);
  const Predicate::Ptr pred = Predicate::Eq("region", Value("ASIA"));
  auto serial = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
                                    *pred, "pk", {"nation"});
  ASSERT_TRUE(serial.ok());
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const DimHashTable>> built(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        auto table = DimHashTable::Build(*DimSchema(), image.data(),
                                         image.size(), *pred, "pk", {"nation"});
        CLY_CHECK(table.ok());
        built[static_cast<size_t>(t)] = *table;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& table : built) {
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->entries(), (*serial)->entries());
    EXPECT_EQ(table->stats().memory_bytes, (*serial)->stats().memory_bytes);
    for (int key = 1; key <= 5000; ++key) {
      ASSERT_EQ(Payload(*table, key), Payload(**serial, key)) << key;
    }
  }
}

TEST(DimHashTableTest, NegativeKeysProbeBack) {
  std::vector<Row> data;
  for (int i = 0; i < 10; ++i) {
    data.push_back(Row({Value(int32_t{-100 + i * 7}),
                        Value(std::string("n") + std::to_string(i)),
                        Value("ASIA")}));
  }
  auto image = storage::EncodeColumnImage(DimSchema(), data);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = storage::EncodeColumnImage(DimSchema(), data);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = storage::EncodeColumnImage(DimSchema(), data);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = MakeImage(500);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  auto image = MakeImage(10);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
  const SchemaPtr schema = Schema::Make({{"pk", TypeKind::kInt64, 8}});
  const std::vector<uint8_t> image = storage::EncodeColumnImage(schema, rows);
  auto table = DimHashTable::Build(*schema, image.data(), image.size(),
                                   *Predicate::True(), "pk", {});
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

// --- Differential: the image build against a row-at-a-time reference -------

/// Checks `table` against what a build of `rows` must hold: every row the
/// predicate accepts, in order, keyed by `pk` (unique keys) with the aux
/// values as its payload slot, and the memory_bytes that layout implies —
/// the bucket lanes, the bitmap when the key range allows one, the
/// slot-indexed payload arrays and the string arena.
void ExpectMatchesReference(const DimHashTable& table, const Schema& schema,
                            const std::vector<Row>& rows,
                            const Predicate& predicate, const std::string& pk,
                            const std::vector<std::string>& aux,
                            const std::string& what) {
  auto bound = predicate.Bind(schema);
  ASSERT_TRUE(bound.ok()) << what;
  const int pk_index = schema.IndexOf(pk);
  std::vector<int> aux_index;
  uint64_t payload_bytes_per_entry = 0;
  for (const std::string& a : aux) {
    aux_index.push_back(schema.IndexOf(a));
    switch (schema.field(aux_index.back()).type) {
      case TypeKind::kInt32:
        payload_bytes_per_entry += sizeof(int32_t);
        break;
      case TypeKind::kInt64:
      case TypeKind::kDouble:
        payload_bytes_per_entry += 8;
        break;
      case TypeKind::kString:
        payload_bytes_per_entry += sizeof(std::string_view);
        break;
    }
  }
  int32_t slot = 0;
  uint64_t arena_bytes = 0;
  int64_t min_key = std::numeric_limits<int64_t>::max();
  int64_t max_key = std::numeric_limits<int64_t>::min();
  for (const Row& row : rows) {
    if (!(*bound)->Eval(row)) continue;
    const int64_t key = row.Get(pk_index).AsInt64();
    min_key = std::min(min_key, key);
    max_key = std::max(max_key, key);
    ASSERT_EQ(table.Probe(key), slot) << what << ": key " << key;
    Row payload;
    table.AppendPayload(slot, &payload);
    ASSERT_EQ(payload.ToString(), row.Project(aux_index).ToString())
        << what << ": key " << key;
    for (const Value& v : payload.values()) {
      if (v.kind() == TypeKind::kString) arena_bytes += v.str().size();
    }
    ++slot;
  }
  const auto entries = static_cast<uint64_t>(slot);
  EXPECT_EQ(table.entries(), entries) << what;
  EXPECT_EQ(table.stats().input_rows, rows.size()) << what;
  const size_t capacity =
      DimHashTable::CapacityFor(std::max<size_t>(entries, 1));
  uint64_t memory = capacity * (sizeof(int64_t) + sizeof(int32_t)) +
                    entries * payload_bytes_per_entry + arena_bytes;
  if (entries > 0) {
    const uint64_t span =
        static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
    if (span / 64 < capacity) memory += (span / 64 + 1) * sizeof(uint64_t);
  }
  EXPECT_EQ(table.stats().memory_bytes, memory) << what;
}

/// Every dimension join of every SSB query at SF 0.01: the build from node
/// 0's column image holds what the HDFS master's rows, filtered row by row,
/// say it must.
TEST(DimHashTableDifferentialTest, SsbJoinsMatchTheMasterRows) {
  mr::MrCluster cluster(mr::ClusterOptions{});
  ssb::SsbLoadOptions load;
  load.scale_factor = 0.01;
  load.with_rcfile = false;
  auto dataset = ssb::LoadSsb(&cluster, load);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  int joins = 0;
  for (const StarQuerySpec& spec : ssb::AllQueries()) {
    for (const DimJoinSpec& join : spec.dims) {
      auto dim = dataset->star.dim(join.dimension);
      ASSERT_TRUE(dim.ok());
      const Schema& schema = *(*dim)->desc.schema;
      auto master = cluster.dfs()->ReadFileToString((*dim)->desc.path +
                                                    "/data.bin");
      ASSERT_TRUE(master.ok()) << master.status().ToString();
      auto rows = storage::DecodeRowStream(
          schema, reinterpret_cast<const uint8_t*>(master->data()),
          master->size());
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      auto image = cluster.local_store(0)->Read((*dim)->local_path);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      auto table = DimHashTable::Build(schema, (*image)->data(),
                                       (*image)->size(), *join.predicate,
                                       join.dim_pk, join.aux_columns);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ExpectMatchesReference(**table, schema, *rows, *join.predicate,
                             join.dim_pk, join.aux_columns,
                             spec.id + " " + join.dimension);
      ++joins;
    }
  }
  EXPECT_GT(joins, 13);
}

/// One column per block encoding: `id` bit-packed (a shuffled 0..n-1),
/// `big` frame-of-reference, `wide` plain int64, `runs` RLE, `price`
/// double, `name` plain strings (more than 256 distinct), `tag` a
/// dictionary in random order, `zone` a run-length dictionary.
SchemaPtr EncodingSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"big", TypeKind::kInt64, 8},
                       {"wide", TypeKind::kInt64, 8},
                       {"runs", TypeKind::kInt32, 4},
                       {"price", TypeKind::kDouble, 8},
                       {"name", TypeKind::kString, 8},
                       {"tag", TypeKind::kString, 3},
                       {"zone", TypeKind::kString, 3}});
}

std::vector<Row> EncodingRows(int n, Random* rng) {
  std::vector<int32_t> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(ids[static_cast<size_t>(i)],
              ids[static_cast<size_t>(rng->Uniform(0, i))]);
  }
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row(
        {Value(ids[static_cast<size_t>(i)]),
         Value(int64_t{5'000'000'000} + rng->Uniform(0, 1000)),
         Value(static_cast<int64_t>(rng->Next())),
         Value(static_cast<int32_t>(i / 64)),
         Value(static_cast<double>(rng->Uniform(0, 10000)) / 100.0),
         Value(StrCat("name", rng->Uniform(0, 2000))),
         Value(StrCat("t", rng->Uniform(0, 30))),
         Value(StrCat("z", i / 100))}));
  }
  return rows;
}

/// A random single-column leaf whose operands are drawn from the table's
/// own values, or — one time in four — nudged off them.
Predicate::Ptr RandomLeaf(const Schema& schema, const std::vector<Row>& rows,
                          Random* rng) {
  const int col = static_cast<int>(rng->Uniform(0, schema.num_fields() - 1));
  const std::string& name = schema.field(col).name;
  auto operand = [&]() {
    Value v = rows[static_cast<size_t>(
                       rng->Uniform(0, static_cast<int64_t>(rows.size()) - 1))]
                  .Get(col);
    if (!rng->Bernoulli(0.25)) return v;
    switch (v.kind()) {
      case TypeKind::kInt32:
        return Value(v.i32() + 1);
      case TypeKind::kInt64:
        return Value(v.i64() - 1);
      case TypeKind::kDouble:
        return Value(v.f64() + 0.005);
      case TypeKind::kString:
        return Value(v.str() + "x");
    }
    return v;
  };
  switch (rng->Uniform(0, 7)) {
    case 0:
      return Predicate::Eq(name, operand());
    case 1:
      return Predicate::Ne(name, operand());
    case 2:
      return Predicate::Lt(name, operand());
    case 3:
      return Predicate::Le(name, operand());
    case 4:
      return Predicate::Gt(name, operand());
    case 5:
      return Predicate::Ge(name, operand());
    case 6: {
      Value lo = operand();
      Value hi = operand();
      if (hi.Compare(lo) < 0) std::swap(lo, hi);
      return Predicate::Between(name, lo, hi);
    }
    default: {
      std::vector<Value> values;
      for (int64_t k = rng->Uniform(1, 4); k > 0; --k) {
        values.push_back(operand());
      }
      return Predicate::In(name, values);
    }
  }
}

TEST(DimHashTableDifferentialTest, RandomPredicatesOverEveryEncoding) {
  Random rng(2026);
  const SchemaPtr schema = EncodingSchema();
  const std::vector<Row> rows = EncodingRows(3000, &rng);
  const std::vector<uint8_t> image = storage::EncodeColumnImage(schema, rows);

  // A build reading every column meets every encoding.
  std::vector<std::string> others;
  for (int c = 1; c < schema->num_fields(); ++c) {
    others.push_back(schema->field(c).name);
  }
  auto all = DimHashTable::Build(*schema, image.data(), image.size(),
                                 *Predicate::True(), "id", others);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (int e = 0; e < storage::kEncCount; ++e) {
    EXPECT_GT((*all)->stats().scan.blocks_by_encoding[e], 0u)
        << storage::EncodingName(static_cast<uint8_t>(e));
  }
  ExpectMatchesReference(**all, *schema, rows, *Predicate::True(), "id",
                         others, "every column");

  for (int trial = 0; trial < 150; ++trial) {
    // An AND of leaves the scan can push; every third trial adds an OR
    // across two columns, and every fifth a NOT, which it cannot.
    std::vector<Predicate::Ptr> conjuncts;
    for (int64_t k = rng.Uniform(1, 3); k > 0; --k) {
      conjuncts.push_back(RandomLeaf(*schema, rows, &rng));
    }
    if (trial % 3 == 0) {
      Predicate::Ptr a = RandomLeaf(*schema, rows, &rng);
      Predicate::Ptr b = RandomLeaf(*schema, rows, &rng);
      while (b->column_name() == a->column_name()) {
        b = RandomLeaf(*schema, rows, &rng);
      }
      conjuncts.push_back(Predicate::Or({a, b}));
    }
    if (trial % 5 == 0) {
      conjuncts.push_back(Predicate::Not(RandomLeaf(*schema, rows, &rng)));
    }
    const Predicate::Ptr pred = conjuncts.size() == 1
                                    ? conjuncts[0]
                                    : Predicate::And(conjuncts);
    std::vector<std::string> aux;
    for (const std::string& name : others) {
      if (rng.Bernoulli(0.3)) aux.push_back(name);
    }
    auto table = DimHashTable::Build(*schema, image.data(), image.size(),
                                     *pred, "id", aux);
    ASSERT_TRUE(table.ok()) << pred->ToString() << ": "
                            << table.status().ToString();
    ExpectMatchesReference(**table, *schema, rows, *pred, "id", aux,
                           StrCat("trial ", trial, ": ", pred->ToString()));
  }
}

// Property-style sweep: every inserted key must probe back to its payload,
// across a range of table sizes (resize boundaries, collisions).
class DimHashTableSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(DimHashTableSizeTest, AllKeysProbeBack) {
  const int n = GetParam();
  auto image = MakeImage(n);
  auto table = DimHashTable::Build(*DimSchema(), image.data(), image.size(),
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
