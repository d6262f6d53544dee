#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/random.h"
#include "hdfs/dfs.h"
#include "storage/binary_row_format.h"
#include "storage/byte_io.h"
#include "storage/cif.h"
#include "storage/rcfile.h"
#include "storage/row_codec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace storage {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"big", TypeKind::kInt64, 8},
                       {"ratio", TypeKind::kDouble, 8},
                       {"name", TypeKind::kString, 10}});
}

Row MakeRow(int32_t id) {
  return Row({Value(id), Value(static_cast<int64_t>(id) * 1000000007),
              Value(id * 0.5), Value(std::string("name-") + std::to_string(id))});
}

std::vector<Row> MakeRows(int n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows.push_back(MakeRow(i));
  return rows;
}

class StorageFormatTest : public ::testing::TestWithParam<const char*> {
 protected:
  StorageFormatTest() : dfs_(MakeOptions()) {}

  static hdfs::DfsOptions MakeOptions() {
    hdfs::DfsOptions options;
    options.num_nodes = 4;
    options.block_size = 4096;
    options.replication = 2;
    return options;
  }

  TableDesc WriteTable(const std::vector<Row>& rows) {
    TableDesc desc;
    desc.path = "/tbl";
    desc.format = GetParam();
    desc.schema = TestSchema();
    desc.rows_per_split = 32;
    auto writer = OpenTableWriter(&dfs_, desc);
    CLY_CHECK(writer.ok());
    for (const Row& row : rows) CLY_CHECK_OK((*writer)->Append(row));
    CLY_CHECK_OK((*writer)->Close());
    auto loaded = LoadTableDesc(dfs_, desc.path);
    CLY_CHECK(loaded.ok());
    return *loaded;
  }

  hdfs::MiniDfs dfs_;
};

TEST_P(StorageFormatTest, RoundTripsAllRows) {
  const std::vector<Row> rows = MakeRows(100);
  const TableDesc desc = WriteTable(rows);
  EXPECT_EQ(desc.num_rows, 100u);
  EXPECT_EQ(desc.format, GetParam());
  ASSERT_NE(desc.schema, nullptr);
  EXPECT_EQ(desc.schema->num_fields(), 4);

  ScanOptions scan;
  auto read = ScanTableToVector(dfs_, desc, scan);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*read)[i], rows[i]) << "row " << i;
  }
}

TEST_P(StorageFormatTest, ProjectionSelectsAndOrders) {
  const TableDesc desc = WriteTable(MakeRows(10));
  ScanOptions scan;
  scan.projection = {"name", "id"};
  auto read = ScanTableToVector(dfs_, desc, scan);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 10u);
  EXPECT_EQ((*read)[3].size(), 2);
  EXPECT_EQ((*read)[3].Get(0).str(), "name-3");
  EXPECT_EQ((*read)[3].Get(1).i32(), 3);
}

TEST_P(StorageFormatTest, UnknownProjectionColumnFails) {
  const TableDesc desc = WriteTable(MakeRows(5));
  auto splits = ListTableSplits(dfs_, desc);
  ASSERT_TRUE(splits.ok());
  ScanOptions scan;
  scan.projection = {"nope"};
  EXPECT_FALSE(OpenSplitRowReader(dfs_, desc, (*splits)[0], scan).ok());
}

TEST_P(StorageFormatTest, SplitsCoverDisjointRowRanges) {
  const std::vector<Row> rows = MakeRows(600);
  const TableDesc desc = WriteTable(rows);
  auto splits = ListTableSplits(dfs_, desc);
  ASSERT_TRUE(splits.ok());
  EXPECT_GT(splits->size(), 1u);

  ScanOptions scan;
  std::vector<Row> all;
  for (const StorageSplit& split : *splits) {
    EXPECT_FALSE(split.preferred_nodes.empty());
    auto reader = OpenSplitRowReader(dfs_, desc, split, scan);
    ASSERT_TRUE(reader.ok());
    Row row;
    while (true) {
      auto more = (*reader)->Next(&row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      all.push_back(row);
    }
  }
  ASSERT_EQ(all.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(all[i], rows[i]);
}

TEST_P(StorageFormatTest, BatchReaderMatchesRowReader) {
  const TableDesc desc = WriteTable(MakeRows(300));
  auto splits = ListTableSplits(dfs_, desc);
  ASSERT_TRUE(splits.ok());
  ScanOptions scan;
  scan.projection = {"id", "name"};
  for (const StorageSplit& split : *splits) {
    auto batch_reader = OpenSplitBatchReader(dfs_, desc, split, scan);
    ASSERT_TRUE(batch_reader.ok());
    RowBatch batch((*batch_reader)->output_schema());
    std::vector<Row> from_batches;
    while (true) {
      auto more = (*batch_reader)->NextBatch(&batch, 7);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      EXPECT_LE(batch.num_rows(), 7);
      for (int64_t i = 0; i < batch.num_rows(); ++i) {
        from_batches.push_back(batch.GetRow(i));
      }
    }
    auto row_reader = OpenSplitRowReader(dfs_, desc, split, scan);
    ASSERT_TRUE(row_reader.ok());
    Row row;
    size_t i = 0;
    while (true) {
      auto more = (*row_reader)->Next(&row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      ASSERT_LT(i, from_batches.size());
      EXPECT_EQ(from_batches[i++], row);
    }
    EXPECT_EQ(i, from_batches.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, StorageFormatTest,
                         ::testing::Values(kFormatText, kFormatBinaryRow,
                                           kFormatCif, kFormatRcFile),
                         [](const auto& info) { return info.param; });

TEST(ByteIoTest, PrimitiveRoundTrip) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU16(65535);
  writer.PutU32(123456789);
  writer.PutI64(-42);
  writer.PutF64(3.25);
  writer.PutString("hey");

  ByteReader reader(writer.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  std::string s;
  ASSERT_TRUE(reader.GetU8(&u8).ok());
  ASSERT_TRUE(reader.GetU16(&u16).ok());
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetI64(&i64).ok());
  ASSERT_TRUE(reader.GetF64(&f64).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456789u);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.25);
  EXPECT_EQ(s, "hey");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, TruncatedReadsFail) {
  ByteWriter writer;
  writer.PutU16(300);
  ByteReader reader(writer.bytes());
  uint32_t v;
  EXPECT_FALSE(reader.GetU32(&v).ok());
  std::string s;
  ByteReader reader2(writer.bytes());
  EXPECT_FALSE(reader2.GetString(&s).ok());  // length 300 > remaining
}

TEST(ByteIoTest, PatchU32) {
  ByteWriter writer;
  writer.PutU32(0);
  writer.PutString("xy");
  writer.PatchU32(0, static_cast<uint32_t>(writer.size() - 4));
  ByteReader reader(writer.bytes());
  uint32_t len;
  ASSERT_TRUE(reader.GetU32(&len).ok());
  EXPECT_EQ(len, reader.remaining());
}

TEST(RowCodecTest, BinaryRoundTrip) {
  auto schema = TestSchema();
  const Row row = MakeRow(17);
  ByteWriter writer;
  EncodeRow(row, &writer);
  EXPECT_EQ(writer.size(), EncodedRowSize(row));
  ByteReader reader(writer.bytes());
  Row decoded;
  ASSERT_TRUE(DecodeRow(*schema, &reader, &decoded).ok());
  EXPECT_EQ(decoded, row);
}

TEST(RowCodecTest, TextRoundTrip) {
  auto schema = TestSchema();
  const Row row = MakeRow(3);
  Row parsed;
  ASSERT_TRUE(ParseRowText(*schema, FormatRowText(row), &parsed).ok());
  EXPECT_EQ(parsed.Get(0).i32(), 3);
  EXPECT_EQ(parsed.Get(3).str(), "name-3");
}

TEST(RowCodecTest, TextParseRejectsBadFieldCount) {
  auto schema = TestSchema();
  Row parsed;
  EXPECT_FALSE(ParseRowText(*schema, "1|2", &parsed).ok());
}

TEST(RowCodecTest, TextParseRejectsBadInt) {
  Row parsed;
  auto schema = Schema::Make({{"n", TypeKind::kInt32, 0}});
  EXPECT_FALSE(ParseRowText(*schema, "abc", &parsed).ok());

  // Out-of-range and partially numeric fields are errors, not a wrapped,
  // saturated or truncated value.
  const struct {
    TypeKind type;
    const char* text;
  } bad[] = {
      {TypeKind::kInt32, "4294967297"},
      {TypeKind::kInt32, "12abc"},
      {TypeKind::kInt64, "99999999999999999999"},
      {TypeKind::kDouble, "1.5xyz"},
  };
  for (const auto& c : bad) {
    auto one = Schema::Make({{"f", c.type, 0}});
    const Status status = ParseRowText(*one, c.text, &parsed);
    EXPECT_EQ(status.code(), StatusCode::kIoError) << c.text;
    EXPECT_NE(status.ToString().find(c.text), std::string::npos)
        << status.ToString();
  }
}

TEST(RowStreamTest, EncodeDecodeRoundTrip) {
  auto schema = TestSchema();
  const std::vector<Row> rows = MakeRows(20);
  std::vector<uint8_t> bytes = EncodeRowStream(rows);
  auto decoded = DecodeRowStream(*schema, bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ((*decoded)[i], rows[i]);
}

TEST(RowStreamTest, ColumnsViewTheStream) {
  auto schema = TestSchema();
  const std::vector<Row> rows = MakeRows(20);
  std::vector<uint8_t> bytes = EncodeRowStream(rows);
  auto columns = DecodeRowStreamColumns(schema, bytes.data(), bytes.size());
  ASSERT_TRUE(columns.ok()) << columns.status().ToString();
  ASSERT_EQ(columns->num_rows(), 20);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(columns->GetRow(i), rows[static_cast<size_t>(i)]);
  }
  const std::string_view name = columns->column(3).StringViewAt(7);
  EXPECT_GE(reinterpret_cast<const uint8_t*>(name.data()), bytes.data());
  EXPECT_LT(reinterpret_cast<const uint8_t*>(name.data()),
            bytes.data() + bytes.size());

  // A row whose length prefix claims more or fewer bytes than its fields.
  for (const int delta : {-1, 1}) {
    std::vector<uint8_t> bad = bytes;
    uint32_t n = 0;
    std::memcpy(&n, bad.data(), sizeof(n));
    n = static_cast<uint32_t>(static_cast<int64_t>(n) + delta);
    std::memcpy(bad.data(), &n, sizeof(n));
    EXPECT_EQ(DecodeRowStreamColumns(schema, bad.data(), bad.size())
                  .status()
                  .code(),
              StatusCode::kIoError)
        << delta;
  }
  bytes.resize(bytes.size() - 3);
  EXPECT_EQ(
      DecodeRowStreamColumns(schema, bytes.data(), bytes.size()).status().code(),
      StatusCode::kIoError);
}

TEST(ColumnImageTest, ReaderProjectsFiltersAndCountsTheBytesItReads) {
  auto schema = TestSchema();
  const std::vector<Row> rows = MakeRows(5000);
  const std::vector<uint8_t> image = EncodeColumnImage(schema, rows);
  ScanOptions options;
  options.projection = {"name", "id"};
  auto spec = std::make_shared<ScanSpec>();
  spec->conjuncts = {Predicate::Lt("id", Value(int32_t{1000}))};
  options.scan_spec = spec;
  ScanStats stats;
  hdfs::IoStats io;
  options.scan_stats = &stats;
  options.stats = &io;
  auto reader = OpenColumnImageReader(*schema, image.data(), image.size(),
                                      options);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  RowBatch batch((*reader)->output_schema());
  int64_t next = 0;
  while (true) {
    auto more = (*reader)->NextBatch(&batch, 700);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    for (int64_t i = 0; i < batch.num_rows(); ++i, ++next) {
      const Row& row = rows[static_cast<size_t>(next)];
      EXPECT_EQ(batch.GetRow(i), Row({row.Get(3), row.Get(0)}));
    }
  }
  EXPECT_EQ(next, 1000);
  EXPECT_EQ(stats.rows_read, 1000u);
  EXPECT_EQ(stats.rows_pruned, 4000u);
  // The directory and two of the four blocks: more than id's alone, less
  // than all four.
  EXPECT_GT(io.local_bytes_read, stats.bytes_encoded);
  auto bytes_read = [&](std::vector<std::string> projection) {
    ScanOptions o;
    o.projection = std::move(projection);
    hdfs::IoStats counted;
    o.stats = &counted;
    CLY_CHECK(OpenColumnImageReader(*schema, image.data(), image.size(), o)
                  .ok());
    return counted.local_bytes_read;
  };
  EXPECT_LT(bytes_read({"id"}), io.local_bytes_read);
  EXPECT_LT(io.local_bytes_read, bytes_read({}));
  EXPECT_LE(bytes_read({}), image.size());

  // An empty table is a valid image with no rows.
  const std::vector<uint8_t> empty = EncodeColumnImage(schema, {});
  auto none = OpenColumnImageReader(*schema, empty.data(), empty.size(), {});
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  RowBatch out((*none)->output_schema());
  auto more = (*none)->NextBatch(&out, 10);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(CifTest, ColumnProjectionReadsFewerBytes) {
  hdfs::DfsOptions options;
  options.num_nodes = 4;
  options.block_size = 4096;
  hdfs::MiniDfs dfs(options);

  TableDesc desc;
  desc.path = "/cif";
  desc.format = kFormatCif;
  desc.schema = TestSchema();
  desc.rows_per_split = 64;
  auto writer = OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : MakeRows(256)) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto loaded = LoadTableDesc(dfs, desc.path);
  ASSERT_TRUE(loaded.ok());

  auto splits = ListTableSplits(dfs, *loaded);
  ASSERT_TRUE(splits.ok());

  hdfs::IoStats narrow, wide;
  {
    ScanOptions scan;
    scan.projection = {"id"};
    scan.stats = &narrow;
    for (const auto& split : *splits) {
      ASSERT_TRUE(OpenSplitRowReader(dfs, *loaded, split, scan).ok());
    }
  }
  {
    ScanOptions scan;
    scan.stats = &wide;
    for (const auto& split : *splits) {
      ASSERT_TRUE(OpenSplitRowReader(dfs, *loaded, split, scan).ok());
    }
  }
  EXPECT_LT(narrow.TotalRead() * 3, wide.TotalRead())
      << "1 of 4 columns should read far fewer bytes";
}

TEST(CifTest, OversizedSplitIsRejected) {
  hdfs::DfsOptions options;
  options.num_nodes = 2;
  options.block_size = 64;  // tiny blocks
  hdfs::MiniDfs dfs(options);
  TableDesc desc;
  desc.path = "/cif2";
  desc.format = kFormatCif;
  desc.schema = TestSchema();
  desc.rows_per_split = 1000;  // 1000 int32s cannot fit a 64-byte block
  auto writer = OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  Status st;
  for (const Row& row : MakeRows(1000)) {
    st = (*writer)->Append(row);
    if (!st.ok()) break;
  }
  EXPECT_FALSE(st.ok());
}

TEST(CifDictionaryTest, LowCardinalityStringsRoundTripCompactly) {
  hdfs::DfsOptions options;
  options.num_nodes = 2;
  options.block_size = 64 * 1024;
  options.replication = 1;
  hdfs::MiniDfs dfs(options);

  // Two string columns: one with 4 distinct values (dictionary-encoded) and
  // one with unique values per row (plain encoding).
  TableDesc desc;
  desc.path = "/dict";
  desc.format = kFormatCif;
  desc.schema = Schema::Make({{"mode", TypeKind::kString, 8},
                              {"unique", TypeKind::kString, 12}});
  desc.rows_per_split = 512;
  const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  std::vector<Row> rows;
  auto writer = OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 2000; ++i) {
    Row row({Value(modes[i % 4]),
             Value(std::string("unique-value-") + std::to_string(i))});
    ASSERT_TRUE((*writer)->Append(row).ok());
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*writer)->Close().ok());

  auto loaded = LoadTableDesc(dfs, "/dict");
  ASSERT_TRUE(loaded.ok());
  ScanOptions scan;
  auto read = ScanTableToVector(dfs, *loaded, scan);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ((*read)[i], rows[i]);

  // The dictionary column stores ~1 byte/row; the unique column cannot.
  auto mode_info = dfs.Stat("/dict/mode.col");
  auto unique_info = dfs.Stat("/dict/unique.col");
  ASSERT_TRUE(mode_info.ok());
  ASSERT_TRUE(unique_info.ok());
  EXPECT_LT((*mode_info)->length, 2000u * 2);
  EXPECT_GT((*unique_info)->length, 2000u * 15);
}

TEST(CifDictionaryTest, MoreThan256DistinctFallsBackToPlain) {
  hdfs::DfsOptions options;
  options.num_nodes = 2;
  options.block_size = 128 * 1024;
  options.replication = 1;
  hdfs::MiniDfs dfs(options);
  TableDesc desc;
  desc.path = "/many";
  desc.format = kFormatCif;
  desc.schema = Schema::Make({{"s", TypeKind::kString, 8}});
  desc.rows_per_split = 1024;
  auto writer = OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 1024; ++i) {  // 512 distinct values > 256
    Row row({Value(std::string("v") + std::to_string(i % 512))});
    ASSERT_TRUE((*writer)->Append(row).ok());
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*writer)->Close().ok());
  auto loaded = LoadTableDesc(dfs, "/many");
  ASSERT_TRUE(loaded.ok());
  ScanOptions scan;
  auto read = ScanTableToVector(dfs, *loaded, scan);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ((*read)[i], rows[i]);
}

TEST(TableMetaTest, MissingMetaIsNotFound) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  EXPECT_TRUE(LoadTableDesc(dfs, "/missing").status().IsNotFound());
}

TEST(TableMetaTest, UnknownFormatRejected) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  TableDesc desc;
  desc.path = "/t";
  desc.format = "parquet";
  desc.schema = TestSchema();
  EXPECT_FALSE(OpenTableWriter(&dfs, desc).ok());
}

// RCFile cells are encoded from typed columns. Each must be exactly the
// text Value::ToString() gives (the reader parses that text back), and the
// 255-char cell limit still holds.
TEST(RcFileCodecTest, TypedCellsMatchValueToString) {
  hdfs::MiniDfs dfs(hdfs::DfsOptions{});
  TableDesc desc;
  desc.path = "/rc";
  desc.format = kFormatRcFile;
  desc.schema = TestSchema();
  desc.rows_per_split = 8;
  auto writer = OpenRcFileTableWriter(&dfs, desc);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  const std::vector<Row> rows = {
      Row({Value(INT32_MIN), Value(INT64_MIN), Value(-0.5),
           Value(std::string())}),
      Row({Value(int32_t{-1}), Value(int64_t{-1}), Value(1e300),
           Value(std::string(255, 'x'))}),
      Row({Value(int32_t{0}), Value(INT64_MAX), Value(0.00005), Value("a")}),
      Row({Value(INT32_MAX), Value(int64_t{0}), Value(3.14159), Value("|")}),
  };
  RowBatch batch(desc.schema);
  for (const Row& row : rows) batch.AppendRow(row);
  for (int c = 0; c < desc.schema->num_fields(); ++c) {
    std::vector<uint8_t> chunk;
    ASSERT_TRUE((*writer)->EncodeColumn(batch, c, &chunk).ok());
    size_t pos = 0;
    for (const Row& row : rows) {
      ASSERT_LT(pos, chunk.size());
      const size_t len = chunk[pos++];
      ASSERT_LE(pos + len, chunk.size());
      EXPECT_EQ(std::string(chunk.begin() + static_cast<long>(pos),
                            chunk.begin() + static_cast<long>(pos + len)),
                row.Get(c).ToString())
          << "column " << c;
      pos += len;
    }
    EXPECT_EQ(pos, chunk.size());
  }

  const Row too_long({Value(int32_t{1}), Value(int64_t{1}), Value(1.0),
                      Value(std::string(256, 'x'))});
  RowBatch bad(desc.schema);
  bad.AppendRow(too_long);
  std::vector<uint8_t> chunk;
  EXPECT_EQ((*writer)->EncodeColumn(bad, 3, &chunk).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->Close().ok());

  // The row-at-a-time path shares the encoder and the limit.
  desc.path = "/rc2";
  auto row_writer = OpenTableWriter(&dfs, desc);
  ASSERT_TRUE(row_writer.ok());
  ASSERT_TRUE((*row_writer)->Append(too_long).ok());
  EXPECT_EQ((*row_writer)->Close().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace storage
}  // namespace clydesdale
