#include "storage/rcfile.h"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "common/strings.h"
#include "storage/byte_io.h"
#include "storage/row_codec.h"
#include "storage/split_util.h"

namespace clydesdale {
namespace storage {

namespace {

constexpr const char kDataFile[] = "/data.rc";
constexpr uint32_t kMagic = 0x52434631;  // "RCF1"

/// Appends one cell: a u8 length, then the text.
Status PutCell(std::string_view text, std::vector<uint8_t>* chunk) {
  if (text.size() > 255) {
    return Status::InvalidArgument(
        StrCat("rcfile value too long (", text.size(), " chars)"));
  }
  chunk->push_back(static_cast<uint8_t>(text.size()));
  chunk->insert(chunk->end(), text.begin(), text.end());
  return Status::OK();
}

template <typename Int>
void PutIntCells(const std::vector<Int>& values, std::vector<uint8_t>* chunk) {
  char buf[24];
  for (const Int v : values) {
    const char* const end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    chunk->push_back(static_cast<uint8_t>(end - buf));
    chunk->insert(chunk->end(), static_cast<const char*>(buf), end);
  }
}

/// Serializes a column as one chunk of text cells, each exactly the text
/// Value::ToString() gives (Hive's serde keeps fields textual).
Status EncodeTextChunk(const ColumnVector& col, std::vector<uint8_t>* chunk) {
  switch (col.type()) {
    case TypeKind::kInt32:
      PutIntCells(col.i32(), chunk);
      return Status::OK();
    case TypeKind::kInt64:
      PutIntCells(col.i64(), chunk);
      return Status::OK();
    case TypeKind::kDouble:
      for (const double v : col.f64()) {
        // The same bounded "%.4f" as Value::ToString, truncation included.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4f", v);
        CLY_RETURN_IF_ERROR(PutCell(buf, chunk));
      }
      return Status::OK();
    case TypeKind::kString:
      for (int64_t i = 0; i < col.size(); ++i) {
        CLY_RETURN_IF_ERROR(PutCell(col.StringViewAt(i), chunk));
      }
      return Status::OK();
  }
  return Status::Internal("unknown column type");
}

class RcFileTableWriter final : public SplitTableWriter {
 public:
  RcFileTableWriter(hdfs::MiniDfs* dfs, TableDesc desc,
                    std::unique_ptr<hdfs::DfsWriter> writer)
      : SplitTableWriter(dfs, std::move(desc)), writer_(std::move(writer)) {}

  Status EncodeColumn(const RowBatch& split, int c,
                      std::vector<uint8_t>* out) const override {
    out->clear();
    return EncodeTextChunk(split.column(c), out);
  }

 protected:
  // One row group per block: the header, then the chunks in column order.
  Status WriteSplit(uint64_t rows,
                    const std::vector<std::vector<uint8_t>>& columns) override {
    ByteWriter header;
    header.PutU32(kMagic);
    header.PutU32(static_cast<uint32_t>(rows));
    header.PutU32(static_cast<uint32_t>(columns.size()));
    uint64_t group_size = header.size() + 4 * columns.size();
    for (const auto& chunk : columns) {
      header.PutU32(static_cast<uint32_t>(chunk.size()));
      group_size += chunk.size();
    }
    if (group_size > dfs_->block_size()) {
      return Status::InvalidArgument(
          StrCat("rcfile row group is ", group_size,
                 " bytes but the HDFS block size is ", dfs_->block_size(),
                 "; lower rows_per_split"));
    }
    CLY_RETURN_IF_ERROR(writer_->Append(header.bytes()));
    for (const auto& chunk : columns) {
      CLY_RETURN_IF_ERROR(writer_->Append(chunk));
    }
    return writer_->CloseBlock();
  }

  Status Finish(uint64_t rows) override {
    CLY_RETURN_IF_ERROR(writer_->Close());
    desc_.num_rows = rows;
    return SaveTableDesc(dfs_, desc_);
  }

 private:
  std::unique_ptr<hdfs::DfsWriter> writer_;
};

class RcFileSplitReader final : public RowReader {
 public:
  RcFileSplitReader(SchemaPtr out_schema, std::vector<ColumnVector> columns,
                    uint32_t nrows)
      : out_schema_(std::move(out_schema)),
        columns_(std::move(columns)),
        nrows_(nrows) {}

  Result<bool> Next(Row* out) override {
    if (next_ >= nrows_) return false;
    out->Clear();
    out->Reserve(static_cast<int>(columns_.size()));
    for (const ColumnVector& col : columns_) {
      out->Append(col.GetValue(next_));
    }
    ++next_;
    return true;
  }

  const SchemaPtr& output_schema() const override { return out_schema_; }

 private:
  SchemaPtr out_schema_;
  std::vector<ColumnVector> columns_;
  uint32_t nrows_;
  uint32_t next_ = 0;
};

Status DecodeTextChunk(const std::vector<uint8_t>& chunk, TypeKind type,
                       uint32_t nrows, ColumnVector* out) {
  size_t pos = 0;
  out->Reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    if (pos >= chunk.size()) return Status::IoError("truncated rcfile chunk");
    const uint8_t len = chunk[pos++];
    if (pos + len > chunk.size()) {
      return Status::IoError("truncated rcfile value");
    }
    const std::string_view text(
        reinterpret_cast<const char*>(chunk.data()) + pos, len);
    pos += len;
    Value v;
    CLY_RETURN_IF_ERROR(ParseValueText(type, text, &v));
    out->Append(v);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<SplitTableWriter>> OpenRcFileTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc) {
  if (desc.rows_per_split == 0) {
    return Status::InvalidArgument("rcfile tables need rows_per_split > 0");
  }
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::DfsWriter> writer,
                       dfs->Create(desc.path + kDataFile));
  return std::unique_ptr<SplitTableWriter>(
      new RcFileTableWriter(dfs, desc, std::move(writer)));
}

Result<std::vector<StorageSplit>> ListRcFileSplits(const hdfs::MiniDfs& dfs,
                                                   const TableDesc& desc) {
  CLY_ASSIGN_OR_RETURN(std::vector<StorageSplit> splits,
                       internal::BuildBlockSplits(dfs, desc, desc.path + kDataFile));
  for (StorageSplit& split : splits) {
    split.row_begin = desc.rows_per_split * static_cast<uint64_t>(split.index);
    split.row_end = std::min<uint64_t>(
        desc.num_rows, desc.rows_per_split * (static_cast<uint64_t>(split.index) + 1));
  }
  return splits;
}

Result<std::unique_ptr<RowReader>> OpenRcFileSplitReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::vector<int> projection,
                       ResolveProjection(*desc.schema, options));
  SchemaPtr out_schema = desc.schema->Project(projection);

  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<hdfs::DfsReader> reader,
      dfs.Open(desc.path + kDataFile, options.reader_node, options.stats));
  uint64_t begin = 0, end = 0;
  internal::BlockByteRange(reader->file_info(), split.index, &begin, &end);

  // Header first: magic, counts, chunk length table.
  const int ncols_expected = desc.schema->num_fields();
  const size_t header_size =
      12 + sizeof(uint32_t) * static_cast<size_t>(ncols_expected);
  if (end - begin < header_size) {
    return Status::IoError("rcfile row group shorter than its header");
  }
  std::vector<uint8_t> header(header_size);
  CLY_RETURN_IF_ERROR(reader->PRead(begin, header.data(), header.size()));
  ByteReader h(header);
  uint32_t magic = 0, nrows = 0, ncols = 0;
  CLY_RETURN_IF_ERROR(h.GetU32(&magic));
  CLY_RETURN_IF_ERROR(h.GetU32(&nrows));
  CLY_RETURN_IF_ERROR(h.GetU32(&ncols));
  if (magic != kMagic || ncols != static_cast<uint32_t>(ncols_expected)) {
    return Status::IoError(StrCat("bad rcfile row group in ", desc.path));
  }
  std::vector<uint32_t> chunk_len(ncols);
  std::vector<uint64_t> chunk_offset(ncols);
  uint64_t offset = begin + header_size;
  for (uint32_t c = 0; c < ncols; ++c) {
    CLY_RETURN_IF_ERROR(h.GetU32(&chunk_len[c]));
  }
  for (uint32_t c = 0; c < ncols; ++c) {
    chunk_offset[c] = offset;
    offset += chunk_len[c];
  }

  // Fetch and decode only the projected column chunks (lazy column skip).
  std::vector<ColumnVector> columns;
  columns.reserve(projection.size());
  for (int idx : projection) {
    const Field& field = desc.schema->field(idx);
    std::vector<uint8_t> chunk(chunk_len[static_cast<size_t>(idx)]);
    if (!chunk.empty()) {
      CLY_RETURN_IF_ERROR(reader->PRead(chunk_offset[static_cast<size_t>(idx)],
                                        chunk.data(), chunk.size()));
    }
    ColumnVector col(field.type);
    CLY_RETURN_IF_ERROR(DecodeTextChunk(chunk, field.type, nrows, &col));
    columns.push_back(std::move(col));
  }
  return std::unique_ptr<RowReader>(new RcFileSplitReader(
      std::move(out_schema), std::move(columns), nrows));
}

}  // namespace storage
}  // namespace clydesdale
