#include "storage/binary_row_format.h"

#include "common/strings.h"
#include "storage/row_codec.h"
#include "storage/split_util.h"

namespace clydesdale {
namespace storage {

namespace {

constexpr const char kDataFile[] = "/data.bin";

/// Appends one framed row, ending the current block first when the row
/// would overflow it (blocks end at row boundaries).
Status AppendFramedRow(hdfs::DfsWriter* writer, uint64_t block_size,
                       const uint8_t* framed, size_t len) {
  const uint64_t used = writer->buffered_bytes();
  if (used != 0 && used + len > block_size) {
    CLY_RETURN_IF_ERROR(writer->CloseBlock());
  }
  return writer->Append(framed, len);
}

class BinaryRowTableWriter final : public TableWriter {
 public:
  BinaryRowTableWriter(hdfs::MiniDfs* dfs, TableDesc desc,
                       std::unique_ptr<hdfs::DfsWriter> writer)
      : dfs_(dfs), desc_(std::move(desc)), writer_(std::move(writer)) {}

  Status Append(const Row& row) override {
    scratch_.Clear();
    scratch_.PutU32(0);  // placeholder for the length
    EncodeRow(row, &scratch_);
    scratch_.PatchU32(0, static_cast<uint32_t>(scratch_.size() - 4));

    CLY_RETURN_IF_ERROR(AppendFramedRow(writer_.get(), dfs_->block_size(),
                                        scratch_.bytes().data(),
                                        scratch_.size()));
    ++rows_;
    return Status::OK();
  }

  Status Close() override {
    CLY_RETURN_IF_ERROR(writer_->Close());
    desc_.num_rows = rows_;
    return SaveTableDesc(dfs_, desc_);
  }

  uint64_t rows_written() const override { return rows_; }

 private:
  hdfs::MiniDfs* dfs_;
  TableDesc desc_;
  std::unique_ptr<hdfs::DfsWriter> writer_;
  ByteWriter scratch_;
  uint64_t rows_ = 0;
};

class BinaryRowSplitReader final : public RowReader {
 public:
  BinaryRowSplitReader(SchemaPtr full_schema, SchemaPtr out_schema,
                       std::vector<int> projection, std::vector<uint8_t> data)
      : full_schema_(std::move(full_schema)),
        out_schema_(std::move(out_schema)),
        projection_(std::move(projection)),
        data_(std::move(data)),
        reader_(data_.data(), data_.size()) {}

  Result<bool> Next(Row* out) override {
    if (reader_.AtEnd()) return false;
    uint32_t len = 0;
    CLY_RETURN_IF_ERROR(reader_.GetU32(&len));
    if (reader_.remaining() < len) {
      return Status::IoError("truncated row in binary split");
    }
    ByteReader row_reader(data_.data() + reader_.position(), len);
    CLY_RETURN_IF_ERROR(DecodeRow(*full_schema_, &row_reader, &scratch_));
    CLY_RETURN_IF_ERROR(reader_.Skip(len));
    *out = scratch_.Project(projection_);
    return true;
  }

  const SchemaPtr& output_schema() const override { return out_schema_; }

 private:
  SchemaPtr full_schema_;
  SchemaPtr out_schema_;
  std::vector<int> projection_;
  std::vector<uint8_t> data_;
  ByteReader reader_;
  Row scratch_;
};

}  // namespace

Result<std::unique_ptr<TableWriter>> OpenBinaryRowTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::DfsWriter> writer,
                       dfs->Create(desc.path + kDataFile));
  return std::unique_ptr<TableWriter>(
      new BinaryRowTableWriter(dfs, desc, std::move(writer)));
}

Result<std::vector<StorageSplit>> ListBinaryRowSplits(const hdfs::MiniDfs& dfs,
                                                      const TableDesc& desc) {
  return internal::BuildBlockSplits(dfs, desc, desc.path + kDataFile);
}

Result<std::unique_ptr<RowReader>> OpenBinaryRowSplitReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::vector<int> projection,
                       ResolveProjection(*desc.schema, options));
  const std::string data_path = desc.path + kDataFile;
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<hdfs::DfsReader> reader,
      dfs.Open(data_path, options.reader_node, options.stats));
  uint64_t begin = 0, end = 0;
  internal::BlockByteRange(reader->file_info(), split.index, &begin, &end);
  std::vector<uint8_t> data(end - begin);
  if (!data.empty()) {
    CLY_RETURN_IF_ERROR(reader->PRead(begin, data.data(), data.size()));
  }
  SchemaPtr out_schema = desc.schema->Project(projection);
  return std::unique_ptr<RowReader>(
      new BinaryRowSplitReader(desc.schema, std::move(out_schema),
                               std::move(projection), std::move(data)));
}

Status WriteBinaryRowTable(hdfs::MiniDfs* dfs, const TableDesc& desc,
                           const std::vector<uint8_t>& stream) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::DfsWriter> writer,
                       dfs->Create(desc.path + kDataFile));
  ByteReader reader(stream);
  uint64_t rows = 0;
  while (!reader.AtEnd()) {
    const size_t at = reader.position();
    uint32_t len = 0;
    CLY_RETURN_IF_ERROR(reader.GetU32(&len));
    CLY_RETURN_IF_ERROR(reader.Skip(len));
    CLY_RETURN_IF_ERROR(AppendFramedRow(writer.get(), dfs->block_size(),
                                        stream.data() + at, 4 + size_t{len}));
    ++rows;
  }
  CLY_RETURN_IF_ERROR(writer->Close());
  TableDesc written = desc;
  written.num_rows = rows;
  return SaveTableDesc(dfs, written);
}

std::vector<uint8_t> EncodeRowStream(const std::vector<Row>& rows) {
  ByteWriter out;
  for (const Row& row : rows) {
    const size_t at = out.size();
    out.PutU32(0);
    EncodeRow(row, &out);
    out.PatchU32(at, static_cast<uint32_t>(out.size() - at - 4));
  }
  return out.Release();
}

Result<std::vector<Row>> DecodeRowStream(const Schema& schema,
                                         const uint8_t* data, size_t len) {
  std::vector<Row> rows;
  ByteReader reader(data, len);
  while (!reader.AtEnd()) {
    uint32_t n = 0;
    CLY_RETURN_IF_ERROR(reader.GetU32(&n));
    if (reader.remaining() < n) {
      return Status::IoError("truncated row in stream");
    }
    ByteReader row_reader(data + reader.position(), n);
    Row row;
    CLY_RETURN_IF_ERROR(DecodeRow(schema, &row_reader, &row));
    CLY_RETURN_IF_ERROR(reader.Skip(n));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<RowBatch> DecodeRowStreamColumns(const SchemaPtr& schema,
                                        const uint8_t* data, size_t len) {
  RowBatch batch(schema);
  std::vector<ColumnVector*> columns;
  for (int c = 0; c < batch.num_columns(); ++c) {
    columns.push_back(batch.mutable_column(c));
  }
  ByteReader reader(data, len);
  while (!reader.AtEnd()) {
    uint32_t n = 0;
    CLY_RETURN_IF_ERROR(reader.GetU32(&n));
    const size_t row_end = reader.position() + n;
    for (ColumnVector* col : columns) {
      switch (col->type()) {
        case TypeKind::kInt32: {
          int32_t v = 0;
          CLY_RETURN_IF_ERROR(reader.GetI32(&v));
          col->AppendInt32(v);
          break;
        }
        case TypeKind::kInt64: {
          int64_t v = 0;
          CLY_RETURN_IF_ERROR(reader.GetI64(&v));
          col->AppendInt64(v);
          break;
        }
        case TypeKind::kDouble: {
          double v = 0;
          CLY_RETURN_IF_ERROR(reader.GetF64(&v));
          col->mutable_f64()->push_back(v);
          break;
        }
        case TypeKind::kString: {
          uint16_t size = 0;
          CLY_RETURN_IF_ERROR(reader.GetU16(&size));
          const size_t at = reader.position();
          CLY_RETURN_IF_ERROR(reader.Skip(size));
          col->mutable_str_views()->emplace_back(
              reinterpret_cast<const char*>(data + at), size);
          break;
        }
      }
    }
    if (reader.position() != row_end) {
      return Status::IoError("row stream row does not end at its length");
    }
  }
  CLY_RETURN_IF_ERROR(batch.SealRowCount());
  return batch;
}

}  // namespace storage
}  // namespace clydesdale
