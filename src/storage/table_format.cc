#include "storage/table_format.h"

#include "common/strings.h"
#include "storage/binary_row_format.h"
#include "storage/cif.h"
#include "storage/rcfile.h"
#include "storage/text_format.h"

namespace clydesdale {
namespace storage {

namespace {
Result<TypeKind> ParseTypeKind(const std::string& s) {
  if (s == "int32") return TypeKind::kInt32;
  if (s == "int64") return TypeKind::kInt64;
  if (s == "double") return TypeKind::kDouble;
  if (s == "string") return TypeKind::kString;
  return Status::IoError(StrCat("bad type in meta: '", s, "'"));
}

/// Parses the whole of `s` as a number; anything else is an IoError naming
/// the offending meta key.
template <typename T>
Result<T> ParseMetaNumber(const std::string& key, const std::string& s) {
  T value{};
  if (!ParseWholeNumber(s, &value)) {
    return Status::IoError(StrCat("bad ", key, " in meta: '", s, "'"));
  }
  return value;
}

// The only CIF on-disk layout (storage/cif.h). Recorded in every CIF table's
// meta so files written in any other layout are refused, not misparsed.
constexpr uint64_t kCifVersion = 3;
}  // namespace

Status SaveTableDesc(hdfs::MiniDfs* dfs, const TableDesc& desc) {
  std::string meta;
  meta += StrCat("format=", desc.format, "\n");
  meta += StrCat("rows=", desc.num_rows, "\n");
  meta += StrCat("rows_per_split=", desc.rows_per_split, "\n");
  if (desc.format == kFormatCif) {
    meta += StrCat("cif_version=", kCifVersion, "\n");
  }
  if (!desc.segment_rows.empty()) {
    std::vector<std::string> counts;
    for (uint64_t r : desc.segment_rows) counts.push_back(StrCat(r));
    meta += StrCat("segment_rows=", StrJoin(counts, ","), "\n");
  }
  std::vector<std::string> cols;
  for (const Field& f : desc.schema->fields()) {
    cols.push_back(StrCat(f.name, ":", TypeKindToString(f.type), ":",
                          FormatDouble(f.avg_width, 2)));
  }
  meta += StrCat("columns=", StrJoin(cols, ","), "\n");
  const std::string meta_path = desc.path + "/_meta";
  if (dfs->Exists(meta_path)) CLY_RETURN_IF_ERROR(dfs->Delete(meta_path));
  return dfs->WriteFile(meta_path, meta);
}

Result<TableDesc> LoadTableDesc(const hdfs::MiniDfs& dfs,
                                const std::string& path) {
  CLY_ASSIGN_OR_RETURN(std::string meta,
                       dfs.ReadFileToString(path + "/_meta"));
  TableDesc desc;
  desc.path = path;
  uint64_t cif_version = 0;
  for (const std::string& line : StrSplit(meta, '\n')) {
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::IoError(StrCat("bad meta line: '", line, "'"));
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "format") {
      desc.format = value;
    } else if (key == "rows") {
      CLY_ASSIGN_OR_RETURN(desc.num_rows,
                           ParseMetaNumber<uint64_t>(key, value));
    } else if (key == "rows_per_split") {
      CLY_ASSIGN_OR_RETURN(desc.rows_per_split,
                           ParseMetaNumber<uint64_t>(key, value));
    } else if (key == "cif_version") {
      CLY_ASSIGN_OR_RETURN(cif_version, ParseMetaNumber<uint64_t>(key, value));
    } else if (key == "segment_rows") {
      for (const std::string& r : StrSplit(value, ',')) {
        CLY_ASSIGN_OR_RETURN(uint64_t rows, ParseMetaNumber<uint64_t>(key, r));
        desc.segment_rows.push_back(rows);
      }
    } else if (key == "columns") {
      std::vector<Field> fields;
      for (const std::string& col : StrSplit(value, ',')) {
        const std::vector<std::string> parts = StrSplit(col, ':');
        if (parts.size() != 3) {
          return Status::IoError(StrCat("bad column in meta: '", col, "'"));
        }
        CLY_ASSIGN_OR_RETURN(TypeKind type, ParseTypeKind(parts[1]));
        CLY_ASSIGN_OR_RETURN(double width,
                             ParseMetaNumber<double>("column width", parts[2]));
        fields.push_back(Field{parts[0], type, width});
      }
      desc.schema = Schema::Make(std::move(fields));
    }
  }
  if (desc.schema == nullptr || desc.format.empty()) {
    return Status::IoError(StrCat("incomplete meta for ", path));
  }
  if (desc.format == kFormatCif && cif_version != kCifVersion) {
    return Status::IoError(StrCat("unsupported CIF layout version ",
                                  cif_version, " for ", path, " (expected ",
                                  kCifVersion, ")"));
  }
  return desc;
}

SplitTableWriter::SplitTableWriter(hdfs::MiniDfs* dfs, TableDesc desc)
    : dfs_(dfs), desc_(std::move(desc)), buffer_(desc_.schema) {}

Status SplitTableWriter::Append(const Row& row) {
  buffer_.AppendRow(row);
  if (static_cast<uint64_t>(buffer_.num_rows()) == desc_.rows_per_split) {
    return FlushBuffer();
  }
  return Status::OK();
}

Status SplitTableWriter::Close() {
  if (buffer_.num_rows() > 0) CLY_RETURN_IF_ERROR(FlushBuffer());
  return Finish(rows_);
}

Status SplitTableWriter::AppendEncodedSplit(
    uint64_t rows, const std::vector<std::vector<uint8_t>>& columns) {
  if (buffer_.num_rows() > 0) {
    return Status::FailedPrecondition(
        "encoded split appended while rows are buffered");
  }
  CLY_RETURN_IF_ERROR(WriteSplit(rows, columns));
  rows_ += rows;
  return Status::OK();
}

Status SplitTableWriter::FlushBuffer() {
  const auto rows = static_cast<uint64_t>(buffer_.num_rows());
  std::vector<std::vector<uint8_t>> columns(
      static_cast<size_t>(buffer_.num_columns()));
  for (int c = 0; c < buffer_.num_columns(); ++c) {
    CLY_RETURN_IF_ERROR(
        EncodeColumn(buffer_, c, &columns[static_cast<size_t>(c)]));
  }
  buffer_.Clear();
  CLY_RETURN_IF_ERROR(WriteSplit(rows, columns));
  rows_ += rows;
  return Status::OK();
}

Result<std::unique_ptr<TableWriter>> OpenTableWriter(hdfs::MiniDfs* dfs,
                                                     const TableDesc& desc) {
  if (desc.schema == nullptr || desc.schema->num_fields() == 0) {
    return Status::InvalidArgument("table needs a non-empty schema");
  }
  if (desc.format == kFormatText) return OpenTextTableWriter(dfs, desc);
  if (desc.format == kFormatBinaryRow) {
    return OpenBinaryRowTableWriter(dfs, desc);
  }
  std::unique_ptr<SplitTableWriter> writer;
  if (desc.format == kFormatCif) {
    CLY_ASSIGN_OR_RETURN(writer, OpenCifTableWriter(dfs, desc));
  } else if (desc.format == kFormatRcFile) {
    CLY_ASSIGN_OR_RETURN(writer, OpenRcFileTableWriter(dfs, desc));
  } else {
    return Status::InvalidArgument(
        StrCat("unknown format '", desc.format, "'"));
  }
  return std::unique_ptr<TableWriter>(std::move(writer));
}

Result<std::vector<StorageSplit>> ListTableSplits(const hdfs::MiniDfs& dfs,
                                                  const TableDesc& desc) {
  if (desc.format == kFormatText) return ListTextSplits(dfs, desc);
  if (desc.format == kFormatBinaryRow) return ListBinaryRowSplits(dfs, desc);
  if (desc.format == kFormatCif) return ListCifSplits(dfs, desc);
  if (desc.format == kFormatRcFile) return ListRcFileSplits(dfs, desc);
  return Status::InvalidArgument(StrCat("unknown format '", desc.format, "'"));
}

Result<std::unique_ptr<RowReader>> OpenSplitRowReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  if (desc.format == kFormatText) {
    return OpenTextSplitReader(dfs, desc, split, options);
  }
  if (desc.format == kFormatBinaryRow) {
    return OpenBinaryRowSplitReader(dfs, desc, split, options);
  }
  if (desc.format == kFormatCif) {
    return OpenCifSplitRowReader(dfs, desc, split, options);
  }
  if (desc.format == kFormatRcFile) {
    return OpenRcFileSplitReader(dfs, desc, split, options);
  }
  return Status::InvalidArgument(StrCat("unknown format '", desc.format, "'"));
}

Result<std::unique_ptr<BatchReader>> OpenSplitBatchReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  if (desc.format == kFormatCif) {
    return OpenCifSplitBatchReader(dfs, desc, split, options);
  }
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<RowReader> rows,
                       OpenSplitRowReader(dfs, desc, split, options));
  return AdaptRowReaderToBatch(std::move(rows));
}

Result<std::vector<int>> ResolveProjection(const Schema& schema,
                                           const ScanOptions& options) {
  std::vector<int> indexes;
  if (options.projection.empty()) {
    indexes.resize(static_cast<size_t>(schema.num_fields()));
    for (int i = 0; i < schema.num_fields(); ++i) {
      indexes[static_cast<size_t>(i)] = i;
    }
    return indexes;
  }
  indexes.reserve(options.projection.size());
  for (const std::string& name : options.projection) {
    CLY_ASSIGN_OR_RETURN(int idx, schema.Require(name));
    indexes.push_back(idx);
  }
  return indexes;
}

Result<std::vector<Row>> ScanTableToVector(const hdfs::MiniDfs& dfs,
                                           const TableDesc& desc,
                                           const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::vector<StorageSplit> splits,
                       ListTableSplits(dfs, desc));
  std::vector<Row> rows;
  rows.reserve(desc.num_rows);
  for (const StorageSplit& split : splits) {
    CLY_ASSIGN_OR_RETURN(std::unique_ptr<RowReader> reader,
                         OpenSplitRowReader(dfs, desc, split, options));
    Row row;
    while (true) {
      CLY_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
      if (!more) break;
      rows.push_back(row);
    }
  }
  return rows;
}

namespace {

class RowToBatchAdapter final : public BatchReader {
 public:
  explicit RowToBatchAdapter(std::unique_ptr<RowReader> reader)
      : reader_(std::move(reader)) {}

  Result<bool> NextBatch(RowBatch* out, int64_t max_rows) override {
    out->Clear();
    Row row;
    for (int64_t i = 0; i < max_rows; ++i) {
      CLY_ASSIGN_OR_RETURN(bool more, reader_->Next(&row));
      if (!more) break;
      out->AppendRow(row);
    }
    return out->num_rows() > 0;
  }

  const SchemaPtr& output_schema() const override {
    return reader_->output_schema();
  }

 private:
  std::unique_ptr<RowReader> reader_;
};

}  // namespace

std::unique_ptr<BatchReader> AdaptRowReaderToBatch(
    std::unique_ptr<RowReader> reader) {
  return std::make_unique<RowToBatchAdapter>(std::move(reader));
}

}  // namespace storage
}  // namespace clydesdale
