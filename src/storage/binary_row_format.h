#ifndef CLYDESDALE_STORAGE_BINARY_ROW_FORMAT_H_
#define CLYDESDALE_STORAGE_BINARY_ROW_FORMAT_H_

#include <memory>
#include <vector>

#include "storage/table_format.h"

namespace clydesdale {
namespace storage {

/// Row-oriented binary tables: length-prefixed encoded rows in
/// `<path>/data.bin`, blocks ending at row boundaries (split == block).
/// This is the format dimension-table masters use in HDFS (paper §6.2:
/// "dimension tables were stored in HDFS in binary format").
Result<std::unique_ptr<TableWriter>> OpenBinaryRowTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc);
Result<std::vector<StorageSplit>> ListBinaryRowSplits(const hdfs::MiniDfs& dfs,
                                                      const TableDesc& desc);
Result<std::unique_ptr<RowReader>> OpenBinaryRowSplitReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

/// Encodes rows into the same stream layout used by the data file (u32 length
/// + encoded row, repeated). Used for local dimension replicas and the
/// distributed cache.
std::vector<uint8_t> EncodeRowStream(const std::vector<Row>& rows);

/// Writes a whole binary-row table from a row stream (EncodeRowStream
/// layout): the same data.bin bytes, blocks and `_meta` as appending its
/// rows one by one through OpenBinaryRowTableWriter.
Status WriteBinaryRowTable(hdfs::MiniDfs* dfs, const TableDesc& desc,
                           const std::vector<uint8_t>& stream);

/// Decodes a full row stream produced by EncodeRowStream (or a data block).
Result<std::vector<Row>> DecodeRowStream(const Schema& schema,
                                         const uint8_t* data, size_t len);

/// Decodes a full row stream into columns, for re-encoding it in another
/// layout. Strings are views into [data, data + len), which must outlive
/// the batch. A row that does not end exactly at its length prefix is an
/// IoError.
Result<RowBatch> DecodeRowStreamColumns(const SchemaPtr& schema,
                                        const uint8_t* data, size_t len);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_BINARY_ROW_FORMAT_H_
