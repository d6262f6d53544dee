#ifndef CLYDESDALE_STORAGE_RCFILE_H_
#define CLYDESDALE_STORAGE_RCFILE_H_

#include <memory>
#include <vector>

#include "storage/table_format.h"

namespace clydesdale {
namespace storage {

/// RCFile-like PAX format (paper §6.2: Hive's storage): a single file
/// `<path>/data.rc` of row groups, one group per HDFS block. Within a group
/// every column is stored contiguously as a chunk of text-serialized values
/// (Hive's serde keeps fields textual), so a reader can skip the byte ranges
/// of unneeded columns — I/O elimination inside a block, but unlike CIF the
/// split granularity stays one block of *all* columns and the values pay
/// text parsing.
///
/// Group layout: [u32 magic][u32 nrows][u32 ncols][ncols x u32 chunk bytes]
/// then per column chunk: per value u8 length + text bytes.
Result<std::unique_ptr<SplitTableWriter>> OpenRcFileTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc);
Result<std::vector<StorageSplit>> ListRcFileSplits(const hdfs::MiniDfs& dfs,
                                                   const TableDesc& desc);
Result<std::unique_ptr<RowReader>> OpenRcFileSplitReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_RCFILE_H_
