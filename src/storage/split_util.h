#ifndef CLYDESDALE_STORAGE_SPLIT_UTIL_H_
#define CLYDESDALE_STORAGE_SPLIT_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/table_format.h"

namespace clydesdale {
namespace storage {
namespace internal {

/// Builds one StorageSplit per HDFS block of `data_path`. Row-aligned block
/// writing (writers call CloseBlock at row boundaries) makes this exact.
inline Result<std::vector<StorageSplit>> BuildBlockSplits(
    const hdfs::MiniDfs& dfs, const TableDesc& desc,
    const std::string& data_path) {
  CLY_ASSIGN_OR_RETURN(std::shared_ptr<const hdfs::FileInfo> info,
                       dfs.Stat(data_path));
  std::vector<StorageSplit> splits;
  splits.reserve(info->blocks.size());
  for (size_t b = 0; b < info->blocks.size(); ++b) {
    StorageSplit split;
    split.table_path = desc.path;
    split.format = desc.format;
    split.index = static_cast<int>(b);
    split.length_bytes = info->blocks[b].length;
    split.preferred_nodes = dfs.AliveReplicas(info->blocks[b]);
    splits.push_back(std::move(split));
  }
  return splits;
}

/// Byte range [begin, end) of block `index` within `info`.
inline void BlockByteRange(const hdfs::FileInfo& info, int index,
                           uint64_t* begin, uint64_t* end) {
  const auto b = static_cast<size_t>(index);
  *begin = info.block_offsets[b];
  *end = *begin + info.blocks[b].length;
}

}  // namespace internal
}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_SPLIT_UTIL_H_
