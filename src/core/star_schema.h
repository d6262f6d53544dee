#ifndef CLYDESDALE_CORE_STAR_SCHEMA_H_
#define CLYDESDALE_CORE_STAR_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/engine.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace core {

/// One dimension table: the master copy in HDFS plus the path under which a
/// replica is cached on every node's local disk (paper §4, Figure 2).
struct DimTableInfo {
  std::string name;
  storage::TableDesc desc;
  /// LocalStore path of the per-node replica: a column image of the table
  /// (storage::EncodeColumnImage), one CIF column block per field, which
  /// DimHashTable::Build reads column by column. The HDFS master stays in
  /// binary rows.
  std::string local_path;
  /// Primary key column name.
  std::string pk;
};

/// The fact table plus its dimensions — what a Clydesdale deployment
/// registers before running queries.
class StarSchema {
 public:
  StarSchema() = default;
  StarSchema(storage::TableDesc fact, std::vector<DimTableInfo> dims);

  const storage::TableDesc& fact() const { return fact_; }
  storage::TableDesc* mutable_fact() { return &fact_; }

  Result<const DimTableInfo*> dim(const std::string& name) const;
  const std::map<std::string, DimTableInfo>& dims() const { return dims_; }

  void AddDimension(DimTableInfo info);

 private:
  storage::TableDesc fact_;
  std::map<std::string, DimTableInfo> dims_;
};

/// Encodes a dimension's master data from HDFS as a column image and
/// installs it on every node's local disk (the install step in paper §4;
/// new nodes or nodes with failed disks call it again).
Status ReplicateDimensionToAllNodes(mr::MrCluster* cluster,
                                    const DimTableInfo& dim);

/// Installs `image` — the dimension's column image — as the local replica
/// on every node. Every node shares the one buffer.
Status InstallDimensionReplicas(mr::MrCluster* cluster, const DimTableInfo& dim,
                                const hdfs::BlockBuffer& image);

/// Task-side access to a dimension replica: reads the node-local copy, or —
/// if this node lost it — re-fetches the master from HDFS (accounted to the
/// task's I/O stats) and restores the local copy. Returns the column image;
/// the caller accounts the local bytes it actually reads from it.
Result<hdfs::BlockBuffer> ReadDimensionReplica(mr::TaskContext* context,
                                               const DimTableInfo& dim);

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_STAR_SCHEMA_H_
