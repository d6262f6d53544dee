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
  /// LocalStore path of the per-node replica (EncodeRowStream bytes).
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

/// Copies a dimension's master data from HDFS onto every node's local disk
/// (the install step in paper §4; new nodes or nodes with failed disks call
/// it again).
Status ReplicateDimensionToAllNodes(mr::MrCluster* cluster,
                                    const DimTableInfo& dim);

/// Installs `bytes` — the dimension's row stream, byte-identical to its
/// master's data file — as the local replica on every node.
Status InstallDimensionReplicas(mr::MrCluster* cluster, const DimTableInfo& dim,
                                const hdfs::BlockBuffer& bytes);

/// Task-side access to a dimension replica: reads the node-local copy, or —
/// if this node lost it — re-fetches from HDFS and restores the local copy.
/// Returns the raw row-stream bytes and accounts the local read to `context`.
Result<hdfs::BlockBuffer> ReadDimensionReplica(mr::TaskContext* context,
                                               const DimTableInfo& dim);

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_STAR_SCHEMA_H_
