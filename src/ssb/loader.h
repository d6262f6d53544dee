#ifndef CLYDESDALE_SSB_LOADER_H_
#define CLYDESDALE_SSB_LOADER_H_

#include <string>

#include "core/star_schema.h"
#include "mapreduce/engine.h"
#include "ssb/dbgen.h"

namespace clydesdale {
namespace ssb {

struct SsbLoadOptions {
  double scale_factor = 0.01;
  std::string root = "/ssb";
  uint64_t seed = 19920101;
  /// Rows per CIF split / RCFile row group; 0 picks a value that gives every
  /// node several splits and respects the DFS block size.
  uint64_t rows_per_split = 0;
  /// Also write the fact table in RCFile (the Hive baseline's format).
  bool with_rcfile = true;
};

/// A loaded SSB deployment.
struct SsbDataset {
  /// Fact in MultiCIF-ready CIF format + the four dimensions, with local
  /// replicas installed on every node (paper §6.2 storage setup).
  core::StarSchema star;
  /// Fact copy in RCFile for the Hive baseline (empty path when disabled).
  storage::TableDesc fact_rcfile;
  SsbCardinalities cards;
  uint64_t lineorder_rows = 0;
  double scale_factor = 0;
};

/// Generates SSB data at the given scale and loads it into the cluster:
/// the CIF fact table (+ optional RCFile copy) in HDFS, dimensions as binary
/// tables in HDFS with replicas on every node's local disk. Generation and
/// encoding run on all cores; the files are byte-identical whatever the
/// thread count. A scale factor that is not positive, or whose order count
/// passes INT32_MAX (above ~1431), is InvalidArgument.
Result<SsbDataset> LoadSsb(mr::MrCluster* cluster,
                           const SsbLoadOptions& options);

}  // namespace ssb
}  // namespace clydesdale

#endif  // CLYDESDALE_SSB_LOADER_H_
