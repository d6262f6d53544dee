#ifndef CLYDESDALE_SIM_WORKLOAD_H_
#define CLYDESDALE_SIM_WORKLOAD_H_

#include <string>
#include <vector>

#include "core/star_query.h"
#include "hive/hive_plan.h"
#include "mapreduce/engine.h"
#include "ssb/loader.h"

namespace clydesdale {
namespace sim {

/// Per-dimension statistics measured from a functional run at small scale;
/// the cost model re-scales them to the target scale factor.
struct DimStat {
  std::string name;
  /// False for Date: its cardinality is fixed at every scale factor.
  bool scales_with_sf = true;
  uint64_t rows = 0;             // dimension rows at the measured SF
  uint64_t entries = 0;          // rows qualifying the query's predicate
  uint64_t hash_memory_bytes = 0;  // in-memory hash size (measured build)
  uint64_t hash_serialized_bytes = 0;  // mapjoin broadcast file size
  uint64_t replica_bytes = 0;    // the dimension's size in binary rows
};

/// Everything the cost model needs about one query, measured by actually
/// executing the data paths at the loaded (small) scale factor.
struct QueryMeasurement {
  core::StarQuerySpec spec;
  double measured_sf = 0;
  uint64_t fact_rows = 0;

  // Exact storage widths (bytes/row), measured from the loaded tables.
  double cif_projected_width = 0;  // query's fact columns, binary columnar
  double cif_full_width = 0;       // all fact columns, binary columnar
  double rcfile_projected_width = 0;  // query's fact columns, RCFile text
  double rcfile_full_width = 0;

  std::vector<DimStat> dims;  // in spec order

  /// survivors_after[i] = fact rows surviving the fact predicate plus joins
  /// with dims[0..i] (Hive's intermediate sizes). The last entry equals the
  /// final join output.
  std::vector<uint64_t> survivors_after;
  /// Fact rows passing the fact predicate alone.
  uint64_t predicate_survivors = 0;
  /// Result group count (does not scale with SF).
  uint64_t groups = 0;

  /// Average encoded widths of the Hive plan's intermediate tables
  /// (output of join stage i), from the compiled plan schemas: binary and
  /// Hive's text serialization (what the paper's Hive round-tripped).
  std::vector<double> hive_stage_output_width;
  std::vector<double> hive_stage_output_text_width;
  /// Serialized (pk + aux) bytes per mapjoin hash entry, per join stage.
  std::vector<double> hash_payload_per_entry;
  /// Width of one shuffled fact record in join stage i (key + value).
  std::vector<double> hive_stage_shuffle_width;
};

/// Measures `spec` against a loaded dataset: one projected fact scan with
/// incremental dimension probes (survivor counts per join prefix), per-dim
/// hash builds, and width measurements from the stored tables.
Result<QueryMeasurement> MeasureQuery(mr::MrCluster* cluster,
                                      const ssb::SsbDataset& dataset,
                                      const core::StarQuerySpec& spec);

/// Multiplier taking one dimension's quantities from `measured_sf` to
/// `target_sf`. Linear for customer/supplier, constant for date, and the
/// SSB log2 growth rule for part — which is why a single global ratio would
/// be wrong.
double DimScaleFactor(const DimStat& dim, double measured_sf,
                      double target_sf);

}  // namespace sim
}  // namespace clydesdale

#endif  // CLYDESDALE_SIM_WORKLOAD_H_
