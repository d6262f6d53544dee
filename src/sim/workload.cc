#include "sim/workload.h"

#include <algorithm>

#include "common/strings.h"
#include "core/dim_hash_table.h"
#include "storage/cif.h"
#include "storage/row_codec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace sim {

namespace {

/// Exact bytes/row of a set of CIF columns, from the stored file lengths.
Result<double> CifWidth(mr::MrCluster* cluster, const storage::TableDesc& cif,
                        const std::vector<std::string>& columns) {
  double total = 0;
  for (const std::string& column : columns) {
    CLY_ASSIGN_OR_RETURN(std::shared_ptr<const hdfs::FileInfo> info,
                         cluster->dfs()->Stat(
                             StrCat(cif.path, "/", column, ".col")));
    total += static_cast<double>(info->length);
  }
  return total / static_cast<double>(std::max<uint64_t>(cif.num_rows, 1));
}

/// Average RCFile (text) width of a set of columns, sampled from data.
Result<double> RcTextWidth(mr::MrCluster* cluster,
                           const storage::TableDesc& cif,
                           const std::vector<std::string>& columns,
                           int sample_rows) {
  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(*cluster->dfs(), cif));
  if (splits.empty()) return 0.0;
  storage::ScanOptions scan;
  scan.projection = columns;
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::RowReader> reader,
      storage::OpenSplitRowReader(*cluster->dfs(), cif, splits[0], scan));
  Row row;
  uint64_t bytes = 0;
  int rows = 0;
  while (rows < sample_rows) {
    CLY_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
    if (!more) break;
    for (const Value& v : row.values()) {
      bytes += v.ToString().size() + 1;  // u8 length prefix per value
    }
    ++rows;
  }
  if (rows == 0) return 0.0;
  return static_cast<double>(bytes) / rows;
}

double AvgWidthOf(const Schema& schema) { return schema.AvgRowWidth(); }

/// Average width of one row under Hive-style text serialization (delimited
/// decimal rendering): what the paper's Hive wrote between stages.
double TextWidthOf(const Schema& schema) {
  double total = 0;
  for (const Field& f : schema.fields()) {
    switch (f.type) {
      case TypeKind::kInt32:
        total += 9;  // ~8 digits + delimiter
        break;
      case TypeKind::kInt64:
      case TypeKind::kDouble:
        total += 13;
        break;
      case TypeKind::kString:
        total += f.avg_width + 1;
        break;
    }
  }
  return total;
}

}  // namespace

double DimScaleFactor(const DimStat& dim, double measured_sf,
                      double target_sf) {
  if (!dim.scales_with_sf) return 1.0;
  const ssb::SsbCardinalities measured = ssb::CardinalitiesFor(measured_sf);
  const ssb::SsbCardinalities target = ssb::CardinalitiesFor(target_sf);
  auto pick = [&](const ssb::SsbCardinalities& c) -> double {
    if (dim.name == "customer") return static_cast<double>(c.customers);
    if (dim.name == "supplier") return static_cast<double>(c.suppliers);
    if (dim.name == "part") return static_cast<double>(c.parts);
    // Unknown (user-defined) dimensions scale linearly with the fact table.
    return static_cast<double>(c.orders);
  };
  return pick(target) / pick(measured);
}

Result<QueryMeasurement> MeasureQuery(mr::MrCluster* cluster,
                                      const ssb::SsbDataset& dataset,
                                      const core::StarQuerySpec& spec) {
  QueryMeasurement m;
  m.spec = spec;
  m.measured_sf = dataset.scale_factor;
  m.fact_rows = dataset.lineorder_rows;

  const core::StarSchema& star = dataset.star;
  const storage::TableDesc& cif = star.fact();
  const std::vector<std::string> fact_columns = core::FactColumnsFor(spec);
  std::vector<std::string> all_columns;
  for (const Field& f : cif.schema->fields()) all_columns.push_back(f.name);

  CLY_ASSIGN_OR_RETURN(m.cif_projected_width,
                       CifWidth(cluster, cif, fact_columns));
  CLY_ASSIGN_OR_RETURN(m.cif_full_width, CifWidth(cluster, cif, all_columns));
  CLY_ASSIGN_OR_RETURN(m.rcfile_projected_width,
                       RcTextWidth(cluster, cif, fact_columns, 2000));
  CLY_ASSIGN_OR_RETURN(m.rcfile_full_width,
                       RcTextWidth(cluster, cif, all_columns, 2000));

  // --- dimension stats (client-side builds; dims are small) -------------------
  std::vector<std::shared_ptr<const core::DimHashTable>> tables;
  std::vector<int> fk_index;
  SchemaPtr fact_schema;
  {
    std::vector<int> idx;
    for (const std::string& c : fact_columns) {
      CLY_ASSIGN_OR_RETURN(int i, cif.schema->Require(c));
      idx.push_back(i);
    }
    fact_schema = cif.schema->Project(idx);
  }
  for (const core::DimJoinSpec& join : spec.dims) {
    CLY_ASSIGN_OR_RETURN(const core::DimTableInfo* dim, star.dim(join.dimension));
    storage::ScanOptions scan;
    CLY_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        storage::ScanTableToVector(*cluster->dfs(), dim->desc, scan));
    const std::vector<uint8_t> image =
        storage::EncodeColumnImage(dim->desc.schema, rows);
    CLY_ASSIGN_OR_RETURN(
        std::shared_ptr<const core::DimHashTable> table,
        core::DimHashTable::Build(*dim->desc.schema, image.data(),
                                  image.size(), *join.predicate, join.dim_pk,
                                  join.aux_columns));
    DimStat stat;
    stat.name = join.dimension;
    stat.scales_with_sf = join.dimension != "date";
    stat.rows = dim->desc.num_rows;
    stat.entries = table->entries();
    stat.hash_memory_bytes = table->stats().memory_bytes;
    // The modelled system keeps its replicas in the HDFS master's binary
    // rows (paper §6.2), so the model reads their size, not the image's.
    stat.replica_bytes = 0;
    for (const Row& row : rows) {
      stat.replica_bytes += storage::EncodedRowSize(row) + 4;
    }
    // Serialized broadcast entry: pk + aux values of qualifying rows.
    {
      CLY_ASSIGN_OR_RETURN(BoundPredicatePtr pred,
                           join.predicate->Bind(*dim->desc.schema));
      CLY_ASSIGN_OR_RETURN(int pk, dim->desc.schema->Require(join.dim_pk));
      std::vector<int> aux_idx;
      for (const std::string& a : join.aux_columns) {
        CLY_ASSIGN_OR_RETURN(int i, dim->desc.schema->Require(a));
        aux_idx.push_back(i);
      }
      uint64_t bytes = 0;
      for (const Row& row : rows) {
        if (!pred->Eval(row)) continue;
        Row entry({row.Get(pk)});
        entry.Extend(row.Project(aux_idx));
        bytes += storage::EncodedRowSize(entry) + 4;
      }
      stat.hash_serialized_bytes = bytes;
    }
    m.dims.push_back(std::move(stat));

    CLY_ASSIGN_OR_RETURN(int fk, fact_schema->Require(join.fact_fk));
    fk_index.push_back(fk);
    tables.push_back(std::move(table));
  }

  // --- survivor counts per join prefix -----------------------------------------
  CLY_ASSIGN_OR_RETURN(BoundPredicatePtr fact_pred,
                       spec.fact_predicate->Bind(*fact_schema));
  m.survivors_after.assign(spec.dims.size(), 0);
  std::unordered_map<Row, int, RowHasher> groups;
  CLY_ASSIGN_OR_RETURN(std::vector<core::GroupSource> group_sources,
                       core::ResolveGroupSources(spec, *fact_schema));

  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(*cluster->dfs(), cif));
  storage::ScanOptions scan;
  scan.projection = fact_columns;
  std::vector<Row> matched(tables.size());
  for (const storage::StorageSplit& split : splits) {
    CLY_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::RowReader> reader,
        storage::OpenSplitRowReader(*cluster->dfs(), cif, split, scan));
    Row row;
    while (true) {
      CLY_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
      if (!more) break;
      if (!fact_pred->Eval(row)) continue;
      ++m.predicate_survivors;
      bool all = true;
      for (size_t d = 0; d < tables.size(); ++d) {
        const int32_t slot =
            tables[d]->Probe(row.Get(fk_index[d]).AsInt64());
        if (slot == core::DimHashTable::kMiss) {
          all = false;
          break;
        }
        matched[d].Clear();
        tables[d]->AppendPayload(slot, &matched[d]);
        ++m.survivors_after[d];
      }
      if (!all) continue;
      Row group_key;
      for (const core::GroupSource& src : group_sources) {
        group_key.Append(src.from_fact
                             ? row.Get(src.fact_index)
                             : matched[static_cast<size_t>(src.dim_index)].Get(
                                   src.aux_index));
      }
      groups.try_emplace(std::move(group_key), 1);
    }
  }
  m.groups = groups.size();

  // --- Hive plan widths ----------------------------------------------------------
  {
    core::StarSchema hive_star = star;
    *hive_star.mutable_fact() = dataset.fact_rcfile;
    CLY_ASSIGN_OR_RETURN(hive::HivePlan plan,
                         hive::CompileHivePlan(hive_star, spec, "/model"));
    for (const hive::JoinStageSpec& stage : plan.joins) {
      m.hive_stage_output_width.push_back(AvgWidthOf(*stage.output_schema));
      m.hive_stage_output_text_width.push_back(
          TextWidthOf(*stage.output_schema));
      // Shuffled record: fk key (4) + tag (4) + carried fact columns.
      double value_width = 8;
      for (const std::string& c : stage.fact_out_cols) {
        CLY_ASSIGN_OR_RETURN(int i, stage.fact_schema->Require(c));
        value_width += stage.fact_schema->field(i).avg_width;
      }
      m.hive_stage_shuffle_width.push_back(value_width);
    }
  }
  for (const DimStat& stat : m.dims) {
    m.hash_payload_per_entry.push_back(
        stat.entries == 0
            ? 16.0
            : static_cast<double>(stat.hash_serialized_bytes) / stat.entries);
  }
  return m;
}

}  // namespace sim
}  // namespace clydesdale
