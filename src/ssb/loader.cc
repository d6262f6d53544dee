#include "ssb/loader.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace clydesdale {
namespace ssb {

namespace {

/// Writes one dimension to HDFS (binary rows) and replicates it locally.
Result<core::DimTableInfo> LoadDimension(
    mr::MrCluster* cluster, const std::string& root, const std::string& name,
    const SchemaPtr& schema, const std::string& pk, int64_t rows,
    const std::function<Row(int64_t)>& row_for) {
  core::DimTableInfo dim;
  dim.name = name;
  dim.pk = pk;
  dim.local_path = StrCat("/dimcache", root, "/", name);
  dim.desc.path = StrCat(root, "/", name);
  dim.desc.format = storage::kFormatBinaryRow;
  dim.desc.schema = schema;

  CLY_ASSIGN_OR_RETURN(std::unique_ptr<storage::TableWriter> writer,
                       storage::OpenTableWriter(cluster->dfs(), dim.desc));
  for (int64_t i = 0; i < rows; ++i) {
    CLY_RETURN_IF_ERROR(writer->Append(row_for(i)));
  }
  CLY_RETURN_IF_ERROR(writer->Close());
  dim.desc.num_rows = static_cast<uint64_t>(rows);
  // (Re)load invalidation: bump the path's catalog version so serving-mode
  // caches never probe a table built from the previous load.
  cluster->InvalidateTable(dim.desc.path);

  CLY_RETURN_IF_ERROR(core::ReplicateDimensionToAllNodes(cluster, dim));
  return dim;
}

}  // namespace

Result<SsbDataset> LoadSsb(mr::MrCluster* cluster,
                           const SsbLoadOptions& options) {
  SsbGenerator gen(options.scale_factor, options.seed);
  const SsbCardinalities& cards = gen.cardinalities();
  const std::string& root = options.root;

  SsbDataset dataset;
  dataset.cards = cards;
  dataset.scale_factor = options.scale_factor;

  // --- rows per split ---------------------------------------------------------
  // The fact table should spread over every node with several splits each so
  // that functional runs exercise scheduling; each split must also fit one
  // DFS block in every format (text rows are the widest at ~110 bytes).
  const uint64_t block_size = cluster->dfs()->block_size();
  uint64_t rows_per_split = options.rows_per_split;
  if (rows_per_split == 0) {
    const uint64_t approx_rows = cards.orders * 4;
    const uint64_t target_splits =
        static_cast<uint64_t>(cluster->num_nodes()) * 6;
    rows_per_split = std::max<uint64_t>(512, approx_rows / target_splits);
  }
  rows_per_split = std::min<uint64_t>(rows_per_split, block_size / 128);

  // --- fact table (CIF, plus optional RCFile / text copies) -------------------
  storage::TableDesc cif;
  cif.path = StrCat(root, "/lineorder");
  cif.format = storage::kFormatCif;
  cif.schema = LineorderSchema();
  cif.rows_per_split = rows_per_split;
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<storage::TableWriter> cif_writer,
                       storage::OpenTableWriter(cluster->dfs(), cif));

  std::unique_ptr<storage::TableWriter> rc_writer;
  if (options.with_rcfile) {
    dataset.fact_rcfile.path = StrCat(root, "/lineorder_rc");
    dataset.fact_rcfile.format = storage::kFormatRcFile;
    dataset.fact_rcfile.schema = LineorderSchema();
    dataset.fact_rcfile.rows_per_split = rows_per_split;
    CLY_ASSIGN_OR_RETURN(
        rc_writer,
        storage::OpenTableWriter(cluster->dfs(), dataset.fact_rcfile));
  }
  std::unique_ptr<storage::TableWriter> text_writer;
  if (options.with_text) {
    dataset.fact_text.path = StrCat(root, "/lineorder_text");
    dataset.fact_text.format = storage::kFormatText;
    dataset.fact_text.schema = LineorderSchema();
    CLY_ASSIGN_OR_RETURN(
        text_writer,
        storage::OpenTableWriter(cluster->dfs(), dataset.fact_text));
  }

  SsbGenerator::LineorderStream stream = gen.Lineorders();
  Row row;
  while (stream.Next(&row)) {
    CLY_RETURN_IF_ERROR(cif_writer->Append(row));
    if (rc_writer != nullptr) CLY_RETURN_IF_ERROR(rc_writer->Append(row));
    if (text_writer != nullptr) CLY_RETURN_IF_ERROR(text_writer->Append(row));
  }
  CLY_RETURN_IF_ERROR(cif_writer->Close());
  if (rc_writer != nullptr) CLY_RETURN_IF_ERROR(rc_writer->Close());
  if (text_writer != nullptr) CLY_RETURN_IF_ERROR(text_writer->Close());
  // Version bumps for the rewritten fact copies (reload invalidation).
  cluster->InvalidateTable(cif.path);
  if (rc_writer != nullptr) cluster->InvalidateTable(dataset.fact_rcfile.path);
  if (text_writer != nullptr) cluster->InvalidateTable(dataset.fact_text.path);
  dataset.lineorder_rows = stream.rows_emitted();
  cif.num_rows = dataset.lineorder_rows;
  dataset.fact_rcfile.num_rows = dataset.lineorder_rows;
  dataset.fact_text.num_rows = dataset.lineorder_rows;

  // --- dimensions --------------------------------------------------------------
  std::vector<core::DimTableInfo> dims;
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "customer", CustomerSchema(), "c_custkey",
                      static_cast<int64_t>(cards.customers),
                      [&gen](int64_t i) { return gen.CustomerRow(i + 1); }));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "supplier", SupplierSchema(), "s_suppkey",
                      static_cast<int64_t>(cards.suppliers),
                      [&gen](int64_t i) { return gen.SupplierRow(i + 1); }));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "part", PartSchema(), "p_partkey",
                      static_cast<int64_t>(cards.parts),
                      [&gen](int64_t i) { return gen.PartRow(i + 1); }));
    dims.push_back(std::move(dim));
  }
  {
    CLY_ASSIGN_OR_RETURN(
        core::DimTableInfo dim,
        LoadDimension(cluster, root, "date", DateSchema(), "d_datekey",
                      static_cast<int64_t>(cards.dates),
                      [&gen](int64_t i) { return gen.DateRow(i); }));
    dims.push_back(std::move(dim));
  }

  dataset.star = core::StarSchema(std::move(cif), std::move(dims));
  CLY_LOG(Info) << "loaded SSB sf=" << options.scale_factor << ": "
                << dataset.lineorder_rows << " lineorder rows, "
                << cards.customers << " customers, " << cards.suppliers
                << " suppliers, " << cards.parts << " parts";
  return dataset;
}

}  // namespace ssb
}  // namespace clydesdale
