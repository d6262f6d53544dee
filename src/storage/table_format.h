#ifndef CLYDESDALE_STORAGE_TABLE_FORMAT_H_
#define CLYDESDALE_STORAGE_TABLE_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mem.h"
#include "common/status.h"
#include "hdfs/dfs.h"
#include "schema/row.h"
#include "schema/row_batch.h"
#include "schema/schema.h"
#include "storage/scan_spec.h"

namespace clydesdale {
namespace storage {

/// Format identifiers accepted in TableDesc::format.
inline constexpr const char kFormatText[] = "text";
inline constexpr const char kFormatBinaryRow[] = "binrow";
inline constexpr const char kFormatCif[] = "cif";
inline constexpr const char kFormatRcFile[] = "rcfile";

/// Description of a stored table; persisted as `<path>/_meta` in DFS.
struct TableDesc {
  /// DFS directory, e.g. "/data/lineorder".
  std::string path;
  std::string format;
  SchemaPtr schema;
  uint64_t num_rows = 0;
  /// Rows per split / row group (cif and rcfile only).
  uint64_t rows_per_split = 0;
  /// CIF roll-in support (paper §2: appending fact data must be cheap):
  /// a CIF table is a list of segments, each a complete set of column
  /// files; rolling in appends a segment, rolling out drops one. Empty
  /// means a single segment of num_rows. segment_rows[k] == 0 marks a
  /// rolled-out segment.
  std::vector<uint64_t> segment_rows;

  int num_segments() const {
    return segment_rows.empty() ? 1 : static_cast<int>(segment_rows.size());
  }
};

/// One schedulable unit of a table scan, mirroring a Hadoop InputSplit.
struct StorageSplit {
  std::string table_path;
  std::string format;
  int index = 0;
  /// Which table segment the split belongs to (CIF roll-in).
  int segment = 0;
  /// Block ordinal within the segment's column files.
  int block_in_segment = 0;
  /// Scheduling weight: bytes of the split's anchor data.
  uint64_t length_bytes = 0;
  /// Row range covered, when the format tracks it (cif/rcfile).
  uint64_t row_begin = 0;
  uint64_t row_end = 0;
  /// Nodes holding the split's data locally (from block locations).
  std::vector<hdfs::NodeId> preferred_nodes;
};

/// Scan configuration shared by all formats.
struct ScanOptions {
  /// Columns to materialize, in output order. Empty selects all columns.
  /// Row-oriented formats still *read* every byte and project afterwards;
  /// columnar formats avoid the I/O (the paper's §4.1 point).
  std::vector<std::string> projection;
  hdfs::NodeId reader_node = hdfs::kNoNode;
  hdfs::IoStats* stats = nullptr;
  /// Predicates + semi-join key filters to evaluate below decode. Only the
  /// CIF scan acts on it; all other formats ignore it (callers must re-check
  /// predicates, so ignoring is always correct).
  std::shared_ptr<const ScanSpec> scan_spec;
  /// Optional pruning-effectiveness output (CIF only).
  ScanStats* scan_stats = nullptr;
  /// Memory attribution for the reader's decode scratch and batch (CIF
  /// only): charged as the reader grows them and released when it is
  /// dropped. Typically the task attempt's obs::MemTracker; null disables
  /// tracking.
  std::shared_ptr<MemReporter> mem_reporter;
};

/// Row-at-a-time reader over one split.
class RowReader {
 public:
  virtual ~RowReader() = default;
  /// Fills `out` and returns true, or returns false at end of split.
  virtual Result<bool> Next(Row* out) = 0;
  /// Schema of rows produced (projection applied).
  virtual const SchemaPtr& output_schema() const = 0;
};

/// Block-at-a-time reader (the B-CIF iteration model, paper §5.3).
class BatchReader {
 public:
  virtual ~BatchReader() = default;
  /// Clears and fills `out` with up to `max_rows` rows; returns false when
  /// the split is exhausted (out left empty).
  virtual Result<bool> NextBatch(RowBatch* out, int64_t max_rows) = 0;
  virtual const SchemaPtr& output_schema() const = 0;
};

/// Append-only table writer; Close() persists `_meta`.
class TableWriter {
 public:
  virtual ~TableWriter() = default;
  virtual Status Append(const Row& row) = 0;
  virtual Status Close() = 0;
  virtual uint64_t rows_written() const = 0;
};

/// Writer for the split-aligned formats (CIF, RCFile): rows are buffered
/// into a RowBatch and every rows_per_split rows become one split, encoded
/// column by column. The encoding is exposed so a bulk loader can run it
/// off the writer thread: EncodeColumn is const and may run concurrently
/// for any columns, and AppendEncodedSplit then writes the split exactly
/// as Append() would have.
class SplitTableWriter : public TableWriter {
 public:
  SplitTableWriter(hdfs::MiniDfs* dfs, TableDesc desc);

  Status Append(const Row& row) final;
  Status Close() final;
  uint64_t rows_written() const final {
    return rows_ + static_cast<uint64_t>(buffer_.num_rows());
  }

  /// Encodes column `c` of one split (rows_per_split rows, fewer only for
  /// the last split). Fails with InvalidArgument when the encoded column
  /// cannot fit the format's block.
  virtual Status EncodeColumn(const RowBatch& split, int c,
                              std::vector<uint8_t>* out) const = 0;
  /// Writes one split of `rows` rows from its EncodeColumn outputs, in
  /// column order. Requires that no Append()ed rows are pending.
  Status AppendEncodedSplit(uint64_t rows,
                            const std::vector<std::vector<uint8_t>>& columns);

 protected:
  /// Writes one encoded split to the DFS.
  virtual Status WriteSplit(
      uint64_t rows, const std::vector<std::vector<uint8_t>>& columns) = 0;
  /// Closes the files and persists `_meta` for `rows` rows in total.
  virtual Status Finish(uint64_t rows) = 0;

  hdfs::MiniDfs* const dfs_;
  TableDesc desc_;

 private:
  Status FlushBuffer();

  RowBatch buffer_;
  uint64_t rows_ = 0;
};

// --- Metadata ---------------------------------------------------------------

Status SaveTableDesc(hdfs::MiniDfs* dfs, const TableDesc& desc);
Result<TableDesc> LoadTableDesc(const hdfs::MiniDfs& dfs,
                                const std::string& path);

// --- Format dispatch --------------------------------------------------------

/// Creates a writer for desc.format. The table directory must not exist yet.
Result<std::unique_ptr<TableWriter>> OpenTableWriter(hdfs::MiniDfs* dfs,
                                                     const TableDesc& desc);

/// Enumerates the splits of a stored table.
Result<std::vector<StorageSplit>> ListTableSplits(const hdfs::MiniDfs& dfs,
                                                  const TableDesc& desc);

/// Opens a row reader over one split.
Result<std::unique_ptr<RowReader>> OpenSplitRowReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

/// Opens a batch reader over one split. Native for CIF; other formats are
/// adapted from their row readers (and so gain no I/O or CPU benefit).
Result<std::unique_ptr<BatchReader>> OpenSplitBatchReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

/// Resolves `options.projection` against `schema`: returns the projected
/// field indexes (all fields when the projection is empty).
Result<std::vector<int>> ResolveProjection(const Schema& schema,
                                           const ScanOptions& options);

/// Reads an entire table into memory (tests, reference executor, dim loads).
Result<std::vector<Row>> ScanTableToVector(const hdfs::MiniDfs& dfs,
                                           const TableDesc& desc,
                                           const ScanOptions& options);

/// Wraps a RowReader as a BatchReader (used by non-columnar formats).
std::unique_ptr<BatchReader> AdaptRowReaderToBatch(
    std::unique_ptr<RowReader> reader);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_TABLE_FORMAT_H_
