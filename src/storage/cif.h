#ifndef CLYDESDALE_STORAGE_CIF_H_
#define CLYDESDALE_STORAGE_CIF_H_

#include <functional>
#include <memory>
#include <vector>

#include "storage/table_format.h"

namespace clydesdale {
namespace storage {

/// ColumnInputFormat (CIF, paper §4.1): each column lives in its own HDFS
/// file `<path>/<column>.col`. A table is written in *splits* of
/// `rows_per_split` rows; the bytes of split i of every column occupy exactly
/// HDFS block i of that column's file, and all column files share the
/// colocation group `<path>`, so the colocating placement policy puts block i
/// of every column on the same replica set. A map task scheduled where its
/// split is local therefore finds **all** columns locally.
///
/// Column block layout: split i of a column file is one framed block,
///   [u32 "CIF3"][u32 nrows][encoded payload][u8 encoding tag][zone map]
///   [u32 zone_len][u32 "FOOT"]
/// The tag (column_codec.h) selects plain, RLE, bit-packing or
/// frame-of-reference for integer blocks, and a dictionary (<= 256 distinct
/// values) or RLE of dictionary codes for strings; doubles stay plain. The
/// writer picks the smallest exact encoding from single-pass block stats.
/// The zone map (per-block min/max for numeric columns, a 64-bit dictionary
/// fingerprint for dictionary-coded strings) lets the reader skip whole
/// blocks against a ScanOptions::scan_spec, and the 8-byte header leaves
/// fixed-width payloads aligned for in-place scanning. The table's `_meta`
/// records the layout version; LoadTableDesc refuses any other.
///
/// Readers work one batch at a time, straight from the datanode's block
/// buffers (no copy): open reads the needed column blocks and lets their
/// zone maps skip the split; each batch then runs the predicates in the
/// compressed domain (once per RLE run, via code-set tests on packed codes),
/// compacts a selection vector, tests the semi-join key filters on it, and
/// materializes only the surviving rows of the projection — strings as
/// views that pin the block buffer (ColumnVector view mode), never per-row
/// copies. Integer columns read from RLE blocks carry a run overlay
/// (ColumnVector runs) so the probe can work per run. What a reader holds
/// is O(batch). Corrupt blocks are an IoError.
Result<std::unique_ptr<SplitTableWriter>> OpenCifTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc);
Result<std::vector<StorageSplit>> ListCifSplits(const hdfs::MiniDfs& dfs,
                                                const TableDesc& desc);

/// Row-at-a-time reader (plain CIF iteration): a row view over the batch
/// reader that pays per-row materialization.
Result<std::unique_ptr<RowReader>> OpenCifSplitRowReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

/// Block-at-a-time reader (B-CIF, paper §5.3): returns columnar batches and
/// amortizes the per-record framework cost over a block of rows.
Result<std::unique_ptr<BatchReader>> OpenCifSplitBatchReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options);

// --- Column images (node-local dimension replicas, paper §4) -----------------
// A column image is a whole table in one buffer: one CIF column block per
// field — the same blocks, encodings and zone maps as a CIF split — each
// 8-aligned behind a small directory of {offset, length, checksum} entries.
// Dimension replicas are column images, so a hash build reads only the
// columns it needs, through the same batch reader as the fact scan.

/// Runs fn(0) .. fn(n - 1), possibly concurrently, and returns when every
/// call is done.
using ParallelFor =
    std::function<void(int n, const std::function<void(int)>& fn)>;

/// Encodes `table` (at most 2^32 - 1 rows) as a column image. Columns are
/// encoded independently, through `parallel_for` when one is given.
std::vector<uint8_t> EncodeColumnImage(const RowBatch& table,
                                       const ParallelFor& parallel_for = {});
/// The same for rows of `schema`.
std::vector<uint8_t> EncodeColumnImage(const SchemaPtr& schema,
                                       const std::vector<Row>& rows);

/// Batch reader over the column image [image, image + len) of a `schema`
/// table. It honours ScanOptions like a CIF split reader: the projection,
/// the scan spec's leaves (string leaves as per-dictionary-code tests) and
/// key filters, scan_stats, mem_reporter; the image bytes it reads (the
/// directory and the needed blocks) count into stats->local_bytes_read.
/// Nothing is copied: the image must outlive the reader and every batch it
/// returns, whose string views point into it. `image` must be 8-aligned.
/// A header, directory entry or block that is out of bounds, misaligned,
/// fails its checksum or disagrees with another on the row count is an
/// IoError.
Result<std::unique_ptr<BatchReader>> OpenColumnImageReader(
    const Schema& schema, const uint8_t* image, size_t len,
    const ScanOptions& options);

// --- Roll-in / roll-out (paper §2) -------------------------------------------
// Unlike sorted-projection designs (Llama), CIF requires no fact order, so
// appending data is cheap: a roll-in writes a fresh *segment* — a complete
// set of column files — and a roll-out deletes one; neither touches the
// existing data.

/// Opens a writer that appends a new segment to an existing CIF table.
/// Close() merges the segment into the table's metadata (callers holding a
/// cached TableDesc must reload it).
Result<std::unique_ptr<TableWriter>> AppendCifSegment(hdfs::MiniDfs* dfs,
                                                      const TableDesc& desc);

/// Deletes one segment's column files and removes its rows from the
/// metadata. Rolling out segment 0 of a single-segment table empties it.
Status RollOutCifSegment(hdfs::MiniDfs* dfs, const TableDesc& desc,
                         int segment);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_CIF_H_
