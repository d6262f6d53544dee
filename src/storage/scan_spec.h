#ifndef CLYDESDALE_STORAGE_SCAN_SPEC_H_
#define CLYDESDALE_STORAGE_SCAN_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "schema/expr.h"

namespace clydesdale {
namespace storage {

/// A membership filter over an integer key column, pushed into the scan by a
/// join layer (core::DimHashTable is one: the star-join runner pushes its
/// built tables so the CIF reader can drop fact rows whose foreign key has
/// no dimension match — a semi-join below the scan). Implementations must
/// be immutable and thread-safe: one filter is shared by every scan thread.
class ScanKeyFilter {
 public:
  virtual ~ScanKeyFilter() = default;

  /// Exact semi-join over one batch's selection: `sel[0, n)` are ascending
  /// row indexes into `keys`. Compacts `sel` in place, in order, to the rows
  /// whose key is a member and returns how many remain.
  virtual int64_t FilterSelection(const int64_t* keys, int32_t* sel,
                                  int64_t n) const = 0;

  /// Conservative block-level test: may the inclusive range [lo, hi] contain
  /// any member? Used against zone maps; false skips the whole block, so
  /// implementations must only return false when certain.
  virtual bool RangeMightMatch(int64_t lo, int64_t hi) const = 0;
};

/// What a scan should evaluate below decode. Conjuncts are single-column
/// leaf predicates ANDed together (the scan may evaluate any subset it
/// understands — evaluating none is always correct since callers re-check);
/// key_filters are semi-join membership tests, exact per row. Both prune
/// rows *before* non-filter columns are materialized.
struct ScanSpec {
  std::vector<Predicate::Ptr> conjuncts;

  struct KeyFilterEntry {
    std::string column;
    std::shared_ptr<const ScanKeyFilter> filter;
  };
  std::vector<KeyFilterEntry> key_filters;

  bool empty() const { return conjuncts.empty() && key_filters.empty(); }
};

/// Pruning effectiveness of one CIF scan. blocks_skipped counts column-block
/// row-groups eliminated by zone maps alone; rows_pruned counts rows
/// eliminated before materialization (both zone-map skips and per-row
/// predicate/key-filter drops).
///
/// The byte and per-encoding members describe compression: bytes_encoded is
/// what the loaded column blocks occupy on disk, bytes_raw their
/// plain-encoding equivalent (so bytes_raw / bytes_encoded is the observed
/// compression ratio), and blocks_by_encoding[tag] counts loaded blocks per
/// encoding tag (storage/column_codec.h).
///
/// A CIF reader fills these as it goes: the block and byte members at open,
/// the row members per batch. The stats must outlive the reader.
struct ScanStats {
  uint64_t blocks_skipped = 0;
  uint64_t rows_pruned = 0;
  uint64_t bytes_encoded = 0;
  uint64_t bytes_raw = 0;
  uint64_t blocks_by_encoding[6] = {0, 0, 0, 0, 0, 0};
  /// Rows actually materialized by the reader (post zone-skip, post
  /// pushdown selection).
  uint64_t rows_read = 0;
  /// The most bytes a reader held at once: its per-batch decode scratch and
  /// the batch it filled. Column blocks are the datanode's own buffers, read
  /// in place, so they are not counted. A reader raises this to its own
  /// peak (readers sharing one ScanStats run one after another), and it is
  /// what the reader charges ScanOptions::mem_reporter.
  uint64_t mem_peak_bytes = 0;

  /// Adds every counter of `other` into this — the one fold point, so a new
  /// member can never silently go missing from per-thread/per-task merges.
  /// Peaks add too: the stats merged here come from threads that scanned
  /// side by side.
  void MergeFrom(const ScanStats& other) {
    blocks_skipped += other.blocks_skipped;
    rows_pruned += other.rows_pruned;
    bytes_encoded += other.bytes_encoded;
    bytes_raw += other.bytes_raw;
    for (int i = 0; i < 6; ++i) {
      blocks_by_encoding[i] += other.blocks_by_encoding[i];
    }
    rows_read += other.rows_read;
    mem_peak_bytes += other.mem_peak_bytes;
  }
};

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_SCAN_SPEC_H_
