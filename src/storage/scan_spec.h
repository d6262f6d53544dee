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
/// join layer (the star-join runner wraps its built DimHashTables in these so
/// the CIF reader can drop fact rows whose foreign key has no dimension
/// match — a semi-join below the scan). Implementations must be immutable
/// and thread-safe: one filter is shared by every scan thread.
class ScanKeyFilter {
 public:
  virtual ~ScanKeyFilter() = default;

  /// Exact membership test for one key.
  virtual bool Contains(int64_t key) const = 0;

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
struct ScanStats {
  uint64_t blocks_skipped = 0;
  uint64_t rows_pruned = 0;
  uint64_t bytes_encoded = 0;
  uint64_t bytes_raw = 0;
  uint64_t blocks_by_encoding[6] = {0, 0, 0, 0, 0, 0};
  /// Rows actually materialized by the reader (post zone-skip, post
  /// pushdown selection).
  uint64_t rows_read = 0;
  /// Bytes of shared column-block arenas delivered to this scan. String
  /// columns keep these arenas alive past the reader via
  /// RowBatch::string_arena, so this — not bytes_encoded — is what the scan
  /// operator's memory attribution and the MemTracker charge
  /// (ScanOptions::mem_reporter) must agree on.
  uint64_t arena_bytes = 0;

  /// Adds every counter of `other` into this — the one fold point, so a new
  /// member can never silently go missing from per-thread/per-task merges.
  void MergeFrom(const ScanStats& other) {
    blocks_skipped += other.blocks_skipped;
    rows_pruned += other.rows_pruned;
    bytes_encoded += other.bytes_encoded;
    bytes_raw += other.bytes_raw;
    for (int i = 0; i < 6; ++i) {
      blocks_by_encoding[i] += other.blocks_by_encoding[i];
    }
    rows_read += other.rows_read;
    arena_bytes += other.arena_bytes;
  }
};

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_SCAN_SPEC_H_
