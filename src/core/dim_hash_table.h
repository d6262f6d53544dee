#ifndef CLYDESDALE_CORE_DIM_HASH_TABLE_H_
#define CLYDESDALE_CORE_DIM_HASH_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "obs/mem_tracker.h"
#include "core/star_query.h"
#include "schema/row.h"
#include "schema/row_batch.h"
#include "schema/schema.h"
#include "storage/scan_spec.h"

namespace clydesdale {
namespace core {

/// Read-only hash table from a dimension's integer primary key to its
/// auxiliary columns (paper §4.2). Built once per node per query and then
/// shared by all join threads and consecutive tasks; probes need no
/// synchronization because the table never changes after Build.
///
/// Open addressing with linear probing over power-of-two capacity. Keys and
/// payload slots live in separate parallel bucket arrays (structure of
/// arrays): a probe walks only the 8-byte key lane, so misses — half of all
/// probes in a selective star join — touch half the random-access footprint
/// an interleaved {key, slot} bucket would cost, and the slot lane is read
/// only on hits. Empty buckets are marked in the key lane itself with
/// kEmptySlotKey; an entry whose key equals the sentinel is stored out of
/// line (sentinel_slot_).
///
/// Payloads are columnar: entry i (in scan order of the qualifying rows)
/// owns payload slot i, and each auxiliary column is one typed ColumnVector
/// indexed by slot. A string column's payloads are views into an arena of
/// its own that it pins. Probes return slots, never rows, so the join loop gathers group-key
/// values straight from the typed arrays.
///
/// The table is also the CIF scan's semi-join key filter. Membership alone
/// has a second, exact structure: a bitmap over [min_key, max_key], built
/// whenever that range spans at most 64 x capacity bits, so the bitmap
/// never outgrows the key lane. Dense dimension keys (SSB's are 1..N)
/// always get one; a sparse key set falls back to the key lane.
class DimHashTable final : public storage::ScanKeyFilter {
 public:
  struct BuildStats {
    uint64_t input_rows = 0;
    uint64_t entries = 0;
    /// Resident bytes: both bucket lanes, the membership bitmap, the payload
    /// arrays and the string arenas.
    uint64_t memory_bytes = 0;
    /// Image bytes the build read: the directory and the column blocks of
    /// the pk, aux and predicate columns, nothing else.
    uint64_t bytes_read = 0;
    /// The image scan's stats: decoded/raw bytes, blocks per encoding, and
    /// the rows the pushed predicate leaves pruned.
    storage::ScanStats scan;
  };

  /// Bucket count for `entries` keys: the smallest power of two >= 16 that
  /// keeps the load factor at or below one half.
  static size_t CapacityFor(size_t entries);

  /// Builds from a column image of a `dim_schema` table (the node-local
  /// dimension replica, storage::EncodeColumnImage bytes): applies
  /// `predicate`, keys by `pk_column`, stores `aux_columns`. The image is
  /// read through storage::OpenColumnImageReader, projected to the pk, aux
  /// and predicate columns; the predicate's top-level leaves run inside the
  /// scan (string leaves once per dictionary code) and the whole predicate
  /// is re-checked on every batch. Entries take payload slots in scan order.
  /// A corrupt image fails with IoError.
  ///
  /// `tracker` (optional) is charged the finished table's memory_bytes; the
  /// table holds the charge until it is destroyed — exact-byte,
  /// release-on-drop.
  static Result<std::shared_ptr<const DimHashTable>> Build(
      const Schema& dim_schema, const uint8_t* image, size_t len,
      const Predicate& predicate, const std::string& pk_column,
      const std::vector<std::string>& aux_columns,
      std::shared_ptr<obs::MemTracker> tracker = nullptr);

  /// Key-lane value marking an empty bucket.
  static constexpr int64_t kEmptySlotKey =
      std::numeric_limits<int64_t>::min();
  /// Probe result for a key that does not qualify.
  static constexpr int32_t kMiss = -1;

  /// The payload slot of `key`, or kMiss when the key does not qualify.
  int32_t Probe(int64_t key) const {
    if (capacity_ == 0) return kMiss;
    if (key == kEmptySlotKey) return sentinel_slot_;
    size_t bucket = HomeBucket(key);
    while (true) {
      const int64_t k = keys_[bucket];
      if (k == key) return slots_[bucket];
      if (k == kEmptySlotKey) return kMiss;
      bucket = (bucket + 1) & (capacity_ - 1);
    }
  }

  /// Batch probe over a gathered key column: out[i] = Probe(keys[i]), but
  /// restructured for selection-vector joins. Per stride of keys it hashes
  /// and software-prefetches every home bucket up front, then resolves all
  /// lanes with conditional moves, compacting the unresolved lanes and
  /// advancing them together round by round — the hit/miss/continue
  /// decisions never become branches, so random keys cost no branch
  /// mispredictions (the dominant cost of the scalar probe loop).
  void ProbeBatch(const int64_t* keys, int64_t n, int32_t* out) const;

  /// Semi-join filter over a selection (storage::ScanKeyFilter): compacts
  /// `sel` to the rows whose key is stored. Branch-free either way: one
  /// bitmap test per row when has_key_bitmap(), else the ProbeBatch walk
  /// over the key lane alone.
  int64_t FilterSelection(const int64_t* keys, int32_t* sel,
                          int64_t n) const override;
  /// Zone-map test against [min_key, max_key].
  bool RangeMightMatch(int64_t lo, int64_t hi) const override {
    return entries() > 0 && !(hi < min_key_ || lo > max_key_);
  }

  /// Whether FilterSelection tests the [min_key, max_key] bitmap.
  bool has_key_bitmap() const { return !bitmap_.empty(); }

  /// Auxiliary column `a` (in aux_columns order), indexed by payload slot.
  const ColumnVector& aux_column(int a) const {
    return aux_[static_cast<size_t>(a)];
  }
  int num_aux_columns() const { return static_cast<int>(aux_.size()); }

  /// Appends every auxiliary value of payload `slot` to `out` (the
  /// row-at-a-time callers: Hive's map join and the simulator's scan).
  void AppendPayload(int32_t slot, Row* out) const;

  uint64_t entries() const { return stats_.entries; }
  const BuildStats& stats() const { return stats_; }

  /// Smallest/largest stored key (only meaningful when entries() > 0);
  /// lets zone maps refute whole blocks against the key population.
  int64_t min_key() const { return min_key_; }
  int64_t max_key() const { return max_key_; }

 private:
  DimHashTable() = default;
  /// Sizes the bucket lanes for `entries` keys and inserts them; keys[i]
  /// gets payload slot i. Builds the membership bitmap when the key range
  /// allows it.
  void InsertKeys(const std::vector<int64_t>& keys);

  /// Resolves `m` <= 256 keys against the key lane: hashes and prefetches
  /// every home bucket first, then advances all unresolved lanes round by
  /// round with branch-free compaction. Returns the number of hits; hit[0,
  /// nhits) are the hit lanes and bucket[lane] where each one's key sits. A
  /// key equal to kEmptySlotKey never hits here (callers patch it from
  /// sentinel_slot_).
  int ResolveStride(const int64_t* keys, int m, size_t* bucket,
                    int32_t* hit) const;

  /// Fibonacci (multiply-shift) hashing: one multiply and a shift, taking
  /// the product's high bits. Half the dependent-latency of a full
  /// finalizer like Mix64, which is what the probe loop waits on when the
  /// table is cache-resident; the golden-ratio constant still disperses
  /// the dense sequential keys dimension PKs actually have.
  size_t HomeBucket(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * UINT64_C(0x9E3779B97F4A7C15)) >>
        shift_);
  }

  size_t capacity_ = 0;  // power of two
  int shift_ = 63;       // 64 - log2(capacity_)
  std::vector<int64_t> keys_;   // kEmptySlotKey marks empties
  std::vector<int32_t> slots_;  // parallel to keys_, read on hits only
  int32_t sentinel_slot_ = kMiss;  // entry keyed kEmptySlotKey, if any
  /// Bit (key - min_key_) is set for every stored key; empty when the key
  /// range is too wide (see the class comment).
  std::vector<uint64_t> bitmap_;
  /// One per aux column, slot-indexed; a string column's views point into
  /// the arena it pins.
  std::vector<ColumnVector> aux_;
  int64_t min_key_ = std::numeric_limits<int64_t>::max();
  int64_t max_key_ = std::numeric_limits<int64_t>::min();
  BuildStats stats_;
  /// Holds memory_bytes against the build tracker; releases on destruction.
  obs::ScopedMemConsumer mem_;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_DIM_HASH_TABLE_H_
