#include "core/dim_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"
#include "storage/cif.h"

namespace clydesdale {
namespace core {

namespace {

/// Dimension rows scanned and filtered per batch during a build.
constexpr int64_t kBuildBatchRows = 4096;

/// Appends from[sel[j]], j in [0, m), to `to`, converted to U.
template <typename T, typename U>
void AppendSelected(const std::vector<T>& from, const int32_t* sel, int64_t m,
                    std::vector<U>* to) {
  const size_t base = to->size();
  to->resize(base + static_cast<size_t>(m));
  U* const out = to->data() + base;
  for (int64_t j = 0; j < m; ++j) {
    out[j] = static_cast<U>(from[static_cast<size_t>(sel[j])]);
  }
}

/// Copies the selected strings of `from` to the end of `arena`, recording
/// where each one ends.
void AppendSelectedStrings(const ColumnVector& from, const int32_t* sel,
                           int64_t m, std::vector<uint8_t>* arena,
                           std::vector<size_t>* ends) {
  size_t at = arena->size();
  size_t bytes = 0;
  for (int64_t j = 0; j < m; ++j) bytes += from.StringViewAt(sel[j]).size();
  arena->resize(at + bytes);
  for (int64_t j = 0; j < m; ++j) {
    const std::string_view v = from.StringViewAt(sel[j]);
    std::memcpy(arena->data() + at, v.data(), v.size());
    at += v.size();
    ends->push_back(at);
  }
}

}  // namespace

size_t DimHashTable::CapacityFor(size_t entries) {
  size_t cap = 16;
  while (cap < entries * 2) cap <<= 1;
  return cap;
}

int DimHashTable::ResolveStride(const int64_t* keys, int m, size_t* bucket,
                                int32_t* hit) const {
  const int64_t* const key_data = keys_.data();
  const size_t mask = capacity_ - 1;
  // Hash every lane and prefetch its home bucket before touching any of
  // them: by resolve time the key loads are in flight or done.
  for (int i = 0; i < m; ++i) {
    bucket[i] = HomeBucket(keys[i]);
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&key_data[bucket[i]], /*rw=*/0, /*locality=*/1);
#endif
  }
  // Resolve every lane against the key lane only; hit/miss/keep-scanning
  // are computed as data (compaction counters), never as branches, so
  // random keys cost no branch mispredictions. A probe key equal to
  // kEmptySlotKey cannot match here (empty buckets hold that value).
  int32_t todo[256];
  int live = 0;
  int nhits = 0;
  for (int i = 0; i < m; ++i) {
    const int64_t k = key_data[bucket[i]];
    const bool match = (k == keys[i]) & (keys[i] != kEmptySlotKey);
    hit[nhits] = i;
    nhits += static_cast<int>(match);
    todo[live] = i;
    live += static_cast<int>(!((k == kEmptySlotKey) | match));
  }
  while (live > 0) {
    int next_live = 0;
    for (int t = 0; t < live; ++t) {
      const int i = todo[t];
      bucket[i] = (bucket[i] + 1) & mask;
      const int64_t k = key_data[bucket[i]];
      const bool match = (k == keys[i]) & (keys[i] != kEmptySlotKey);
      hit[nhits] = i;
      nhits += static_cast<int>(match);
      todo[next_live] = i;
      next_live += static_cast<int>(!((k == kEmptySlotKey) | match));
    }
    live = next_live;
  }
  return nhits;
}

void DimHashTable::ProbeBatch(const int64_t* keys, int64_t n,
                              int32_t* out) const {
  if (capacity_ == 0) {
    std::fill(out, out + n, kMiss);
    return;
  }
  constexpr int kStride = 256;
  size_t bucket[kStride];
  int32_t hit[kStride];
  for (int64_t base = 0; base < n; base += kStride) {
    const int m = static_cast<int>(std::min<int64_t>(kStride, n - base));
    const int64_t* stride_keys = keys + base;
    int32_t* stride_out = out + base;
    std::fill(stride_out, stride_out + m, kMiss);
    // Slots are fetched for the hits only, so the slot lane is never loaded
    // for misses — the second random access per lane an interleaved-bucket
    // layout would pay.
    const int nhits = ResolveStride(stride_keys, m, bucket, hit);
    for (int t = 0; t < nhits; ++t) {
      stride_out[hit[t]] = slots_[bucket[hit[t]]];
    }
    if (sentinel_slot_ != kMiss) {
      for (int i = 0; i < m; ++i) {
        if (stride_keys[i] == kEmptySlotKey) stride_out[i] = sentinel_slot_;
      }
    }
  }
}

int64_t DimHashTable::FilterSelection(const int64_t* keys, int32_t* sel,
                                      int64_t n) const {
  if (entries() == 0) return 0;
  int64_t kept = 0;
  if (!bitmap_.empty()) {
    // One test per row: a key outside [min_key_, max_key_] reads word 0
    // and is masked off, so no row takes a branch.
    const uint64_t* const bits = bitmap_.data();
    const auto lo = static_cast<uint64_t>(min_key_);
    const uint64_t span = static_cast<uint64_t>(max_key_) - lo;
    for (int64_t j = 0; j < n; ++j) {
      const int32_t row = sel[j];
      const uint64_t off = static_cast<uint64_t>(keys[row]) - lo;
      const uint64_t in = static_cast<uint64_t>(off <= span);
      const uint64_t word = bits[(off >> 6) * in];
      sel[kept] = row;
      kept += static_cast<int64_t>((word >> (off & 63)) & in);
    }
    return kept;
  }
  constexpr int kStride = 256;
  int64_t stride_keys[kStride];
  int32_t rows[kStride];
  size_t bucket[kStride];
  int32_t hit[kStride];
  uint8_t member[kStride];
  const bool sentinel = sentinel_slot_ != kMiss;
  for (int64_t base = 0; base < n; base += kStride) {
    const int m = static_cast<int>(std::min<int64_t>(kStride, n - base));
    for (int i = 0; i < m; ++i) {
      rows[i] = sel[base + i];
      stride_keys[i] = keys[rows[i]];
      member[i] = static_cast<uint8_t>(sentinel &
                                       (stride_keys[i] == kEmptySlotKey));
    }
    const int nhits = ResolveStride(stride_keys, m, bucket, hit);
    for (int t = 0; t < nhits; ++t) member[hit[t]] = 1;
    for (int i = 0; i < m; ++i) {
      sel[kept] = rows[i];
      kept += member[i];
    }
  }
  return kept;
}

void DimHashTable::AppendPayload(int32_t slot, Row* out) const {
  for (const ColumnVector& col : aux_) out->Append(col.GetValue(slot));
}

void DimHashTable::InsertKeys(const std::vector<int64_t>& keys) {
  capacity_ = CapacityFor(std::max<size_t>(keys.size(), 1));
  shift_ = 64;
  for (size_t c = capacity_; c > 1; c >>= 1) --shift_;
  keys_.assign(capacity_, kEmptySlotKey);
  slots_.assign(capacity_, kMiss);
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t key = keys[i];
    const auto slot = static_cast<int32_t>(i);
    min_key_ = std::min(min_key_, key);
    max_key_ = std::max(max_key_, key);
    if (key == kEmptySlotKey) {
      sentinel_slot_ = slot;
      continue;
    }
    size_t bucket = HomeBucket(key);
    while (keys_[bucket] != kEmptySlotKey) {
      bucket = (bucket + 1) & (capacity_ - 1);
    }
    keys_[bucket] = key;
    slots_[bucket] = slot;
  }
  if (keys.empty()) return;
  const auto lo = static_cast<uint64_t>(min_key_);
  const uint64_t span = static_cast<uint64_t>(max_key_) - lo;
  if (span / 64 >= capacity_) return;  // more bits than 64 x capacity_
  bitmap_.assign(span / 64 + 1, 0);
  for (const int64_t key : keys) {
    const uint64_t off = static_cast<uint64_t>(key) - lo;
    bitmap_[off >> 6] |= uint64_t{1} << (off & 63);
  }
}

Result<std::shared_ptr<const DimHashTable>> DimHashTable::Build(
    const Schema& dim_schema, const uint8_t* image, size_t len,
    const Predicate& predicate, const std::string& pk_column,
    const std::vector<std::string>& aux_columns,
    std::shared_ptr<obs::MemTracker> tracker) {
  // The scan reads the columns this build needs — pk, aux, predicate — in
  // schema order; no other column of the image is touched.
  std::vector<std::string> read_names = aux_columns;
  read_names.push_back(pk_column);
  predicate.CollectColumns(&read_names);
  std::vector<bool> read(static_cast<size_t>(dim_schema.num_fields()), false);
  for (const std::string& name : read_names) {
    CLY_ASSIGN_OR_RETURN(int i, dim_schema.Require(name));
    read[static_cast<size_t>(i)] = true;
  }
  storage::ScanOptions options;
  for (int i = 0; i < dim_schema.num_fields(); ++i) {
    if (read[static_cast<size_t>(i)]) {
      options.projection.push_back(dim_schema.field(i).name);
    }
  }
  // The predicate's top-level leaves run in the scan, string leaves as
  // per-dictionary-code tests, so only their survivors are gathered. The
  // spec only borrows `predicate` (a non-owning pointer): the reader that
  // holds it does not outlive this call.
  auto spec = std::make_shared<storage::ScanSpec>();
  spec->conjuncts =
      CollectScanConjuncts(Predicate::Ptr(Predicate::Ptr(), &predicate));
  if (!spec->empty()) options.scan_spec = std::move(spec);

  auto table = std::shared_ptr<DimHashTable>(new DimHashTable());
  storage::ScanStats& scan = table->stats_.scan;
  hdfs::IoStats io;
  options.stats = &io;
  options.scan_stats = &scan;
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::BatchReader> reader,
      storage::OpenColumnImageReader(dim_schema, image, len, options));
  const SchemaPtr narrow = reader->output_schema();
  CLY_ASSIGN_OR_RETURN(BoundPredicatePtr pred, predicate.Bind(*narrow));
  CLY_ASSIGN_OR_RETURN(int pk, narrow->Require(pk_column));
  if (narrow->field(pk).type == TypeKind::kString) {
    return Status::InvalidArgument(
        StrCat("dimension key column '", pk_column, "' is not numeric"));
  }
  std::vector<int> aux_src;
  aux_src.reserve(aux_columns.size());
  for (const std::string& name : aux_columns) {
    CLY_ASSIGN_OR_RETURN(int i, narrow->Require(name));
    aux_src.push_back(i);
  }

  for (int src : aux_src) table->aux_.emplace_back(narrow->field(src).type);
  // Qualifying keys (keys[i] owns payload slot i), and for each string aux
  // column its own arena and the arena end offset of each slot's value.
  std::vector<int64_t> keys;
  std::vector<std::vector<uint8_t>> arenas(aux_columns.size());
  std::vector<std::vector<size_t>> string_ends(aux_columns.size());
  RowBatch batch(narrow);
  std::vector<uint8_t> sel;
  std::vector<int32_t> survivors;
  while (true) {
    CLY_ASSIGN_OR_RETURN(bool more, reader->NextBatch(&batch, kBuildBatchRows));
    if (!more) break;
    // The scan ran only the pushed leaves; the whole predicate decides.
    const int64_t rows = batch.num_rows();
    sel.assign(static_cast<size_t>(rows), 1);
    pred->EvalBatch(batch, &sel);
    survivors.resize(static_cast<size_t>(rows));
    int64_t m = 0;
    for (int64_t i = 0; i < rows; ++i) {
      survivors[static_cast<size_t>(m)] = static_cast<int32_t>(i);
      m += sel[static_cast<size_t>(i)];
    }

    // Keys and payloads are appended column by column, in scan order.
    const int32_t* const rows_kept = survivors.data();
    const ColumnVector& pk_col = batch.column(pk);
    switch (pk_col.type()) {
      case TypeKind::kInt32:
        AppendSelected(pk_col.i32(), rows_kept, m, &keys);
        break;
      case TypeKind::kInt64:
        AppendSelected(pk_col.i64(), rows_kept, m, &keys);
        break;
      case TypeKind::kDouble:
        AppendSelected(pk_col.f64(), rows_kept, m, &keys);
        break;
      case TypeKind::kString:
        break;  // rejected above
    }
    for (size_t a = 0; a < aux_src.size(); ++a) {
      const ColumnVector& from = batch.column(aux_src[a]);
      ColumnVector& to = table->aux_[a];
      switch (from.type()) {
        case TypeKind::kInt32:
          AppendSelected(from.i32(), rows_kept, m, to.mutable_i32());
          break;
        case TypeKind::kInt64:
          AppendSelected(from.i64(), rows_kept, m, to.mutable_i64());
          break;
        case TypeKind::kDouble:
          AppendSelected(from.f64(), rows_kept, m, to.mutable_f64());
          break;
        case TypeKind::kString:
          AppendSelectedStrings(from, rows_kept, m, &arenas[a],
                                &string_ends[a]);
          break;
      }
    }
  }

  // The arenas are complete: pin each one and point its column's string
  // payloads into it.
  uint64_t payload_bytes = 0;
  for (size_t a = 0; a < table->aux_.size(); ++a) {
    ColumnVector& col = table->aux_[a];
    if (col.type() == TypeKind::kString) {
      arenas[a].shrink_to_fit();
      const auto shared_arena =
          std::make_shared<const std::vector<uint8_t>>(std::move(arenas[a]));
      const char* const base =
          reinterpret_cast<const char*>(shared_arena->data());
      payload_bytes += shared_arena->capacity();
      std::vector<std::string_view>* views = col.mutable_str_views();
      views->reserve(string_ends[a].size());
      size_t begin = 0;
      for (size_t end : string_ends[a]) {
        views->emplace_back(base + begin, end - begin);
        begin = end;
      }
      col.set_string_arena(shared_arena);
    }
    col.mutable_i32()->shrink_to_fit();
    col.mutable_i64()->shrink_to_fit();
    col.mutable_f64()->shrink_to_fit();
    payload_bytes += col.ByteCapacity();
  }

  table->InsertKeys(keys);
  table->stats_.input_rows = scan.rows_read + scan.rows_pruned;
  table->stats_.bytes_read = io.local_bytes_read;
  table->stats_.entries = keys.size();
  table->stats_.memory_bytes = table->keys_.capacity() * sizeof(int64_t) +
                               table->slots_.capacity() * sizeof(int32_t) +
                               table->bitmap_.capacity() * sizeof(uint64_t) +
                               payload_bytes;
  // The charge lives exactly as long as the table (a null tracker makes
  // the consumer a no-op).
  table->mem_ = obs::ScopedMemConsumer(std::move(tracker));
  table->mem_.Add(static_cast<int64_t>(table->stats_.memory_bytes));
  return std::shared_ptr<const DimHashTable>(table);
}

}  // namespace core
}  // namespace clydesdale
