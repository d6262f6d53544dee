#include "core/dim_hash_table.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace clydesdale {
namespace core {

namespace {

/// Dimension rows decoded and filtered per batch during a build.
constexpr int64_t kBuildBatchRows = 4096;

/// One field of the replica's binary rows: its type, and the batch column
/// it decodes into (null when the build never reads it).
struct FieldSink {
  TypeKind type;
  ColumnVector* column;
};

/// Decodes the binary row [p, end) field by field into `fields`' sinks,
/// stepping over unread fields, with every read bounds-checked against
/// `end`. Returns where the fields end, or null when one runs past `end`.
/// Strings stay views into the row bytes.
const uint8_t* DecodeRowFields(const std::vector<FieldSink>& fields,
                               const uint8_t* p, const uint8_t* end) {
  for (const FieldSink& f : fields) {
    const size_t left = static_cast<size_t>(end - p);
    switch (f.type) {
      case TypeKind::kInt32: {
        if (left < sizeof(int32_t)) return nullptr;
        if (f.column != nullptr) {
          int32_t v = 0;
          std::memcpy(&v, p, sizeof(v));
          f.column->AppendInt32(v);
        }
        p += sizeof(int32_t);
        break;
      }
      case TypeKind::kInt64: {
        if (left < sizeof(int64_t)) return nullptr;
        if (f.column != nullptr) {
          int64_t v = 0;
          std::memcpy(&v, p, sizeof(v));
          f.column->AppendInt64(v);
        }
        p += sizeof(int64_t);
        break;
      }
      case TypeKind::kDouble: {
        if (left < sizeof(double)) return nullptr;
        if (f.column != nullptr) {
          double v = 0;
          std::memcpy(&v, p, sizeof(v));
          f.column->mutable_f64()->push_back(v);
        }
        p += sizeof(double);
        break;
      }
      case TypeKind::kString: {
        uint16_t n = 0;
        if (left < sizeof(n)) return nullptr;
        std::memcpy(&n, p, sizeof(n));
        if (left - sizeof(n) < n) return nullptr;
        if (f.column != nullptr) {
          f.column->mutable_str_views()->emplace_back(
              reinterpret_cast<const char*>(p + sizeof(n)), n);
        }
        p += sizeof(n) + n;
        break;
      }
    }
  }
  return p;
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
    const Schema& dim_schema, const uint8_t* row_stream, size_t len,
    const Predicate& predicate, const std::string& pk_column,
    const std::vector<std::string>& aux_columns,
    std::shared_ptr<obs::MemTracker> tracker) {
  // The columns this build reads — pk, aux, predicate — decode into a
  // narrow batch (in schema order); every other field is skipped.
  std::vector<std::string> read_names = aux_columns;
  read_names.push_back(pk_column);
  predicate.CollectColumns(&read_names);
  std::vector<bool> read(static_cast<size_t>(dim_schema.num_fields()), false);
  for (const std::string& name : read_names) {
    CLY_ASSIGN_OR_RETURN(int i, dim_schema.Require(name));
    read[static_cast<size_t>(i)] = true;
  }
  std::vector<int> narrow_fields;
  for (int i = 0; i < dim_schema.num_fields(); ++i) {
    if (read[static_cast<size_t>(i)]) narrow_fields.push_back(i);
  }
  const SchemaPtr narrow = dim_schema.Project(narrow_fields);
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

  RowBatch batch(narrow);
  std::vector<FieldSink> fields;
  fields.reserve(static_cast<size_t>(dim_schema.num_fields()));
  for (const Field& f : dim_schema.fields()) fields.push_back({f.type, nullptr});
  for (size_t c = 0; c < narrow_fields.size(); ++c) {
    fields[static_cast<size_t>(narrow_fields[c])].column =
        batch.mutable_column(static_cast<int>(c));
  }

  auto table = std::shared_ptr<DimHashTable>(new DimHashTable());
  for (int src : aux_src) table->aux_.emplace_back(narrow->field(src).type);
  // Qualifying keys (keys[i] owns payload slot i), and for string aux
  // columns the arena end offset of each slot's value.
  std::vector<int64_t> keys;
  std::vector<uint8_t> arena;
  std::vector<std::vector<size_t>> string_ends(aux_columns.size());
  uint64_t input_rows = 0;
  std::vector<uint8_t> sel;
  const uint8_t* p = row_stream;
  const uint8_t* const stream_end = row_stream + len;
  while (p != stream_end) {
    batch.Clear();
    int64_t rows = 0;
    for (; rows < kBuildBatchRows && p != stream_end; ++rows) {
      uint32_t n = 0;
      if (static_cast<size_t>(stream_end - p) < sizeof(n)) {
        return Status::IoError("truncated dimension row stream");
      }
      std::memcpy(&n, p, sizeof(n));
      p += sizeof(n);
      if (static_cast<size_t>(stream_end - p) < n) {
        return Status::IoError("truncated dimension row stream");
      }
      // Each row must end exactly at its length prefix: a field that runs
      // past it, or fields that stop short of it, mean a corrupt replica.
      const uint8_t* const row_end = p + n;
      const uint8_t* const fields_end = DecodeRowFields(fields, p, row_end);
      if (fields_end != row_end) {
        const uint64_t index = input_rows + static_cast<uint64_t>(rows);
        return Status::IoError(
            fields_end == nullptr
                ? StrCat("dimension row ", index, " overruns its ", n,
                         "-byte length prefix")
                : StrCat("dimension row ", index, " ends ",
                         row_end - fields_end, " bytes before its ", n,
                         "-byte length prefix"));
      }
      p = row_end;
    }
    CLY_RETURN_IF_ERROR(batch.SealRowCount());
    input_rows += static_cast<uint64_t>(rows);
    sel.assign(static_cast<size_t>(rows), 1);
    pred->EvalBatch(batch, &sel);

    const ColumnVector& pk_col = batch.column(pk);
    for (int64_t i = 0; i < rows; ++i) {
      if (sel[static_cast<size_t>(i)] == 0) continue;
      keys.push_back(pk_col.KeyAt(i));
      for (size_t a = 0; a < aux_src.size(); ++a) {
        const ColumnVector& from = batch.column(aux_src[a]);
        ColumnVector& to = table->aux_[a];
        const size_t r = static_cast<size_t>(i);
        switch (from.type()) {
          case TypeKind::kInt32:
            to.AppendInt32(from.i32()[r]);
            break;
          case TypeKind::kInt64:
            to.AppendInt64(from.i64()[r]);
            break;
          case TypeKind::kDouble:
            to.mutable_f64()->push_back(from.f64()[r]);
            break;
          case TypeKind::kString: {
            const std::string_view v = from.StringViewAt(i);
            arena.insert(arena.end(), v.begin(), v.end());
            string_ends[a].push_back(arena.size());
            break;
          }
        }
      }
    }
  }

  // The arena is complete: pin it and point the string payloads into it.
  arena.shrink_to_fit();
  const auto shared_arena =
      std::make_shared<const std::vector<uint8_t>>(std::move(arena));
  const char* const base = reinterpret_cast<const char*>(shared_arena->data());
  uint64_t payload_bytes = shared_arena->capacity();
  for (size_t a = 0; a < table->aux_.size(); ++a) {
    ColumnVector& col = table->aux_[a];
    if (col.type() == TypeKind::kString) {
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
  table->stats_.input_rows = input_rows;
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
