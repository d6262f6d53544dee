#include "core/dim_hash_table.h"

#include <algorithm>

#include "common/strings.h"
#include "storage/byte_io.h"
#include "storage/row_codec.h"

namespace clydesdale {
namespace core {

namespace {
size_t CapacityFor(size_t entries) {
  size_t cap = 16;
  while (cap < entries * 2) cap <<= 1;
  return cap;
}
}  // namespace

void DimHashTable::ProbeBatch(const int64_t* keys, int64_t n,
                              const Row** out) const {
  if (capacity_ == 0) {
    for (int64_t i = 0; i < n; ++i) out[i] = nullptr;
    return;
  }
  const int64_t* const key_data = keys_.data();
  const int32_t* const index_data = payload_index_.data();
  const Row* const payload_data = payloads_.data();
  const size_t mask = capacity_ - 1;

  constexpr int kStride = 256;
  size_t slot[kStride];
  int32_t todo[kStride];
  int32_t hit[kStride];
  for (int64_t base = 0; base < n; base += kStride) {
    const int m = static_cast<int>(std::min<int64_t>(kStride, n - base));
    const int64_t* stride_keys = keys + base;
    const Row** stride_out = out + base;
    // Hash every lane and prefetch its home slot before touching any of
    // them: by resolve time the key loads are in flight or done.
    for (int i = 0; i < m; ++i) {
      slot[i] = HomeSlot(stride_keys[i]);
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&key_data[slot[i]], /*rw=*/0, /*locality=*/1);
#endif
    }
    // Resolve every lane against the key lane only; hit/miss/keep-scanning
    // are computed as data (compaction counters), never as branches. Hits
    // are compacted into `hit` and their payload indexes fetched in a
    // second pass, so the payload-index lane is never loaded for misses —
    // that second random access per lane is exactly what the old
    // interleaved-slot layout paid. A probe key equal to kEmptySlotKey
    // cannot match here (empty slots hold that value); the rare table that
    // actually stores it is patched scalar at the end.
    int live = 0;
    int nhits = 0;
    for (int i = 0; i < m; ++i) {
      const int64_t k = key_data[slot[i]];
      const bool match = (k == stride_keys[i]) &
                         (stride_keys[i] != kEmptySlotKey);
      const bool empty = k == kEmptySlotKey;
      stride_out[i] = nullptr;
      hit[nhits] = i;
      nhits += static_cast<int>(match);
      todo[live] = i;
      live += static_cast<int>(!(empty | match));
    }
    while (live > 0) {
      int next_live = 0;
      for (int t = 0; t < live; ++t) {
        const int i = todo[t];
        const size_t advanced = (slot[i] + 1) & mask;
        slot[i] = advanced;
        const int64_t k = key_data[advanced];
        const bool match = (k == stride_keys[i]) &
                           (stride_keys[i] != kEmptySlotKey);
        const bool empty = k == kEmptySlotKey;
        hit[nhits] = i;
        nhits += static_cast<int>(match);
        todo[next_live] = i;
        next_live += static_cast<int>(!(empty | match));
      }
      live = next_live;
    }
    for (int t = 0; t < nhits; ++t) {
      const int i = hit[t];
      stride_out[i] = payload_data + index_data[slot[i]];
    }
    if (sentinel_payload_index_ >= 0) {
      for (int i = 0; i < m; ++i) {
        if (stride_keys[i] == kEmptySlotKey) {
          stride_out[i] =
              payload_data + static_cast<size_t>(sentinel_payload_index_);
        }
      }
    }
  }
}

void DimHashTable::Insert(int64_t key, Row payload) {
  const auto index = static_cast<int32_t>(payloads_.size());
  payloads_.push_back(std::move(payload));
  min_key_ = std::min(min_key_, key);
  max_key_ = std::max(max_key_, key);
  if (key == kEmptySlotKey) {
    sentinel_payload_index_ = index;
    return;
  }
  size_t slot = HomeSlot(key);
  while (keys_[slot] != kEmptySlotKey) {
    slot = (slot + 1) & (capacity_ - 1);
  }
  keys_[slot] = key;
  payload_index_[slot] = index;
}

Result<std::shared_ptr<const DimHashTable>> DimHashTable::Build(
    const Schema& dim_schema, const uint8_t* row_stream, size_t len,
    const Predicate& predicate, const std::string& pk_column,
    const std::vector<std::string>& aux_columns,
    std::shared_ptr<obs::MemTracker> tracker) {
  CLY_ASSIGN_OR_RETURN(BoundPredicatePtr pred, predicate.Bind(dim_schema));
  CLY_ASSIGN_OR_RETURN(int pk, dim_schema.Require(pk_column));
  std::vector<int> aux;
  aux.reserve(aux_columns.size());
  for (const std::string& name : aux_columns) {
    CLY_ASSIGN_OR_RETURN(int i, dim_schema.Require(name));
    aux.push_back(i);
  }

  // First pass: decode + filter into (key, payload) pairs.
  std::vector<std::pair<int64_t, Row>> qualifying;
  uint64_t input_rows = 0;
  uint64_t payload_bytes = 0;
  {
    storage::ByteReader reader(row_stream, len);
    Row row;
    while (!reader.AtEnd()) {
      uint32_t n = 0;
      CLY_RETURN_IF_ERROR(reader.GetU32(&n));
      if (reader.remaining() < n) {
        return Status::IoError("truncated dimension row stream");
      }
      storage::ByteReader row_reader(row_stream + reader.position(), n);
      CLY_RETURN_IF_ERROR(storage::DecodeRow(dim_schema, &row_reader, &row));
      CLY_RETURN_IF_ERROR(reader.Skip(n));
      ++input_rows;
      if (!pred->Eval(row)) continue;
      Row payload = row.Project(aux);
      payload_bytes += storage::EncodedRowSize(payload) +
                       sizeof(Row) + sizeof(Value) * payload.size();
      qualifying.emplace_back(row.Get(pk).AsInt64(), std::move(payload));
    }
  }

  auto table = std::shared_ptr<DimHashTable>(new DimHashTable());
  table->capacity_ = CapacityFor(std::max<size_t>(qualifying.size(), 1));
  table->shift_ = 64;
  for (size_t c = table->capacity_; c > 1; c >>= 1) --table->shift_;
  table->keys_.assign(table->capacity_, kEmptySlotKey);
  table->payload_index_.resize(table->capacity_);
  table->payloads_.reserve(qualifying.size());
  for (auto& [key, payload] : qualifying) {
    table->Insert(key, std::move(payload));
  }
  table->stats_.input_rows = input_rows;
  table->stats_.entries = table->payloads_.size();
  table->stats_.memory_bytes =
      table->capacity_ * (sizeof(int64_t) + sizeof(int32_t)) + payload_bytes;
  // The charge lives exactly as long as the table (a null tracker makes
  // the consumer a no-op).
  table->mem_ = obs::ScopedMemConsumer(std::move(tracker));
  table->mem_.Add(static_cast<int64_t>(table->stats_.memory_bytes));
  return std::shared_ptr<const DimHashTable>(table);
}

}  // namespace core
}  // namespace clydesdale
