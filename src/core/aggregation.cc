#include "core/aggregation.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string_view>

#include "common/logging.h"
#include "common/strings.h"
#include "mapreduce/task_context.h"
#include "obs/query_profile.h"

namespace clydesdale {
namespace core {

AggLayout AggLayout::For(const std::vector<AggSpec>& aggregates) {
  AggLayout layout;
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggSpec& agg = aggregates[i];
    AggInfo info;
    info.kind = agg.kind;
    info.name = agg.name;
    info.first_acc = static_cast<int>(layout.accs_.size());
    switch (agg.kind) {
      case AggKind::kSum:
        layout.accs_.push_back(AccKind::kSum);
        layout.expr_index_.push_back(static_cast<int>(i));
        break;
      case AggKind::kCount:
        layout.accs_.push_back(AccKind::kCount);
        layout.expr_index_.push_back(-1);
        break;
      case AggKind::kMin:
        layout.accs_.push_back(AccKind::kMin);
        layout.expr_index_.push_back(static_cast<int>(i));
        break;
      case AggKind::kMax:
        layout.accs_.push_back(AccKind::kMax);
        layout.expr_index_.push_back(static_cast<int>(i));
        break;
      case AggKind::kAvg:
        layout.accs_.push_back(AccKind::kSum);
        layout.expr_index_.push_back(static_cast<int>(i));
        layout.accs_.push_back(AccKind::kCount);
        layout.expr_index_.push_back(-1);
        info.num_accs = 2;
        break;
    }
    layout.aggs_.push_back(std::move(info));
  }
  return layout;
}

int64_t AggLayout::InitValue(AccKind kind) {
  switch (kind) {
    case AccKind::kSum:
    case AccKind::kCount:
      return 0;
    case AccKind::kMin:
      return std::numeric_limits<int64_t>::max();
    case AccKind::kMax:
      return std::numeric_limits<int64_t>::min();
  }
  return 0;
}

void AggLayout::Merge(int64_t* acc, const int64_t* in) const {
  for (size_t a = 0; a < accs_.size(); ++a) {
    switch (accs_[a]) {
      case AccKind::kSum:
      case AccKind::kCount:
        acc[a] += in[a];
        break;
      case AccKind::kMin:
        acc[a] = std::min(acc[a], in[a]);
        break;
      case AccKind::kMax:
        acc[a] = std::max(acc[a], in[a]);
        break;
    }
  }
}

void AggLayout::MergeWeighted(int64_t* acc, const int64_t* in,
                              int64_t weight) const {
  for (size_t a = 0; a < accs_.size(); ++a) {
    switch (accs_[a]) {
      case AccKind::kSum:
      case AccKind::kCount:
        acc[a] += in[a] * weight;
        break;
      case AccKind::kMin:
        acc[a] = std::min(acc[a], in[a]);
        break;
      case AccKind::kMax:
        acc[a] = std::max(acc[a], in[a]);
        break;
    }
  }
}

Row AggLayout::Finalize(const Row& row, int num_group_columns) const {
  Row out;
  out.Reserve(num_group_columns + static_cast<int>(aggs_.size()));
  for (int g = 0; g < num_group_columns; ++g) out.Append(row.Get(g));
  for (const AggInfo& agg : aggs_) {
    const int base = num_group_columns + agg.first_acc;
    if (agg.kind == AggKind::kAvg) {
      const int64_t sum = row.Get(base).AsInt64();
      const int64_t count = row.Get(base + 1).AsInt64();
      out.Append(Value(count == 0 ? 0.0
                                  : static_cast<double>(sum) /
                                        static_cast<double>(count)));
    } else {
      out.Append(row.Get(base));
    }
  }
  return out;
}

std::vector<std::string> AggLayout::AccumulatorNames() const {
  std::vector<std::string> names;
  for (const AggInfo& agg : aggs_) {
    if (agg.kind == AggKind::kAvg) {
      names.push_back(StrCat(agg.name, "_sum"));
      names.push_back(StrCat(agg.name, "_count"));
    } else {
      names.push_back(agg.name);
    }
  }
  return names;
}

Status FinalizeAggRows(const StarQuerySpec& spec, std::vector<Row>* rows) {
  const AggLayout layout = AggLayout::For(spec.aggregates);
  const int group_columns = static_cast<int>(spec.group_by.size());
  const int expected =
      group_columns + layout.num_accumulators();
  for (Row& row : *rows) {
    if (row.size() != expected) {
      return Status::Internal(
          StrCat("aggregate row has ", row.size(), " columns, expected ",
                 expected));
    }
    row = layout.Finalize(row, group_columns);
  }
  return Status::OK();
}

// --- group-key codec ---------------------------------------------------------

namespace group_key {

namespace {

template <typename T>
void AppendScalar(T v, std::vector<uint8_t>* out) {
  uint8_t bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

template <typename T>
T ReadScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

void AppendString(std::string_view s, std::vector<uint8_t>* out) {
  AppendScalar(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

}  // namespace

void AppendValue(const Value& v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kInt32:
      AppendScalar(v.i32(), out);
      return;
    case TypeKind::kInt64:
      AppendScalar(v.i64(), out);
      return;
    case TypeKind::kDouble:
      AppendScalar(v.f64(), out);
      return;
    case TypeKind::kString:
      AppendString(v.str(), out);
      return;
  }
}

void AppendColumnValue(const ColumnVector& col, int64_t i,
                       std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(col.type()));
  const size_t r = static_cast<size_t>(i);
  switch (col.type()) {
    case TypeKind::kInt32:
      AppendScalar(col.i32()[r], out);
      return;
    case TypeKind::kInt64:
      AppendScalar(col.i64()[r], out);
      return;
    case TypeKind::kDouble:
      AppendScalar(col.f64()[r], out);
      return;
    case TypeKind::kString:
      AppendString(col.StringViewAt(i), out);
      return;
  }
}

void AppendRow(const Row& row, std::vector<uint8_t>* out) {
  for (const Value& v : row.values()) AppendValue(v, out);
}

Row DecodeRow(const uint8_t* data, size_t len) {
  Row row;
  size_t pos = 0;
  while (pos < len) {
    const TypeKind kind = static_cast<TypeKind>(data[pos++]);
    switch (kind) {
      case TypeKind::kInt32:
        row.Append(Value(ReadScalar<int32_t>(data + pos)));
        pos += sizeof(int32_t);
        break;
      case TypeKind::kInt64:
        row.Append(Value(ReadScalar<int64_t>(data + pos)));
        pos += sizeof(int64_t);
        break;
      case TypeKind::kDouble:
        row.Append(Value(ReadScalar<double>(data + pos)));
        pos += sizeof(double);
        break;
      case TypeKind::kString: {
        const uint32_t n = ReadScalar<uint32_t>(data + pos);
        pos += sizeof(uint32_t);
        row.Append(Value(std::string(reinterpret_cast<const char*>(data + pos),
                                     n)));
        pos += n;
        break;
      }
    }
  }
  CLY_DCHECK(pos == len);
  return row;
}

}  // namespace group_key

// --- HashAggregator ----------------------------------------------------------

int64_t* HashAggregator::FindOrCreate(const uint8_t* key, size_t len,
                                      uint64_t hash) {
  // Grow at 70% load (checked before the probe so the loop below always
  // terminates on an empty slot).
  if ((num_groups_ + 1) * 10 > capacity_ * 7) {
    Rehash(capacity_ == 0 ? 16 : capacity_ * 2);
  }
  size_t slot = static_cast<size_t>(hash) & (capacity_ - 1);
  while (true) {
    Slot& s = slots_[slot];
    if (s.key_len == kEmpty) {
      s.hash = hash;
      s.key_offset = static_cast<uint32_t>(key_arena_.size());
      s.key_len = static_cast<uint32_t>(len);
      key_arena_.insert(key_arena_.end(), key, key + len);
      ++num_groups_;
      if (key_arena_.capacity() != synced_arena_capacity_) {
        synced_arena_capacity_ = key_arena_.capacity();
        mem_.SyncTo(static_cast<int64_t>(memory_bytes()));
      }
      int64_t* accs = accs_.data() + slot * num_accs_;
      for (size_t a = 0; a < num_accs_; ++a) {
        accs[a] = AggLayout::InitValue(layout_.accs()[a]);
      }
      return accs;
    }
    // An empty key (no GROUP BY) may be a null pointer: compare no bytes.
    if (s.hash == hash && s.key_len == len &&
        (len == 0 ||
         std::memcmp(key_arena_.data() + s.key_offset, key, len) == 0)) {
      return accs_.data() + slot * num_accs_;
    }
    slot = (slot + 1) & (capacity_ - 1);
  }
}

void HashAggregator::Rehash(size_t new_capacity) {
  std::vector<Slot> old_slots = std::move(slots_);
  std::vector<int64_t> old_accs = std::move(accs_);
  const size_t old_capacity = capacity_;
  capacity_ = new_capacity;
  slots_.assign(capacity_, Slot{});
  accs_.resize(capacity_ * num_accs_);
  for (size_t i = 0; i < old_capacity; ++i) {
    const Slot& s = old_slots[i];
    if (s.key_len == kEmpty) continue;
    size_t slot = static_cast<size_t>(s.hash) & (capacity_ - 1);
    while (slots_[slot].key_len != kEmpty) slot = (slot + 1) & (capacity_ - 1);
    slots_[slot] = s;
    std::memcpy(accs_.data() + slot * num_accs_,
                old_accs.data() + i * num_accs_, num_accs_ * sizeof(int64_t));
  }
  mem_.SyncTo(static_cast<int64_t>(memory_bytes()));
}

uint64_t HashAggregator::memory_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         accs_.capacity() * sizeof(int64_t) + key_arena_.capacity();
}

void HashAggregator::MergeFrom(const HashAggregator& other) {
  for (size_t i = 0; i < other.capacity_; ++i) {
    const Slot& s = other.slots_[i];
    if (s.key_len == kEmpty) continue;
    int64_t* accs = FindOrCreate(other.key_arena_.data() + s.key_offset,
                                 s.key_len, s.hash);
    layout_.Merge(accs, other.accs_.data() + i * other.num_accs_);
  }
}

Status HashAggregator::Emit(mr::OutputCollector* out) const {
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& s = slots_[i];
    if (s.key_len == kEmpty) continue;
    const Row key =
        group_key::DecodeRow(key_arena_.data() + s.key_offset, s.key_len);
    Row value;
    value.Reserve(static_cast<int>(num_accs_));
    const int64_t* accs = accs_.data() + i * num_accs_;
    for (size_t a = 0; a < num_accs_; ++a) value.Append(Value(accs[a]));
    CLY_RETURN_IF_ERROR(out->Collect(key, value));
  }
  return Status::OK();
}

Status AggReducer::Reduce(const Row& key, const std::vector<Row>& values,
                          mr::TaskContext*, mr::OutputCollector* out) {
  if (values.empty()) return Status::OK();
  rows_in_ += values.size();
  ++rows_out_;
  const int n = layout_.num_accumulators();
  std::vector<int64_t> accs(static_cast<size_t>(n));
  for (int a = 0; a < n; ++a) {
    accs[static_cast<size_t>(a)] =
        AggLayout::InitValue(layout_.accs()[static_cast<size_t>(a)]);
  }
  std::vector<int64_t> in(static_cast<size_t>(n));
  for (const Row& v : values) {
    if (v.size() != n) {
      return Status::Internal(
          StrCat("accumulator row has ", v.size(), " columns, expected ", n));
    }
    for (int a = 0; a < n; ++a) {
      in[static_cast<size_t>(a)] = v.Get(a).AsInt64();
    }
    layout_.Merge(accs.data(), in.data());
  }
  Row out_value;
  out_value.Reserve(n);
  for (int64_t a : accs) out_value.Append(Value(a));
  return out->Collect(key, out_value);
}

Status AggReducer::Cleanup(mr::TaskContext* context, mr::OutputCollector* out) {
  (void)out;
  // Combiner use runs a Setup/Cleanup pair per map-output partition on the
  // same instance, so emit the delta since the last flush (batches counts
  // the flushes; the task itself is counted once).
  if (rows_in_ > 0 || !emitted_) {
    obs::OperatorProfile node;
    node.name = profile_name_;
    node.kind = "aggregate";
    node.rows_in = rows_in_;
    node.rows_out = rows_out_;
    node.batches = 1;
    node.tasks = emitted_ ? 0 : 1;
    context->AddProfileOperator(std::move(node));
    rows_in_ = 0;
    rows_out_ = 0;
    emitted_ = true;
  }
  return Status::OK();
}

}  // namespace core
}  // namespace clydesdale
