#include "core/vector_probe.h"

#include <algorithm>

namespace clydesdale {
namespace core {

VectorizedProbe::VectorizedProbe(const BoundPredicate* fact_pred,
                                 std::vector<int> fk_index,
                                 std::vector<const DimHashTable*> tables,
                                 std::vector<GroupSource> group_sources,
                                 std::vector<const BoundScalar*> acc_exprs)
    : fact_pred_(fact_pred),
      fk_index_(std::move(fk_index)),
      tables_(std::move(tables)),
      group_sources_(std::move(group_sources)),
      acc_exprs_(std::move(acc_exprs)) {
  matched_.resize(tables_.size());
  acc_columns_.resize(acc_exprs_.size());
  acc_inputs_.resize(acc_exprs_.size());
}

int64_t VectorizedProbe::FilterAndProbe(const RowBatch& batch) {
  const int64_t n = batch.num_rows();
  ++stats_.batches;
  stats_.rows_in += static_cast<uint64_t>(n);

  sel_bytes_.assign(static_cast<size_t>(n), 1);
  fact_pred_->EvalBatch(batch, &sel_bytes_);

  // Compact the byte mask into a selection vector of row indexes, writing
  // every row and advancing past the kept ones (no branch per row).
  sel_idx_.resize(static_cast<size_t>(n));
  int64_t m = 0;
  for (int64_t i = 0; i < n; ++i) {
    sel_idx_[static_cast<size_t>(m)] = static_cast<int32_t>(i);
    m += static_cast<int64_t>(sel_bytes_[static_cast<size_t>(i)] != 0);
  }
  stats_.rows_selected += static_cast<uint64_t>(m);

  // Per-dimension: gather the FK column over the selection, batch-probe with
  // prefetch, then compact away the misses (early-out, one dimension at a
  // time instead of one row at a time). An FK column carrying an RLE run
  // overlay (from an RLE-encoded CIF block) pays one hash probe per touched
  // run instead: every row of a run shares its key, and the selection and
  // runs are both ascending, so a single cursor walks them in tandem.
  for (size_t d = 0; d < tables_.size() && m > 0; ++d) {
    const ColumnVector& col = batch.column(fk_index_[d]);
    std::vector<int32_t>& hits = matched_[d];
    hits.resize(static_cast<size_t>(m));
    if (col.has_runs()) {
      const std::vector<int64_t>& run_values = col.run_values();
      const std::vector<int32_t>& run_starts = col.run_starts();
      size_t r = 0;
      int64_t probed_run = -1;
      int32_t hit = DimHashTable::kMiss;
      for (int64_t j = 0; j < m; ++j) {
        const int32_t idx = sel_idx_[static_cast<size_t>(j)];
        while (run_starts[r + 1] <= idx) ++r;
        if (static_cast<int64_t>(r) != probed_run) {
          probed_run = static_cast<int64_t>(r);
          hit = tables_[d]->Probe(run_values[r]);
        }
        hits[static_cast<size_t>(j)] = hit;
      }
    } else {
      keys_.resize(static_cast<size_t>(m));
      if (col.type() == TypeKind::kInt32) {
        const auto& data = col.i32();
        for (int64_t j = 0; j < m; ++j) {
          keys_[static_cast<size_t>(j)] =
              data[static_cast<size_t>(sel_idx_[static_cast<size_t>(j)])];
        }
      } else {
        for (int64_t j = 0; j < m; ++j) {
          keys_[static_cast<size_t>(j)] =
              col.KeyAt(sel_idx_[static_cast<size_t>(j)]);
        }
      }
      tables_[d]->ProbeBatch(keys_.data(), m, hits.data());
    }

    int64_t k = 0;
    for (int64_t j = 0; j < m; ++j) {
      sel_idx_[static_cast<size_t>(k)] = sel_idx_[static_cast<size_t>(j)];
      for (size_t e = 0; e <= d; ++e) {
        matched_[e][static_cast<size_t>(k)] = matched_[e][static_cast<size_t>(j)];
      }
      k += static_cast<int64_t>(hits[static_cast<size_t>(j)] !=
                                DimHashTable::kMiss);
    }
    m = k;
  }
  stats_.join_rows += static_cast<uint64_t>(m);
  return m;
}

void VectorizedProbe::EvalAccumulators(const RowBatch& batch, int64_t n) {
  for (size_t a = 0; a < acc_exprs_.size(); ++a) {
    std::vector<int64_t>& out = acc_columns_[a];
    out.resize(static_cast<size_t>(n));
    if (acc_exprs_[a] == nullptr) {
      std::fill(out.begin(), out.end(), int64_t{1});
    } else {
      acc_exprs_[a]->EvalBatch(batch, sel_idx_.data(), n, out.data());
    }
  }
}

void VectorizedProbe::EncodeGroupKey(const RowBatch& batch, int64_t j) {
  key_scratch_.clear();
  for (const GroupSource& src : group_sources_) {
    const auto [col, row] = SourceAt(src, batch, j);
    group_key::AppendColumnValue(*col, row, &key_scratch_);
  }
}

std::pair<const ColumnVector*, int64_t> VectorizedProbe::SourceAt(
    const GroupSource& src, const RowBatch& batch, int64_t j) const {
  const size_t pos = static_cast<size_t>(j);
  if (src.from_fact) {
    return {&batch.column(src.fact_index), sel_idx_[pos]};
  }
  const size_t d = static_cast<size_t>(src.dim_index);
  return {&tables_[d]->aux_column(src.aux_index), matched_[d][pos]};
}

Status VectorizedProbe::ProcessBatchAgg(const RowBatch& batch,
                                        HashAggregator* agg) {
  const int64_t m = FilterAndProbe(batch);
  if (m == 0) return Status::OK();
  // Weighted fast path: when every accumulator input is the constant 1
  // (COUNT) and every group column comes from a dimension payload, a stretch
  // of consecutive selection positions with equal matched payload slots
  // shares both key and inputs, so one weighted table update covers it. RLE
  // foreign-key columns produce exactly such stretches.
  bool weighted = true;
  for (const BoundScalar* e : acc_exprs_) {
    if (e != nullptr) weighted = false;
  }
  for (const GroupSource& src : group_sources_) {
    if (src.from_fact) weighted = false;
  }
  if (weighted) {
    std::fill(acc_inputs_.begin(), acc_inputs_.end(), int64_t{1});
    auto same_groups = [&](int64_t a, int64_t b) {
      for (const GroupSource& src : group_sources_) {
        const auto& hits = matched_[static_cast<size_t>(src.dim_index)];
        if (hits[static_cast<size_t>(a)] != hits[static_cast<size_t>(b)]) {
          return false;
        }
      }
      return true;
    };
    int64_t j = 0;
    while (j < m) {
      int64_t k = j + 1;
      while (k < m && same_groups(j, k)) ++k;
      EncodeGroupKey(batch, j);
      agg->AddEncodedWeighted(key_scratch_.data(), key_scratch_.size(),
                              acc_inputs_.data(), k - j);
      j = k;
    }
    return Status::OK();
  }
  EvalAccumulators(batch, m);
  for (int64_t j = 0; j < m; ++j) {
    EncodeGroupKey(batch, j);
    for (size_t a = 0; a < acc_columns_.size(); ++a) {
      acc_inputs_[a] = acc_columns_[a][static_cast<size_t>(j)];
    }
    agg->AddEncoded(key_scratch_.data(), key_scratch_.size(),
                    acc_inputs_.data());
  }
  return Status::OK();
}

Status VectorizedProbe::ProcessBatchCollect(const RowBatch& batch,
                                            mr::OutputCollector* out) {
  const int64_t m = FilterAndProbe(batch);
  if (m == 0) return Status::OK();
  EvalAccumulators(batch, m);
  for (int64_t j = 0; j < m; ++j) {
    Row group_key;
    group_key.Reserve(static_cast<int>(group_sources_.size()));
    for (const GroupSource& src : group_sources_) {
      const auto [col, row] = SourceAt(src, batch, j);
      group_key.Append(col->GetValue(row));
    }
    Row value;
    value.Reserve(static_cast<int>(acc_columns_.size()));
    for (const auto& col : acc_columns_) {
      value.Append(Value(col[static_cast<size_t>(j)]));
    }
    CLY_RETURN_IF_ERROR(out->Collect(group_key, value));
  }
  return Status::OK();
}

Status VectorizedProbe::ProcessBatchEmitJoined(
    const RowBatch& batch, const std::vector<GroupSource>& emit_sources,
    mr::OutputCollector* out) {
  const int64_t m = FilterAndProbe(batch);
  for (int64_t j = 0; j < m; ++j) {
    Row joined;
    joined.Reserve(static_cast<int>(emit_sources.size()));
    for (const GroupSource& src : emit_sources) {
      const auto [col, row] = SourceAt(src, batch, j);
      joined.Append(col->GetValue(row));
    }
    Row empty_key;
    CLY_RETURN_IF_ERROR(out->Collect(empty_key, joined));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace clydesdale
