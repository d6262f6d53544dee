#include "core/star_join_job.h"

#include "core/dim_table_cache.h"

#include <atomic>
#include <thread>

#include "common/strings.h"
#include "core/aggregation.h"
#include "core/vector_probe.h"
#include "mapreduce/counters.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_trace.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "storage/scan_spec.h"

namespace clydesdale {
namespace core {

namespace {

/// The query plan bound to the projected fact schema a task reads.
struct BoundPlan {
  SchemaPtr fact_schema;
  BoundPredicatePtr fact_pred;
  AggLayout agg_layout = AggLayout::For({});
  /// One evaluator per accumulator; null means the constant 1 (COUNT).
  std::vector<BoundScalarPtr> acc_exprs;
  std::vector<int> fk_index;  // per dimension, position in the projected row
  std::vector<GroupSource> group_sources;
  /// Staged-join emit mode (paper §5.1 "Discussion"): instead of
  /// aggregating, emit the joined row projected to these sources.
  bool emit_joined_rows = false;
  std::vector<GroupSource> emit_sources;
};

Result<BoundPlan> BindPlan(const StarQuerySpec& spec,
                           const SchemaPtr& fact_schema,
                           const std::vector<std::string>& emit_columns) {
  BoundPlan plan;
  plan.fact_schema = fact_schema;
  CLY_ASSIGN_OR_RETURN(plan.fact_pred, spec.fact_predicate->Bind(*fact_schema));
  plan.agg_layout = AggLayout::For(spec.aggregates);
  for (int expr_index : plan.agg_layout.expr_index()) {
    if (expr_index < 0) {
      plan.acc_exprs.push_back(nullptr);  // COUNT: input is 1
      continue;
    }
    const AggSpec& agg = spec.aggregates[static_cast<size_t>(expr_index)];
    CLY_ASSIGN_OR_RETURN(BoundScalarPtr e, agg.expr->Bind(*fact_schema));
    plan.acc_exprs.push_back(std::move(e));
  }
  for (const DimJoinSpec& dim : spec.dims) {
    CLY_ASSIGN_OR_RETURN(int fk, fact_schema->Require(dim.fact_fk));
    plan.fk_index.push_back(fk);
  }
  CLY_ASSIGN_OR_RETURN(plan.group_sources,
                       ResolveGroupSources(spec, *fact_schema));
  if (!emit_columns.empty()) {
    plan.emit_joined_rows = true;
    // Each output column is either a carried fact column or a freshly joined
    // dimension's aux column; GroupSource resolution covers both.
    StarQuerySpec emit_spec = spec;
    emit_spec.group_by = emit_columns;
    CLY_ASSIGN_OR_RETURN(plan.emit_sources,
                         ResolveGroupSources(emit_spec, *fact_schema));
  }
  return plan;
}

/// One thread's vectorized pipeline over the bound plan (scratch buffers are
/// per-instance, so per-thread).
std::unique_ptr<VectorizedProbe> MakeVectorizedProbe(
    const BoundPlan& plan, const QueryHashTables& tables) {
  std::vector<const DimHashTable*> dim_tables;
  dim_tables.reserve(tables.tables.size());
  for (const auto& t : tables.tables) dim_tables.push_back(t.get());
  std::vector<const BoundScalar*> acc_exprs;
  acc_exprs.reserve(plan.acc_exprs.size());
  for (const auto& e : plan.acc_exprs) acc_exprs.push_back(e.get());
  return std::make_unique<VectorizedProbe>(plan.fact_pred.get(),
                                           plan.fk_index, std::move(dim_tables),
                                           plan.group_sources,
                                           std::move(acc_exprs));
}

/// Rows per B-CIF block handed to the probe loop.
constexpr int64_t kProbeBatchRows = 4096;

/// One worker thread's profile cells. The scan is every split open plus
/// every NextBatch (where a CIF split decodes); the probe is the rest of the
/// thread's probe span.
struct ThreadProfile {
  uint64_t scan_wall_ns = 0, scan_cpu_ns = 0, scan_opens = 0;
  uint64_t probe_wall_ns = 0, probe_cpu_ns = 0;

  void AddScan(const obs::Timer& timer) {
    scan_wall_ns += static_cast<uint64_t>(timer.wall_ns());
    scan_cpu_ns += static_cast<uint64_t>(timer.cpu_ns());
  }
};

/// The probe loop: the whole filter→probe→aggregate pipeline stays columnar
/// inside VectorizedProbe; this loop just pulls batches of up to
/// `batch_rows` rows and routes them to the sink the plan asked for: the
/// thread's partial aggregate, or (`direct_out` non-null: staged emit or
/// map-side aggregation off) one record per joined row.
Status ProcessBatches(const BoundPlan& plan, storage::BatchReader* reader,
                      int64_t batch_rows, mr::OutputCollector* direct_out,
                      HashAggregator* agg, VectorizedProbe* probe,
                      ThreadProfile* prof) {
  RowBatch batch(plan.fact_schema);
  while (true) {
    obs::Timer scan_timer;
    Result<bool> next = reader->NextBatch(&batch, batch_rows);
    scan_timer.Stop();
    prof->AddScan(scan_timer);
    CLY_ASSIGN_OR_RETURN(bool more, std::move(next));
    if (!more) break;
    if (plan.emit_joined_rows) {
      CLY_RETURN_IF_ERROR(
          probe->ProcessBatchEmitJoined(batch, plan.emit_sources, direct_out));
    } else if (direct_out != nullptr) {
      CLY_RETURN_IF_ERROR(probe->ProcessBatchCollect(batch, direct_out));
    } else {
      CLY_RETURN_IF_ERROR(probe->ProcessBatchAgg(batch, agg));
    }
  }
  return Status::OK();
}

/// The scan spec for one query given its built hash tables: the fact
/// predicate's pushable conjuncts plus, per *filtered* dimension, its table
/// as the key filter. A fact row whose foreign key misses the table cannot
/// survive the inner join, so the scan may drop it (and zone maps may drop
/// whole blocks whose key range misses [min_key, max_key]); the tables are
/// immutable after Build, so every scan thread may share them. Unfiltered
/// dimensions keep (nearly) every key, so testing them per row at scan time
/// is pure overhead — their misses are cheap to drop in the probe instead.
/// Returns nullptr when nothing is pushable.
std::shared_ptr<const storage::ScanSpec> BuildScanSpec(
    const StarQuerySpec& spec, const QueryHashTables& tables) {
  auto scan = std::make_shared<storage::ScanSpec>();
  scan->conjuncts = CollectScanConjuncts(spec.fact_predicate);
  for (size_t d = 0; d < spec.dims.size(); ++d) {
    if (spec.dims[d].predicate->IsTrue()) continue;
    scan->key_filters.push_back({spec.dims[d].fact_fk, tables.tables[d]});
  }
  if (scan->empty()) return nullptr;
  return scan;
}

Result<std::vector<std::string>> ProjectionFromConf(const mr::JobConf& conf) {
  std::vector<std::string> projection =
      conf.GetList(mr::kConfInputProjection);
  if (projection.empty()) {
    return Status::InvalidArgument(
        "clydesdale jobs must set input.projection");
  }
  return projection;
}

}  // namespace

std::vector<std::string> ClydesdaleCounterNames() {
  return {
      kCounterHashBuilds,  kCounterHashBuildRows, kCounterHashEntries,
      kCounterHashBytes,   kCounterProbeRows,     kCounterJoinOutputRows,
      kCounterProbeBatches, kCounterAggGroups,    kCounterAggBytes,
  };
}

void ApplyTraceConf(const ClydesdaleOptions& options, mr::JobConf* conf) {
  mr::ApplyObsConf(options.trace, options.trace_dir, options.profile, conf);
}

Result<std::shared_ptr<QueryHashTables>> BuildQueryHashTables(
    mr::TaskContext* context, const StarSchema& star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options,
    obs::OperatorProfile* build_node) {
  obs::Span build_span(context->trace(), "hash-build", "stage",
                       context->task_index(), context->node());
  DimTableCache* cache = options.dim_cache.get();
  auto tables = std::make_shared<QueryHashTables>();
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  for (const DimJoinSpec& join : spec.dims) {
    CLY_ASSIGN_OR_RETURN(const DimTableInfo* dim, star.dim(join.dimension));
    std::shared_ptr<const DimHashTable> table;
    // One build closure either way; the CLY_HASH_* counters fire only on
    // builds that actually ran, so a cache-warm query carries none.
    auto build = [&](const std::shared_ptr<obs::MemTracker>& tracker)
        -> Result<std::shared_ptr<const DimHashTable>> {
      CLY_ASSIGN_OR_RETURN(hdfs::BlockBuffer bytes,
                           ReadDimensionReplica(context, *dim));
      CLY_ASSIGN_OR_RETURN(
          std::shared_ptr<const DimHashTable> built,
          DimHashTable::Build(*dim->desc.schema, bytes->data(), bytes->size(),
                              *join.predicate, join.dim_pk, join.aux_columns,
                              tracker));
      context->AddLocalDiskBytes(built->stats().bytes_read);
      context->counters()->Add(kCounterHashBuilds, 1);
      context->counters()->Add(kCounterHashBuildRows,
                               static_cast<int64_t>(built->stats().input_rows));
      context->counters()->Add(kCounterHashEntries,
                               static_cast<int64_t>(built->stats().entries));
      context->counters()->Add(
          kCounterHashBytes, static_cast<int64_t>(built->stats().memory_bytes));
      build_node->rows_in += built->stats().input_rows;
      build_node->rows_out += built->stats().entries;
      mr::AddScanDetail(built->stats().scan, build_node);
      return built;
    };
    if (cache != nullptr) {
      // Serving mode: the table lives (and is byte-charged) in the
      // cross-query cache. Keyed on the catalog version so a reload makes
      // every entry built from the old data unreachable.
      DimCacheKey key;
      key.table_path = dim->desc.path;
      key.version = context->cluster()->table_version(dim->desc.path);
      key.filter_fingerprint =
          FilterFingerprint(*join.predicate, join.dim_pk, join.aux_columns);
      bool hit = false;
      CLY_ASSIGN_OR_RETURN(table, cache->GetOrBuild(key, build, &hit));
      ++(hit ? cache_hits : cache_misses);
    } else {
      // Tables outlive this attempt (JVM reuse shares them across tasks), so
      // they charge the per-(job, node) tracker, not the attempt's.
      CLY_ASSIGN_OR_RETURN(table, build(context->job_mem_tracker()));
    }
    tables->total_memory_bytes += table->stats().memory_bytes;
    tables->tables.push_back(std::move(table));
  }
  if (cache != nullptr) {
    mr::AddDimCacheCounters(cache_hits, cache_misses, /*evictions=*/0,
                            cache->stats().resident_bytes,
                            context->counters());
  }
  return tables;
}

Result<std::shared_ptr<QueryHashTables>> GetOrBuildHashTables(
    mr::TaskContext* context, const StarSchema& star,
    const StarQuerySpec& spec, const ClydesdaleOptions& options,
    obs::OperatorProfile* build_node) {
  // The JVM-reuse amortisation, made visible: the first task on a node pays
  // a nested "hash-build"; later tasks' "hash-tables" spans are near-zero.
  obs::Span amortise_span(context->trace(), "hash-tables", "stage",
                          context->task_index(), context->node());
  build_node->name = "build";
  build_node->kind = "build";
  build_node->tasks = 1;
  Status build_status;
  std::shared_ptr<QueryHashTables> tables =
      context->shared_state()->GetOrCreate<QueryHashTables>(
          StrCat("clydesdale.hash.", spec.id),
          [&]() -> std::shared_ptr<QueryHashTables> {
            auto built =
                BuildQueryHashTables(context, star, spec, options, build_node);
            if (!built.ok()) {
              build_status = built.status();
              return nullptr;
            }
            return *built;
          });
  amortise_span.End();
  if (tables == nullptr) {
    return build_status.ok()
               ? Status::Internal("hash-table build failed on another task")
               : build_status;
  }
  build_node->wall_ns = static_cast<uint64_t>(amortise_span.wall_ns());
  build_node->wall_max_ns = build_node->wall_ns;
  build_node->cpu_ns = static_cast<uint64_t>(amortise_span.cpu_ns());
  build_node->mem_current_bytes = tables->total_memory_bytes;
  build_node->mem_peak_bytes = tables->total_memory_bytes;
  return tables;
}

// ---------------------------------------------------------------------------
// StarJoinMapRunner (MTMapRunner)
// ---------------------------------------------------------------------------

Status StarJoinMapRunner::Run(const mr::InputSplit& split,
                              mr::InputFormat* input_format,
                              mr::TaskContext* context,
                              mr::OutputCollector* out) {
  (void)input_format;
  const mr::JobConf& conf = context->conf();
  // buildHashTables(conf) — once per node thanks to the shared state.
  obs::OperatorProfile build;
  CLY_ASSIGN_OR_RETURN(
      std::shared_ptr<QueryHashTables> tables,
      GetOrBuildHashTables(context, *star_, spec_, options_, &build));

  CLY_ASSIGN_OR_RETURN(storage::TableDesc fact_desc,
                       context->cluster()->GetTable(star_->fact().path));
  CLY_ASSIGN_OR_RETURN(std::vector<std::string> projection,
                       ProjectionFromConf(conf));
  CLY_ASSIGN_OR_RETURN(SchemaPtr projected,
                       fact_desc.schema->ProjectByName(projection));
  CLY_ASSIGN_OR_RETURN(
      BoundPlan plan,
      BindPlan(spec_, projected, conf.GetList(kConfJoinEmitColumns)));

  // input.getMultipleReaders(): every thread pulls constituents off a queue
  // and opens its own reader — no shared RecordReader bottleneck (§5.1).
  const std::vector<const storage::StorageSplit*> constituents =
      split.Constituents();
  const int num_threads = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(context->allowed_threads(), 1)),
      std::max<size_t>(constituents.size(), 1)));

  // Hand the scan the fact conjuncts and the filtered dimensions' key sets
  // so CIF blocks can be pruned before decode. The probe re-evaluates the
  // full predicate, so results don't depend on it.
  const std::shared_ptr<const storage::ScanSpec> scan_spec =
      BuildScanSpec(spec_, *tables);

  std::atomic<size_t> next{0};
  std::vector<Status> statuses(static_cast<size_t>(num_threads));
  std::vector<hdfs::IoStats> io(static_cast<size_t>(num_threads));
  std::vector<storage::ScanStats> scan_stats(static_cast<size_t>(num_threads));
  // Block iteration (B-CIF, §5.3) is the batch size: off, the reader and the
  // whole pipeline run once per record.
  const int64_t batch_rows = options_.block_iteration ? kProbeBatchRows : 1;
  const bool aggregated = options_.map_side_agg && !plan.emit_joined_rows;
  mr::OutputCollector* const direct_out = aggregated ? nullptr : out;
  // One partial aggregate per thread.
  const AggLayout layout = AggLayout::For(spec_.aggregates);
  std::vector<std::unique_ptr<HashAggregator>> aggs;
  for (int t = 0; t < num_threads; ++t) {
    aggs.push_back(std::make_unique<HashAggregator>(layout));
  }

  std::vector<ThreadProfile> thread_profiles(static_cast<size_t>(num_threads));
  std::vector<VectorizedProbe::Stats> probe_stats(
      static_cast<size_t>(num_threads));

  auto worker = [&](int t) {
    // One probe span per worker thread: the fused scan/filter/probe/agg
    // pipeline over this thread's share of the constituents.
    obs::Span probe_span(context->trace(), "probe", "stage",
                         context->task_index(), context->node());
    HashAggregator* agg = aggs[static_cast<size_t>(t)].get();
    // Partial-aggregate tables are attempt-scoped: charge this attempt's
    // tracker (synced on container growth, released at task end).
    if (context->mem_tracker() != nullptr) {
      agg->AttachMemTracker(context->mem_tracker());
    }
    ThreadProfile* prof = &thread_profiles[static_cast<size_t>(t)];
    std::unique_ptr<VectorizedProbe> vec = MakeVectorizedProbe(plan, *tables);
    while (true) {
      const size_t mine = next.fetch_add(1, std::memory_order_relaxed);
      if (mine >= constituents.size()) break;
      storage::ScanOptions scan;
      scan.projection = projection;
      scan.reader_node = context->node();
      scan.stats = &io[static_cast<size_t>(t)];
      scan.scan_spec = scan_spec;
      scan.scan_stats = &scan_stats[static_cast<size_t>(t)];
      scan.mem_reporter = context->mem_tracker();
      obs::Timer open_timer;
      auto reader = storage::OpenSplitBatchReader(
          *context->cluster()->dfs(), fact_desc, *constituents[mine], scan);
      open_timer.Stop();
      prof->AddScan(open_timer);
      ++prof->scan_opens;
      const Status st = reader.ok()
                            ? ProcessBatches(plan, reader->get(), batch_rows,
                                             direct_out, agg, vec.get(), prof)
                            : reader.status();
      if (!st.ok()) {
        statuses[static_cast<size_t>(t)] = st;
        break;
      }
    }
    probe_stats[static_cast<size_t>(t)] = vec->stats();
    probe_span.End();
    prof->probe_wall_ns = static_cast<uint64_t>(std::max<int64_t>(
        0, probe_span.wall_ns() - static_cast<int64_t>(prof->scan_wall_ns)));
    prof->probe_cpu_ns = static_cast<uint64_t>(std::max<int64_t>(
        0, probe_span.cpu_ns() - static_cast<int64_t>(prof->scan_cpu_ns)));
  };

  if (num_threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
    for (std::thread& th : threads) th.join();
  }

  uint64_t probe_rows = 0, join_rows = 0, probe_batches = 0;
  uint64_t agg_groups = 0, agg_bytes = 0;
  storage::ScanStats scan_totals;
  for (int t = 0; t < num_threads; ++t) {
    CLY_RETURN_IF_ERROR(statuses[static_cast<size_t>(t)]);
    context->MergeIoStats(io[static_cast<size_t>(t)]);
    scan_totals.MergeFrom(scan_stats[static_cast<size_t>(t)]);
    const VectorizedProbe::Stats& stats = probe_stats[static_cast<size_t>(t)];
    probe_rows += stats.rows_in;
    join_rows += stats.join_rows;
    probe_batches += stats.batches;
    agg_groups += aggs[static_cast<size_t>(t)]->num_groups();
    agg_bytes += aggs[static_cast<size_t>(t)]->memory_bytes();
  }
  context->counters()->Add(kCounterProbeRows,
                           static_cast<int64_t>(probe_rows));
  context->counters()->Add(kCounterJoinOutputRows,
                           static_cast<int64_t>(join_rows));
  context->counters()->Add(mr::kCounterMapInputRecords,
                           static_cast<int64_t>(probe_rows));
  context->counters()->Add(kCounterProbeBatches,
                           static_cast<int64_t>(probe_batches));
  mr::AddCifScanCounters(scan_totals, context->counters());
  if (aggregated) {
    context->counters()->Add(kCounterAggGroups,
                             static_cast<int64_t>(agg_groups));
    context->counters()->Add(kCounterAggBytes,
                             static_cast<int64_t>(agg_bytes));
  }

  uint64_t agg_wall_ns = 0, agg_cpu_ns = 0, merged_groups = 0;
  uint64_t merged_agg_bytes = 0;
  if (aggregated) {
    // Merge the per-thread partial aggregates and emit once.
    obs::Span agg_span(context->trace(), "aggregate", "stage",
                       context->task_index(), context->node());
    for (int t = 1; t < num_threads; ++t) {
      aggs[0]->MergeFrom(*aggs[static_cast<size_t>(t)]);
    }
    merged_groups = static_cast<uint64_t>(aggs[0]->num_groups());
    merged_agg_bytes = aggs[0]->memory_bytes();
    CLY_RETURN_IF_ERROR(aggs[0]->Emit(out));
    agg_span.End();
    agg_wall_ns = static_cast<uint64_t>(agg_span.wall_ns());
    agg_cpu_ns = static_cast<uint64_t>(agg_span.cpu_ns());
  }

  // aggregate → probe → {build, scan}: the attempt's plan subtree. Wall sums
  // over worker threads (total work); wall_max keeps the slowest thread's
  // pipeline (critical path within the attempt).
  uint64_t scan_wall = 0, scan_wall_max = 0, scan_cpu = 0, opens = 0;
  uint64_t probe_wall = 0, probe_wall_max = 0, probe_cpu = 0;
  for (const ThreadProfile& tp : thread_profiles) {
    scan_wall += tp.scan_wall_ns;
    scan_wall_max = std::max(scan_wall_max, tp.scan_wall_ns);
    scan_cpu += tp.scan_cpu_ns;
    opens += tp.scan_opens;
    probe_wall += tp.probe_wall_ns;
    probe_wall_max = std::max(probe_wall_max, tp.probe_wall_ns);
    probe_cpu += tp.probe_cpu_ns;
  }
  obs::OperatorProfile scan = mr::ScanProfileNode(
      StrCat("scan:", star_->fact().path), scan_totals, scan_wall, scan_cpu);
  scan.wall_max_ns = scan_wall_max;
  scan.batches = opens;
  obs::OperatorProfile probe;
  probe.name = "probe";
  probe.kind = "probe";
  probe.rows_in = probe_rows;
  probe.rows_out = join_rows;
  probe.batches = probe_batches;
  probe.wall_ns = probe_wall;
  probe.wall_max_ns = probe_wall_max;
  probe.cpu_ns = probe_cpu;
  // The probe holds the node's dimension hash tables resident for the
  // whole task; shared across threads, so current == peak.
  probe.mem_current_bytes = tables->total_memory_bytes;
  probe.mem_peak_bytes = tables->total_memory_bytes;
  probe.tasks = 1;
  probe.children.push_back(std::move(build));
  probe.children.push_back(std::move(scan));
  if (!aggregated) {
    context->AddProfileOperator(std::move(probe));
    return Status::OK();
  }
  obs::OperatorProfile aggregate;
  aggregate.name = "aggregate";
  aggregate.kind = "aggregate";
  aggregate.rows_in = join_rows;
  aggregate.rows_out = merged_groups;
  aggregate.wall_ns = agg_wall_ns;
  aggregate.wall_max_ns = agg_wall_ns;
  aggregate.cpu_ns = agg_cpu_ns;
  // Peak: every thread's partial table resident at once (pre-merge);
  // current: the single merged table that Emit walked.
  aggregate.mem_current_bytes = merged_agg_bytes;
  aggregate.mem_peak_bytes = std::max(agg_bytes, merged_agg_bytes);
  aggregate.tasks = 1;
  aggregate.children.push_back(std::move(probe));
  context->AddProfileOperator(std::move(aggregate));
  return Status::OK();
}

}  // namespace core
}  // namespace clydesdale
