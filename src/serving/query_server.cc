#include "serving/query_server.h"

#include <utility>

#include "common/hash.h"
#include "mapreduce/counters.h"

namespace clydesdale {
namespace serving {

namespace {

core::ClydesdaleOptions WithCache(core::ClydesdaleOptions options,
                                  std::shared_ptr<core::DimTableCache> cache) {
  options.dim_cache = std::move(cache);
  return options;
}

}  // namespace

QueryServer::QueryServer(mr::MrCluster* cluster, core::StarSchema star,
                         QueryServerOptions options)
    : cluster_(cluster),
      options_(std::move(options)),
      dim_cache_(std::make_shared<core::DimTableCache>(
          core::DimTableCache::Options{options_.dim_cache_bytes},
          cluster->mem_tracker())),
      engine_(cluster, std::move(star),
              WithCache(options_.engine, dim_cache_)) {}

uint64_t QueryServer::ResultCacheKey(const core::StarQuerySpec& spec) {
  uint64_t h = HashString(spec.id);
  h = HashCombine(h, HashString(spec.fact_predicate->ToString()));
  for (const core::DimJoinSpec& join : spec.dims) {
    h = HashCombine(h, HashString(join.dimension));
    h = HashCombine(h, HashString(join.fact_fk));
    h = HashCombine(
        h, core::FilterFingerprint(*join.predicate, join.dim_pk,
                                   join.aux_columns));
    // The dimension's catalog version: a reload makes every cached result
    // that read the old data unreachable.
    if (auto dim = engine_.star().dim(join.dimension); dim.ok()) {
      h = HashCombine(h, Mix64(static_cast<uint64_t>(
                             cluster_->table_version((*dim)->desc.path))));
    }
  }
  for (const core::AggSpec& agg : spec.aggregates) {
    h = HashCombine(h, HashString(agg.name));
    h = HashCombine(h, HashString(core::AggKindToString(agg.kind)));
    if (agg.expr != nullptr) {
      h = HashCombine(h, HashString(agg.expr->ToString()));
    }
  }
  for (const std::string& g : spec.group_by) h = HashCombine(h, HashString(g));
  for (const core::OrderBySpec& o : spec.order_by) {
    h = HashCombine(h, HashString(o.column));
    h = HashCombine(h, o.ascending ? 1 : 2);
  }
  const std::string& fact_path = engine_.star().fact().path;
  h = HashCombine(h, HashString(fact_path));
  h = HashCombine(
      h, Mix64(static_cast<uint64_t>(cluster_->table_version(fact_path))));
  return h;
}

Result<core::QueryResult> QueryServer::Execute(
    const core::StarQuerySpec& spec) {
  const uint64_t key = ResultCacheKey(spec);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
    if (options_.result_cache_entries > 0) {
      auto it = result_index_.find(key);
      if (it != result_index_.end()) {
        result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
        ++result_cache_hits_;
        core::QueryResult result = it->second->result;
        result.from_result_cache = true;
        return result;
      }
    }
  }

  CLY_ASSIGN_OR_RETURN(core::QueryResult result, engine_.Execute(spec));

  const core::DimTableCacheStats cache_stats = dim_cache_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  // Surface the cache activity the build path can't see from inside a task:
  // evictions (which happen on *other* queries' inserts) as a once-each
  // delta, and the post-query resident footprint. Rides the standard flush
  // helper so check_counters.sh audit #6 covers it.
  const int64_t evict_delta = cache_stats.evictions - evictions_flushed_;
  evictions_flushed_ = cache_stats.evictions;
  if (!result.stage_reports.empty()) {
    mr::AddDimCacheCounters(/*hits=*/0, /*misses=*/0, evict_delta,
                            cache_stats.resident_bytes,
                            &result.stage_reports.back().counters);
  }
  if (options_.result_cache_entries > 0) {
    result_lru_.push_front({key, result});
    result_index_[key] = result_lru_.begin();
    while (result_lru_.size() > options_.result_cache_entries) {
      result_index_.erase(result_lru_.back().key);
      result_lru_.pop_back();
    }
  }
  return result;
}

void QueryServer::Invalidate(const std::string& table_path) {
  cluster_->InvalidateTable(table_path);  // version bump
  dim_cache_->Invalidate(table_path);
  // Result entries keyed with the old version can never hit again; drop
  // them eagerly anyway so their rows don't linger until LRU turnover.
  std::lock_guard<std::mutex> lock(mu_);
  result_index_.clear();
  result_lru_.clear();
}

void QueryServer::InvalidateAll() {
  dim_cache_->Clear();
  std::lock_guard<std::mutex> lock(mu_);
  result_index_.clear();
  result_lru_.clear();
}

QueryServerStats QueryServer::stats() const {
  QueryServerStats stats;
  stats.dim_cache = dim_cache_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  stats.queries = queries_;
  stats.result_cache_hits = result_cache_hits_;
  return stats;
}

}  // namespace serving
}  // namespace clydesdale
