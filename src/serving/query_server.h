#ifndef CLYDESDALE_SERVING_QUERY_SERVER_H_
#define CLYDESDALE_SERVING_QUERY_SERVER_H_

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/clydesdale.h"
#include "core/dim_table_cache.h"
#include "core/star_query.h"
#include "core/star_schema.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace serving {

struct QueryServerOptions {
  /// Per-query engine knobs; dim_cache is overwritten with the server's own
  /// cross-query cache.
  core::ClydesdaleOptions engine;
  /// LRU threshold of the cross-query DimHashTable cache; 0 = unbounded.
  uint64_t dim_cache_bytes = 256ull << 20;
  /// Exact-repeat result cache capacity (entries); 0 disables it.
  size_t result_cache_entries = 64;
};

struct QueryServerStats {
  int64_t queries = 0;
  int64_t result_cache_hits = 0;
  core::DimTableCacheStats dim_cache;
};

/// Resident query-serving mode (ROADMAP item 4, DESIGN.md §15): a
/// long-lived front end over one MrCluster that accepts a stream of star
/// queries and amortizes dimension work across them — the cross-query
/// extension of the paper's JVM-reuse insight (§5.2).
///
/// Layers, fastest first:
///   1. result cache — exact-repeat queries (same spec fingerprint AND same
///      table versions) return the previous rows without running a job;
///   2. dim-table cache — distinct queries sharing dimension filters probe
///      already-built DimHashTables, turning their map phase probe-only;
///   3. the engine — anything else pays the full build, priming both caches.
///
/// Invalidation: table reloads funnel through MrCluster::InvalidateTable,
/// which bumps the path's catalog version; both caches key on versions, so
/// stale entries are unreachable the moment the bump lands. Invalidate()
/// additionally drops them eagerly.
///
/// Concurrency: N client threads may call Execute() at once; the server
/// starts no threads of its own. Concurrent jobs share the cluster's
/// persistent pull-based trackers, and concurrent builds of the same cache
/// entry are single-flighted. The dim cache's bytes live in a dedicated
/// MemTracker child of the cluster root, so cache and running jobs share
/// one ledger.
class QueryServer {
 public:
  QueryServer(mr::MrCluster* cluster, core::StarSchema star,
              QueryServerOptions options = {});

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Runs (or answers from cache) one query. Thread-safe; blocking.
  Result<core::QueryResult> Execute(const core::StarQuerySpec& spec);

  /// Explicit invalidation: bumps the table's catalog version (dropping the
  /// cluster's cached TableDesc) and eagerly evicts both caches' entries
  /// built from it.
  void Invalidate(const std::string& table_path);

  /// Drops everything from both caches (versions are untouched).
  void InvalidateAll();

  QueryServerStats stats() const;
  const std::shared_ptr<core::DimTableCache>& dim_cache() const {
    return dim_cache_;
  }
  const core::StarSchema& star() const { return engine_.star(); }

 private:
  struct ResultEntry {
    uint64_t key = 0;
    core::QueryResult result;
  };

  /// Fingerprint of the full query spec plus the current catalog versions of
  /// every table it touches — equal keys imply byte-identical results.
  uint64_t ResultCacheKey(const core::StarQuerySpec& spec);

  mr::MrCluster* const cluster_;
  QueryServerOptions options_;
  std::shared_ptr<core::DimTableCache> dim_cache_;
  core::ClydesdaleEngine engine_;

  mutable std::mutex mu_;
  std::list<ResultEntry> result_lru_;  ///< Front = most recently used.
  std::unordered_map<uint64_t, std::list<ResultEntry>::iterator> result_index_;
  int64_t queries_ = 0;
  int64_t result_cache_hits_ = 0;
  /// Cache evictions already surfaced into some query's counters, so each
  /// eviction is reported exactly once across the stream.
  int64_t evictions_flushed_ = 0;
};

}  // namespace serving
}  // namespace clydesdale

#endif  // CLYDESDALE_SERVING_QUERY_SERVER_H_
