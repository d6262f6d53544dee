#ifndef CLYDESDALE_CORE_DIM_TABLE_CACHE_H_
#define CLYDESDALE_CORE_DIM_TABLE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/dim_hash_table.h"
#include "obs/mem_tracker.h"

namespace clydesdale {
namespace core {

/// Identity of one built dimension hash table in the cross-query cache
/// (serving mode, DESIGN.md §15): the dimension's DFS path, the catalog
/// version of that path when the build started (MrCluster::table_version —
/// reloading the table bumps it, so an entry built from stale data can never
/// be probed again), and a fingerprint of everything that shapes the build
/// output.
struct DimCacheKey {
  std::string table_path;
  int64_t version = 0;
  uint64_t filter_fingerprint = 0;

  bool operator==(const DimCacheKey& other) const {
    return version == other.version &&
           filter_fingerprint == other.filter_fingerprint &&
           table_path == other.table_path;
  }
};

struct DimCacheKeyHash {
  size_t operator()(const DimCacheKey& key) const;
};

/// Fingerprint of the build-shaping parts of a dimension join: the predicate
/// tree (via its canonical ToString rendering), the key column, and the aux
/// column list. Two joins with equal fingerprints build byte-identical
/// tables from the same table version.
uint64_t FilterFingerprint(const Predicate& predicate,
                           const std::string& pk_column,
                           const std::vector<std::string>& aux_columns);

struct DimTableCacheStats {
  int64_t hits = 0;    ///< Lookups served without building (incl. in-flight).
  int64_t misses = 0;  ///< Lookups that became the building leader.
  /// Hits that joined another query's in-flight build instead of finding a
  /// finished entry (the single-flight path; also counted in `hits`).
  int64_t shared_builds = 0;
  int64_t evictions = 0;
  /// Sum of resident entries' memory_bytes — the LRU ledger. Evicted-but-
  /// still-referenced tables are *not* in this figure; their real bytes stay
  /// on the MemTracker until the last query drops its reference.
  int64_t resident_bytes = 0;
  int64_t entries = 0;
};

/// Cluster-wide, memory-budgeted LRU cache of built DimHashTables — the
/// serving-mode extension of the paper's JVM-reuse amortization (§5.2): where
/// JVM reuse shares one build across the tasks of a single job, this cache
/// shares it across *queries*, turning repeated star queries into probe-only
/// work.
///
/// Concurrency: GetOrBuild single-flights — the first query needing a key
/// becomes the build leader and runs `builder` outside the cache lock; any
/// concurrent query needing the same key blocks until the leader finishes
/// and shares the one table (one build, one MemTracker charge). Finished
/// tables are immutable and handed out as shared_ptr<const DimHashTable>, so
/// concurrent jobs probe them with no synchronization.
///
/// Memory: every build charges the cache's dedicated MemTracker (a child of
/// the parent passed in — typically the cluster root, so cache and running
/// jobs share one ledger). Eviction drops the cache's reference when the
/// resident ledger exceeds capacity_bytes, but the bytes leave the tracker
/// only when the last in-flight query drops its shared_ptr: DimHashTable
/// holds its charge in a ScopedMemConsumer released on destruction.
///
/// A failed build propagates its Status to every waiter and removes the
/// slot, so a later query retries instead of caching the failure.
class DimTableCache {
 public:
  struct Options {
    /// Eviction threshold over the resident-bytes ledger; 0 = unbounded.
    uint64_t capacity_bytes = 0;
  };

  /// Builds the table for a key on miss; receives the cache's MemTracker to
  /// charge the build against (pass it to DimHashTable::Build).
  using Builder = std::function<Result<std::shared_ptr<const DimHashTable>>(
      const std::shared_ptr<obs::MemTracker>& tracker)>;

  explicit DimTableCache(Options options,
                         std::shared_ptr<obs::MemTracker> parent = nullptr);

  DimTableCache(const DimTableCache&) = delete;
  DimTableCache& operator=(const DimTableCache&) = delete;

  /// Returns the table for `key`, building it via `builder` at most once
  /// across all concurrent callers. `hit` (optional) reports whether this
  /// caller avoided a build — true for resident entries and for joining an
  /// in-flight build, false only for the leader.
  Result<std::shared_ptr<const DimHashTable>> GetOrBuild(
      const DimCacheKey& key, const Builder& builder, bool* hit = nullptr);

  /// Drops every entry (any version, any fingerprint) built from
  /// `table_path`, including in-flight builds (their result is handed to
  /// waiters but never becomes resident). Explicit invalidation; the version
  /// in the key already makes reloaded tables unreachable implicitly.
  void Invalidate(const std::string& table_path);

  /// Drops every entry.
  void Clear();

  DimTableCacheStats stats() const;

  const std::shared_ptr<obs::MemTracker>& mem_tracker() const {
    return tracker_;
  }
  uint64_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  struct Slot {
    bool done = false;
    Status status = Status::OK();
    std::shared_ptr<const DimHashTable> table;
    /// In lru_ + the resident-bytes ledger (done, mapped, not invalidated).
    bool resident = false;
    std::list<DimCacheKey>::iterator lru_it;
  };

  /// Evicts from the LRU tail until the ledger fits capacity, never evicting
  /// `keep` (the entry the current caller is about to use). Caller holds mu_.
  void EvictWhileOverLocked(const DimCacheKey& keep);
  /// Removes one resident entry from the LRU + ledger. Caller holds mu_.
  void DropResidencyLocked(Slot* slot);

  const Options options_;
  std::shared_ptr<obs::MemTracker> tracker_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Signaled when any in-flight build ends.
  std::unordered_map<DimCacheKey, std::shared_ptr<Slot>, DimCacheKeyHash> map_;
  std::list<DimCacheKey> lru_;  ///< Front = most recently used.
  DimTableCacheStats stats_;
};

}  // namespace core
}  // namespace clydesdale

#endif  // CLYDESDALE_CORE_DIM_TABLE_CACHE_H_
