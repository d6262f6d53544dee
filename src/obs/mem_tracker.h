#ifndef CLYDESDALE_OBS_MEM_TRACKER_H_
#define CLYDESDALE_OBS_MEM_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/mem.h"

namespace clydesdale {
namespace obs {

/// Hierarchical memory accounting (cluster → node → job@node → attempt),
/// modeled on Impala's MemTracker. Consume/Release walk the parent chain
/// with relaxed atomics — no locks on the hot path — and every level keeps
/// a high-water mark. Trackers only account; they never reject. Memory
/// pressure is handled by planning (the staged fallback under
/// ClydesdaleOptions::max_hash_memory_bytes), not by failing consumers.
///
/// Ownership: trackers are shared_ptr-only (Create) and each child holds a
/// strong reference to its parent. Consumers that charge a tracker keep it
/// alive through ScopedMemConsumer, so releases during late teardown (dim
/// tables dropped by scratch GC after the job runner is gone) always find a
/// live chain.
class MemTracker final : public MemReporter {
 public:
  static std::shared_ptr<MemTracker> Create(
      std::string name, std::shared_ptr<MemTracker> parent = nullptr);

  /// Adds `bytes` (may be negative) to this tracker and every ancestor.
  void Consume(int64_t bytes) override;
  void Release(int64_t bytes) override { Consume(-bytes); }

  int64_t consumed() const {
    return consumed_.load(std::memory_order_relaxed);
  }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::shared_ptr<MemTracker>& parent() const { return parent_; }

 private:
  MemTracker(std::string name, std::shared_ptr<MemTracker> parent)
      : name_(std::move(name)), parent_(std::move(parent)) {}

  void UpdatePeak(int64_t observed) {
    int64_t p = peak_.load(std::memory_order_relaxed);
    while (observed > p &&
           !peak_.compare_exchange_weak(p, observed,
                                        std::memory_order_relaxed)) {
    }
  }

  const std::string name_;
  const std::shared_ptr<MemTracker> parent_;
  std::atomic<int64_t> consumed_{0};
  std::atomic<int64_t> peak_{0};
};

/// Canonical tracker names for the fixed levels of the tree;
/// scripts/check_mem_gauges.sh asserts the engine creates those levels
/// through these helpers.
std::string NodeTrackerName(int node);
std::string JobTrackerName(int64_t instance, int node);

/// RAII consumer against one tracker: releases exactly what it consumed on
/// destruction (or ReleaseAll), so no error path can leak tracked bytes.
/// Null-tracker consumers are no-ops everywhere — consumers stay oblivious
/// to whether a tracker is attached.
class ScopedMemConsumer {
 public:
  ScopedMemConsumer() = default;
  explicit ScopedMemConsumer(std::shared_ptr<MemTracker> tracker)
      : tracker_(std::move(tracker)) {}
  ~ScopedMemConsumer() { ReleaseAll(); }

  ScopedMemConsumer(const ScopedMemConsumer&) = delete;
  ScopedMemConsumer& operator=(const ScopedMemConsumer&) = delete;
  ScopedMemConsumer(ScopedMemConsumer&& other) noexcept
      : tracker_(std::move(other.tracker_)), consumed_(other.consumed_) {
    other.tracker_ = nullptr;
    other.consumed_ = 0;
  }
  ScopedMemConsumer& operator=(ScopedMemConsumer&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      tracker_ = std::move(other.tracker_);
      consumed_ = other.consumed_;
      other.tracker_ = nullptr;
      other.consumed_ = 0;
    }
    return *this;
  }

  void Add(int64_t bytes) {
    if (tracker_ == nullptr || bytes == 0) return;
    tracker_->Consume(bytes);
    consumed_ += bytes;
  }

  /// Consume or release the delta that moves this consumer's charge to
  /// `target_bytes` — for consumers that only know their current footprint
  /// (container capacities), not individual allocations.
  void SyncTo(int64_t target_bytes) { Add(target_bytes - consumed_); }

  void ReleaseAll() {
    if (tracker_ != nullptr && consumed_ != 0) {
      tracker_->Release(consumed_);
    }
    consumed_ = 0;
  }

  int64_t consumed() const { return consumed_; }
  int64_t peak() const { return tracker_ == nullptr ? 0 : tracker_->peak(); }
  const std::shared_ptr<MemTracker>& tracker() const { return tracker_; }

 private:
  std::shared_ptr<MemTracker> tracker_;
  int64_t consumed_ = 0;
};

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_MEM_TRACKER_H_
