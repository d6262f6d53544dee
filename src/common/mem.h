#ifndef CLYDESDALE_COMMON_MEM_H_
#define CLYDESDALE_COMMON_MEM_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace clydesdale {

/// Attribution half of memory accounting: anything that can be told "these
/// bytes now exist / no longer exist". The storage layer reports through this
/// interface so it never needs to see the obs tracker tree (common < storage
/// < obs consumers); obs::MemTracker is the real implementation.
///
/// Contract: every Consume must eventually be matched by a Release of the
/// same amount, and implementations must be safe to call from any thread.
class MemReporter {
 public:
  virtual ~MemReporter() = default;
  virtual void Consume(int64_t bytes) = 0;
  virtual void Release(int64_t bytes) = 0;
};

/// Wraps a shared byte arena so its bytes stay attributed to `reporter` for
/// exactly as long as *any* reference to the arena lives. CIF scans hand
/// string arenas to RowBatches that outlive the reader; charging at wrap
/// time and releasing in the wrapper's deleter makes the tracked total equal
/// the bytes actually held, however long consumers keep the batch around.
inline std::shared_ptr<const std::vector<uint8_t>> TrackSharedArena(
    std::shared_ptr<const std::vector<uint8_t>> arena,
    std::shared_ptr<MemReporter> reporter) {
  if (arena == nullptr || reporter == nullptr || arena->empty()) return arena;
  const int64_t bytes = static_cast<int64_t>(arena->size());
  reporter->Consume(bytes);
  const std::vector<uint8_t>* raw = arena.get();
  return std::shared_ptr<const std::vector<uint8_t>>(
      raw, [arena = std::move(arena), reporter = std::move(reporter),
            bytes](const std::vector<uint8_t>*) { reporter->Release(bytes); });
}

}  // namespace clydesdale

#endif  // CLYDESDALE_COMMON_MEM_H_
