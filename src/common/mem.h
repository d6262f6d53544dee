#ifndef CLYDESDALE_COMMON_MEM_H_
#define CLYDESDALE_COMMON_MEM_H_

#include <cstdint>

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

}  // namespace clydesdale

#endif  // CLYDESDALE_COMMON_MEM_H_
