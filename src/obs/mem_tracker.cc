#include "obs/mem_tracker.h"

#include "common/strings.h"

namespace clydesdale {
namespace obs {

std::shared_ptr<MemTracker> MemTracker::Create(
    std::string name, std::shared_ptr<MemTracker> parent) {
  // Not make_shared: the constructor is private and the control block being
  // separate is irrelevant at tracker creation rates (a handful per job).
  return std::shared_ptr<MemTracker>(
      new MemTracker(std::move(name), std::move(parent)));
}

void MemTracker::Consume(int64_t bytes) {
  if (bytes == 0) return;
  for (MemTracker* t = this; t != nullptr; t = t->parent_.get()) {
    const int64_t now =
        t->consumed_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (bytes > 0) t->UpdatePeak(now);
  }
}

std::string NodeTrackerName(int node) { return StrCat("node", node); }

std::string JobTrackerName(int64_t instance, int node) {
  return StrCat("job", instance, "@node", node);
}

}  // namespace obs
}  // namespace clydesdale
