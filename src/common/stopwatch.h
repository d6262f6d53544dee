#ifndef CLYDESDALE_COMMON_STOPWATCH_H_
#define CLYDESDALE_COMMON_STOPWATCH_H_

#include <chrono>

namespace clydesdale {

/// Wall-clock stopwatch for the functional measurement layer.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace clydesdale

#endif  // CLYDESDALE_COMMON_STOPWATCH_H_
