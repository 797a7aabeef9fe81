#ifndef APLUS_UTIL_TIMER_H_
#define APLUS_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace aplus {

// Monotonic wall-clock timer used by the benchmark harnesses to report the
// runtime and index-creation (IC/IR) columns of the paper's tables.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  // Elapsed time since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace aplus

#endif  // APLUS_UTIL_TIMER_H_
