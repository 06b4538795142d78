// Wall-clock timing utilities used by the simulator to measure per-rank
// local compute inside bulk-synchronous supersteps.
#pragma once

#include <chrono>

namespace dms {

/// Monotonic stopwatch measuring seconds.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace dms
