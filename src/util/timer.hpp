// Wall-clock stopwatch used by the experiment harness to report build/search
// times in the same units the paper's tables use.
#pragma once

#include <chrono>

namespace tabby::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tabby::util
