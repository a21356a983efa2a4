/// \file timer.hpp
/// \brief Wall-clock timing helpers used by the benchmark harness.
#pragma once

#include <chrono>
#include <cstdint>

namespace spbla::util {

/// Monotonic wall-clock stopwatch.
class Timer {
public:
    using clock = std::chrono::steady_clock;

    Timer() noexcept : start_{clock::now()} {}

    /// Restart the stopwatch.
    void reset() noexcept { start_ = clock::now(); }

    /// Seconds elapsed since construction or last reset().
    [[nodiscard]] double seconds() const noexcept {
        return std::chrono::duration<double>(clock::now() - start_).count();
    }

    /// Milliseconds elapsed since construction or last reset().
    [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

private:
    clock::time_point start_;
};

}  // namespace spbla::util
