/// \file memory_tracker.hpp
/// \brief Accounting for simulated device memory.
///
/// SPbLA's evaluation reports GPU memory footprints (the "up to 4x less
/// memory" claim). Since the reproduction runs on host memory, every
/// allocation that would live in GPU memory in cuBool/clBool goes through
/// this tracker so benchmarks can report current and peak device footprint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "telemetry/metrics.hpp"

namespace spbla::backend {

/// Thread-safe byte counter with a high-water mark.
///
/// Deliberately lock-free: every member is an atomic updated with fetch-ops
/// (the peak uses a CAS loop), so there is no capability for the
/// thread-safety analysis (util/thread_annotations.hpp) to name — counters
/// must stay wait-free because every DeviceBuffer alloc/free on every pool
/// worker passes through here. TSan covers it via the `parallel` label.
class MemoryTracker {
public:
    /// Record an allocation of \p bytes.
    void on_alloc(std::size_t bytes) noexcept {
        const auto cur = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
        auto peak = peak_.load(std::memory_order_relaxed);
        while (cur > peak &&
               !peak_.compare_exchange_weak(peak, cur, std::memory_order_relaxed)) {
        }
        allocs_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::MemAllocs);
        // The telemetry live gauge aggregates every tracker (one per
        // context); the peak gauge is its process-wide high-water mark.
        const auto live = telemetry::gauge_add(telemetry::Gauge::MemLiveBytes,
                                               static_cast<std::int64_t>(bytes));
        telemetry::gauge_max(telemetry::Gauge::MemPeakBytes, live);
    }

    /// Record a deallocation of \p bytes.
    void on_free(std::size_t bytes) noexcept {
        current_.fetch_sub(bytes, std::memory_order_relaxed);
        frees_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count(telemetry::Counter::MemFrees);
        telemetry::gauge_add(telemetry::Gauge::MemLiveBytes,
                             -static_cast<std::int64_t>(bytes));
    }

    /// Bytes currently allocated.
    [[nodiscard]] std::size_t current_bytes() const noexcept {
        return current_.load(std::memory_order_relaxed);
    }

    /// High-water mark since construction or last reset_peak().
    [[nodiscard]] std::size_t peak_bytes() const noexcept {
        return peak_.load(std::memory_order_relaxed);
    }

    /// Total number of allocations observed.
    [[nodiscard]] std::uint64_t alloc_count() const noexcept {
        return allocs_.load(std::memory_order_relaxed);
    }

    /// Total number of deallocations observed.
    [[nodiscard]] std::uint64_t free_count() const noexcept {
        return frees_.load(std::memory_order_relaxed);
    }

    /// True iff every charged byte has been released.
    [[nodiscard]] bool balanced() const noexcept { return current_bytes() == 0; }

    /// End-of-context leak report: one line summarising outstanding bytes
    /// and the alloc/free pairing. The test harness asserts this is the
    /// zero-leak line after every op suite; Context prints it to stderr at
    /// destruction in checked builds when the balance is non-zero.
    [[nodiscard]] std::string leak_report() const {
        return "MemoryTracker: " + std::to_string(current_bytes()) +
               " bytes outstanding (allocs=" + std::to_string(alloc_count()) +
               ", frees=" + std::to_string(free_count()) +
               ", peak=" + std::to_string(peak_bytes()) + ")";
    }

    /// Reset the high-water mark to the current usage.
    void reset_peak() noexcept {
        peak_.store(current_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    }

private:
    std::atomic<std::size_t> current_{0};
    std::atomic<std::size_t> peak_{0};
    std::atomic<std::uint64_t> allocs_{0};
    std::atomic<std::uint64_t> frees_{0};
};

}  // namespace spbla::backend
