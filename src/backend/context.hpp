/// \file context.hpp
/// \brief Execution context — the reproduction's stand-in for a GPU device.
///
/// cuBool binds work to a CUDA device; clBool to an OpenCL queue. Here a
/// Context owns a worker pool (the "device"), a memory tracker (the "device
/// memory"), and an execution policy. Ops take a Context& and launch their
/// kernels through it; passing Policy::Sequential reproduces SPbLA's CPU
/// fallback backend, Policy::Parallel the GPU backend.
#pragma once

#include <cstddef>
#include <memory>

#include "backend/block_cache.hpp"
#include "backend/device_buffer.hpp"
#include "backend/memory_tracker.hpp"
#include "telemetry/metrics.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace spbla::backend {

/// How kernels execute.
enum class Policy {
    Sequential,  ///< single host thread (SPbLA's CPU fallback backend)
    Parallel,    ///< worker pool (stands in for the CUDA/OpenCL backends)
};

/// A simulated device: worker pool + tracked memory + launch helpers.
class Context {
public:
    /// \p policy execution policy, \p num_threads pool size (0 → hardware).
    explicit Context(Policy policy = Policy::Parallel, std::size_t num_threads = 0);

    /// In checked builds (SPBLA_CHECKS=cheap or full) a context that is torn
    /// down with device bytes still charged prints the tracker's leak report
    /// to stderr — the analog of a cudaFree audit at device shutdown. The
    /// test harness upgrades this to a hard per-test assertion via
    /// testing::CheckedContext.
    ~Context();

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    [[nodiscard]] Policy policy() const noexcept { return policy_; }
    [[nodiscard]] MemoryTracker& tracker() noexcept { return tracker_; }
    [[nodiscard]] const MemoryTracker& tracker() const noexcept { return tracker_; }

    /// Pool used for parallel launches; nullptr under Policy::Sequential.
    [[nodiscard]] util::ThreadPool* pool() const noexcept {
        return policy_ == Policy::Parallel ? pool_.get() : nullptr;
    }

    /// Launch body(begin, end) over contiguous chunks of [0, n): the kernel
    /// launch, whose body loops over its rows inline, so a launch costs one
    /// call per chunk, not one per row. Chunks are dynamically scheduled
    /// (work-stealing tickets). A chunk body's scratch is its own alloc()
    /// buffers, freed when the body returns.
    void parallel_for_chunks(std::size_t n, std::size_t grain,
                             const std::function<void(std::size_t, std::size_t)>& body) const {
        util::parallel_for_chunks(pool(), n, grain, body);
    }

    /// Exclusive prefix sum on the device pool (thrust::exclusive_scan
    /// analog); parallel two-level scan for large inputs.
    std::uint64_t exclusive_scan(std::vector<std::uint32_t>& data) const {
        return util::exclusive_scan(pool(), data);
    }

    /// Allocate a tracked device buffer of \p count elements: op outputs'
    /// staging and kernel scratch alike, sized exactly and uncharged when the
    /// buffer goes out of scope. Contents undefined (poisoned at
    /// SPBLA_CHECKS=full). Safe from any worker: the tracker is lock-free.
    template <class T>
    [[nodiscard]] DeviceBuffer<T> alloc(std::size_t count) {
        return DeviceBuffer<T>{&tracker_, count};
    }

    /// alloc() for a staging segment of the one-pass runner: its storage is
    /// a block the context cached when an earlier segment of the same size
    /// was freed, and goes back to that cache on release (BlockCache).
    /// Charged to the tracker while in use, as alloc() is.
    template <class T>
    [[nodiscard]] DeviceBuffer<T> alloc_segment(std::size_t count) {
        return DeviceBuffer<T>{&tracker_, &segments_, count};
    }

    /// Bytes of freed staging segments held for reuse (not charged).
    [[nodiscard]] std::size_t cached_segment_bytes() const { return segments_.cached_bytes(); }

    /// Hierarchical profiling summary for work launched through this (or
    /// any) context: span tree with call counts, totals and percentages.
    /// Empty-ish unless built with SPBLA_PROFILE=counters
    /// or trace (the prof registry is process-wide; kernels record into
    /// per-thread logs, so the summary covers every context's launches).
    [[nodiscard]] static std::string profile_summary();

    /// Point-in-time view of the always-on telemetry registry (process-wide,
    /// like the prof registry: counters, gauges and latency histograms from
    /// every context). Always populated — no build flag required.
    [[nodiscard]] static telemetry::Snapshot metrics_snapshot();

private:
    Policy policy_;
    std::unique_ptr<util::ThreadPool> pool_;
    MemoryTracker tracker_;
    BlockCache segments_;
};

/// Process-wide default context (parallel policy, hardware thread count).
[[nodiscard]] Context& default_context();

}  // namespace spbla::backend
