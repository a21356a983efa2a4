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

#include "backend/arena.hpp"
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

    /// Launch body(i) for i in [0, n) ("one thread per row" kernel shape).
    /// Chunks are dynamically scheduled (work-stealing tickets) by default;
    /// pass util::Schedule::Static for the FIFO one-closure-per-chunk path.
    void parallel_for(std::size_t n, std::size_t grain,
                      const std::function<void(std::size_t)>& body,
                      util::Schedule schedule = util::Schedule::Dynamic) const {
        // Same expansion util::parallel_for performs, but routed through the
        // chunk wrapper below so the body runs under a per-chunk arena scope.
        parallel_for_chunks(
            n, grain,
            [&body](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) body(i);
            },
            schedule);
    }

    /// Launch body(begin, end) over contiguous chunks of [0, n). Each chunk
    /// body runs inside a ScopedArena on the executing worker's own arena,
    /// so kernel scratch (ArenaVector, scratch_arena() bumps) is reclaimed
    /// wholesale at chunk exit and workers never contend on an allocator.
    /// Safe for concurrent launches on one pool: a worker only ever rewinds
    /// its own arena, to the mark its own chunk took.
    void parallel_for_chunks(std::size_t n, std::size_t grain,
                             const std::function<void(std::size_t, std::size_t)>& body,
                             util::Schedule schedule = util::Schedule::Dynamic) const {
        util::parallel_for_chunks(
            pool(), n, grain,
            [this, &body](std::size_t begin, std::size_t end) {
                ScopedArena scope{arena_hub_->local()};
                body(begin, end);
            },
            schedule);
    }

    /// Exclusive prefix sum on the device pool (thrust::exclusive_scan
    /// analog); parallel two-level scan for large inputs.
    std::uint64_t exclusive_scan(std::vector<std::uint32_t>& data) const {
        return util::exclusive_scan(pool(), data);
    }

    /// Allocate a tracked device buffer of \p count elements.
    template <class T>
    [[nodiscard]] DeviceBuffer<T> alloc(std::size_t count) {
        return DeviceBuffer<T>{&tracker_, count};
    }

    /// The calling thread's op arena (created on first use). Open a
    /// ScopedArena on it around an op to reclaim everything at op exit;
    /// chunk bodies launched via parallel_for* get their scope implicitly.
    [[nodiscard]] Arena& scratch_arena() const { return arena_hub_->local(); }

    /// Per-context arena registry (one arena per touching thread).
    [[nodiscard]] ArenaHub& arena_hub() const noexcept { return *arena_hub_; }

    /// Arena-backed scratch buffer on the calling thread's arena: valid until
    /// the enclosing ScopedArena resets, tracked via the arena's slab charge
    /// (not individually). Contents undefined, poisoned at SPBLA_CHECKS=full
    /// — the DeviceBuffer contract. Workers may read it; only the allocating
    /// scope's thread must outlive-own it.
    template <class T>
    [[nodiscard]] DeviceBuffer<T> scratch_alloc(std::size_t count) const {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena scratch holds trivially-copyable elements only");
        Arena& arena = arena_hub_->local();
        T* p = static_cast<T*>(arena.allocate(count * sizeof(T), alignof(T)));
        return DeviceBuffer<T>::borrow(p, count);
    }

    /// Size-classed free lists for index buffers that outlive one op (kernel
    /// output arrays).
    [[nodiscard]] BufferPool& buffer_pool() const noexcept { return *buffer_pool_; }

    /// Release retained scratch (arena slabs + pooled buffers) back to the
    /// heap. Quiescent callers only — between ops, after pool joins. Used by
    /// tests and teardown to make the tracker balance exact to the byte.
    void trim_device_scratch() const {
        arena_hub_->trim();
        buffer_pool_->trim();
    }

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
    // unique_ptr so const launch methods hand out non-const arenas/pools:
    // both are internally synchronised (or per-thread), like the tracker.
    std::unique_ptr<ArenaHub> arena_hub_;
    std::unique_ptr<BufferPool> buffer_pool_;
};

/// Process-wide default context (parallel policy, hardware thread count).
[[nodiscard]] Context& default_context();

}  // namespace spbla::backend
